#include "pipeline/snapshot_io.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/check.hh"
#include "common/cow_array.hh"
#include "common/logging.hh"

namespace lvpsim
{
namespace pipe
{
namespace
{

/** Counts the bytes a BinWriter would append, storing none. */
class ByteCount
{
  public:
    void u8(std::uint8_t) { n += 1; }
    void u16(std::uint16_t) { n += 2; }
    void u32(std::uint32_t) { n += 4; }
    void u64(std::uint64_t) { n += 8; }
    void i8(std::int8_t) { n += 1; }
    void b(bool) { n += 1; }
    void bytes(const void *, std::size_t len) { n += len; }
    std::size_t size() const { return n; }

  private:
    std::size_t n = 0;
};

template <class Sink>
void
writeStats(Sink &w, const SimStats &s)
{
    w.u32(std::uint32_t(counters().size()));
    for (const CounterInfo &c : counters()) {
        w.u64(fnv1a64(c.name.data(), c.name.size()));
        w.u64(c.value(s));
    }
}

/**
 * Encodes a value and, through its fields() list, everything in it,
 * into a BinWriter (or, to size one, a ByteCount).
 */
template <class Sink>
class Writer
{
  public:
    explicit Writer(Sink &out) : w(out) {}

    /** The visitor that fields() calls with its member list. */
    template <class... T>
    void
    operator()(const T &...xs)
    {
        (put(xs), ...);
    }

    template <class T>
    void
    put(const T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            w.b(x);
        } else if constexpr (std::is_integral_v<T>) {
            static_assert(sizeof(T) <= 8);
            if constexpr (sizeof(T) == 1)
                w.u8(static_cast<std::uint8_t>(x));
            else if constexpr (sizeof(T) == 2)
                w.u16(static_cast<std::uint16_t>(x));
            else if constexpr (sizeof(T) == 4)
                w.u32(static_cast<std::uint32_t>(x));
            else
                w.u64(static_cast<std::uint64_t>(x));
        } else {
            // fields() is non-const so that one list also serves the
            // Reader; the Writer only reads through it.
            const_cast<T &>(x).fields(*this);
        }
    }

    template <class T, std::size_t N>
    void
    put(const std::array<T, N> &a)
    {
        for (const T &e : a)
            put(e);
    }

    template <class T>
    void
    put(const std::vector<T> &v)
    {
        w.u64(v.size());
        for (const T &e : v)
            put(e);
    }

    /** Encoded exactly like a std::vector<T>. */
    template <class T>
    void
    put(const CowArray<T> &v)
    {
        w.u64(v.size());
        for (std::size_t c = 0; c < v.numChunks(); ++c)
            for (const T &e : v.chunk(c))
                put(e);
    }

    template <class T>
    void
    put(const RingBuffer<T> &rb)
    {
        w.u64(rb.capacity());
        w.u64(rb.size());
        for (std::size_t i = 0; i < rb.size(); ++i)
            put(rb[i]);
    }

    template <class K, class V, class H>
    void
    put(const FlatMap<K, V, H> &m)
    {
        const auto &slots = m.rawSlots();
        const auto &used = m.rawUsed();
        w.u64(slots.size());
        w.u64(m.size());
        for (std::size_t i = 0; i < slots.size(); ++i) {
            w.u8(used[i]);
            if (used[i]) {
                w.u64(static_cast<std::uint64_t>(slots[i].first));
                put(slots[i].second);
            }
        }
    }

    void
    put(const std::vector<bool> &v)
    {
        w.u64(v.size());
        for (const bool bit : v)
            w.b(bit);
    }

    void
    put(const branch::FoldedHistory &f)
    {
        w.u32(f.length());
        w.u32(f.foldedLength());
        w.u32(f.value());
    }

    void
    put(const branch::HistoryRing &h)
    {
        w.u64(h.rawBits().size());
        w.u64(h.rawHead());
        w.bytes(h.rawBits().data(), h.rawBits().size());
    }

    void
    put(const Xoshiro256 &g)
    {
        for (const std::uint64_t word : g.rawState())
            w.u64(word);
    }

    void
    put(const Prediction &p)
    {
        w.u8(static_cast<std::uint8_t>(p.kind));
        w.u64(p.value);
        w.u64(p.addr);
        w.i8(static_cast<std::int8_t>(p.component));
    }

    void put(const SimStats &s) { writeStats(w, s); }

  private:
    Sink &w;
};

/**
 * Smallest encoding of a T: that of a value-initialized one, whose
 * variable-length parts are all empty. Bounds a length field against
 * the bytes left, so a corrupt count cannot drive a huge allocation.
 */
template <class T>
std::size_t
minEncodedBytes()
{
    static const std::size_t n = [] {
        BinWriter w;
        Writer(w).put(T{});
        return w.size();
    }();
    return n;
}

/**
 * Finds out whether a type is fixed-width: an integer, or a fields()
 * struct whose members are all fixed-width. Every value of such a
 * type encodes to minEncodedBytes() bytes.
 */
class FixedWidthProbe
{
  public:
    template <class... T>
    void
    operator()(T &...xs)
    {
        (probe(xs), ...);
    }

    template <class T>
    void
    probe(T &x)
    {
        if constexpr (!std::is_integral_v<T>) {
            if constexpr (requires { x.fields(*this); })
                x.fields(*this);
            else
                fixed = false;
        }
    }

    bool fixed = true;
};

template <class T>
bool
isFixedWidth()
{
    static const bool fixed = [] {
        FixedWidthProbe p;
        T x{};
        p.probe(x);
        return p.fixed;
    }();
    return fixed;
}

/**
 * Decodes fixed-width values from bytes whose length the caller has
 * already checked against the stream, so no read here checks bounds.
 * Bool bytes above 1 and values that fail wellFormed() set `bad`,
 * which the caller turns into a stream failure.
 */
class FixedWidthReader
{
  public:
    explicit FixedWidthReader(const std::uint8_t *from) : p(from) {}

    template <class... T>
    void
    operator()(T &...xs)
    {
        (get(xs), ...);
    }

    template <class T>
    void
    get(T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            bad |= *p > 1;
            x = *p++ == 1;
        } else if constexpr (std::is_integral_v<T>) {
            x = static_cast<T>(loadLe<std::make_unsigned_t<T>>(p));
            p += sizeof(T);
        } else if constexpr (requires { x.fields(*this); }) {
            x.fields(*this);
            if constexpr (requires { x.wellFormed(); })
                bad |= !x.wellFormed();
        } else {
            // Never reached: isFixedWidth() keeps such types out.
            bad = true;
        }
    }

    const std::uint8_t *p;
    bool bad = false;
};

/** Decodes what Writer encodes, validating as it goes. */
class Reader
{
  public:
    explicit Reader(BinReader &in) : r(in) {}

    template <class... T>
    void
    operator()(T &...xs)
    {
        (get(xs), ...);
    }

    template <class T>
    void
    get(T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            x = r.b();
        } else if constexpr (std::is_integral_v<T>) {
            if constexpr (sizeof(T) == 1)
                x = static_cast<T>(r.u8());
            else if constexpr (sizeof(T) == 2)
                x = static_cast<T>(r.u16());
            else if constexpr (sizeof(T) == 4)
                x = static_cast<T>(r.u32());
            else
                x = static_cast<T>(r.u64());
        } else {
            x.fields(*this);
            if constexpr (requires { x.wellFormed(); }) {
                if (r.ok() && !x.wellFormed())
                    r.fail();
            }
        }
    }

    template <class T, std::size_t N>
    void
    get(std::array<T, N> &a)
    {
        for (T &e : a)
            get(e);
    }

    template <class T>
    void
    get(std::vector<T> &v)
    {
        const std::size_t n = r.count(minEncodedBytes<T>());
        v.clear();
        v.resize(n);
        if (isFixedWidth<T>()) {
            getFixedWidth(std::span<T>(v));
            return;
        }
        for (T &e : v) {
            get(e);
            if (!r.ok())
                return;
        }
    }

    template <class T>
    void
    get(CowArray<T> &v)
    {
        lvp_assert(isFixedWidth<T>(),
                   "copy-on-write arrays hold fixed-width elements");
        const std::size_t n = r.count(minEncodedBytes<T>());
        // Each chunk is decoded right after it is allocated, while it
        // is still in cache.
        v.assign(n, [&](std::span<T> chunk) {
            getFixedWidth(chunk);
            return r.ok();
        });
    }

    /** Decode fixed-width elements after one bounds check for all
     *  of them. Writes every element of @p out, also on failure (a
     *  CowArray chunk arrives uninitialized). */
    template <class T>
    void
    getFixedWidth(std::span<T> out)
    {
        const std::size_t size = minEncodedBytes<T>();
        const std::uint8_t *p = r.take(out.size() * size);
        if (p == nullptr) {
            std::fill(out.begin(), out.end(), T{});
            return;
        }
        FixedWidthReader in(p);
        for (T &e : out)
            in.get(e);
        LVPSIM_CHECK(in.p == p + out.size() * size,
                     "fixed-width decode consumed %td of %zu bytes",
                     in.p - p, out.size() * size);
        if (in.bad)
            r.fail();
    }

    template <class T>
    void
    get(RingBuffer<T> &rb)
    {
        constexpr std::uint64_t maxCapacity = std::uint64_t(1) << 20;
        const std::uint64_t cap = r.u64();
        const std::size_t n = r.count(1);
        if (!r.ok() || cap == 0 || cap > maxCapacity || n > cap ||
            !isPowerOf2(cap)) {
            r.fail();
            return;
        }
        rb.configure(static_cast<std::size_t>(cap));
        for (std::size_t i = 0; i < n; ++i) {
            T e{};
            get(e);
            if (!r.ok())
                return;
            rb.push_back(std::move(e));
        }
    }

    template <class K, class V, class H>
    void
    get(FlatMap<K, V, H> &m)
    {
        const std::size_t cap = r.count(1);
        const std::uint64_t live = r.u64();
        // The in-memory map keeps load factor <= 3/4 (a full table
        // would make probe loops unbounded), so a layout claiming
        // more is corrupt, not merely unusual.
        if (!r.ok() || (cap != 0 && !isPowerOf2(cap)) || live > cap ||
            (cap != 0 && live * 4 > cap * 3)) {
            r.fail();
            return;
        }
        std::vector<typename FlatMap<K, V, H>::value_type> slots(cap);
        std::vector<std::uint8_t> used(cap, 0);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < cap; ++i) {
            const std::uint8_t u = r.u8();
            if (u > 1) {
                r.fail();
                return;
            }
            used[i] = u;
            if (u != 0) {
                slots[i].first = static_cast<K>(r.u64());
                get(slots[i].second);
                ++seen;
            }
            if (!r.ok())
                return;
        }
        if (seen != live) {
            r.fail();
            return;
        }
        m.restoreRaw(std::move(slots), std::move(used),
                     static_cast<std::size_t>(live));
    }

    void
    get(std::vector<bool> &v)
    {
        const std::size_t n = r.count(1);
        v.assign(n, false);
        for (std::size_t i = 0; i < n && r.ok(); ++i)
            v[i] = r.b();
    }

    /** Whole vectors: FoldedHistory has no default constructor. */
    void
    get(std::vector<branch::FoldedHistory> &v)
    {
        const std::size_t n = r.count(12);
        v.clear();
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t orig = r.u32();
            const std::uint32_t compLen = r.u32();
            const std::uint32_t val = r.u32();
            // The FoldedHistory constructor asserts its width;
            // validate here first so corrupt input stays a store miss.
            if (!r.ok() || compLen < 1 || compLen > 31) {
                r.fail();
                return;
            }
            branch::FoldedHistory f(orig, compLen);
            f.restoreRaw(val);
            v.push_back(f);
        }
    }

    void
    get(branch::HistoryRing &h)
    {
        const std::size_t n = r.count(1);
        const std::uint64_t head = r.u64();
        if (!r.ok() || !isPowerOf2(n) || head >= n) {
            r.fail();
            return;
        }
        std::vector<std::uint8_t> bits(n);
        if (!r.bytes(bits.data(), n))
            return;
        for (const std::uint8_t b : bits) {
            if (b > 1) {
                r.fail();
                return;
            }
        }
        h.restoreRaw(std::move(bits), static_cast<std::size_t>(head));
    }

    void
    get(Xoshiro256 &g)
    {
        std::array<std::uint64_t, 4> st;
        for (auto &word : st)
            word = r.u64();
        if (r.ok())
            g.restoreRaw(st);
    }

    void
    get(Prediction &p)
    {
        const std::uint8_t k = r.u8();
        if (k > static_cast<std::uint8_t>(Prediction::Kind::Address)) {
            r.fail();
            return;
        }
        p.kind = static_cast<Prediction::Kind>(k);
        p.value = r.u64();
        p.addr = r.u64();
        const std::int8_t c = r.i8();
        if (c < static_cast<std::int8_t>(ComponentId::None) ||
            c > static_cast<std::int8_t>(ComponentId::Other)) {
            r.fail();
            return;
        }
        p.component = static_cast<ComponentId>(c);
    }

    void get(SimStats &s) { deserializeSnapshot(r, s); }

  private:
    BinReader &r;
};

/**
 * Lists a value's geometry, walking its fields() lists like Writer:
 * vector sizes, ring buffer and history ring capacities, fold
 * lengths. Contents, and the sizes of maps and ring buffers that vary
 * with content, are left out.
 */
class ShapeOf
{
  public:
    explicit ShapeOf(std::vector<std::uint64_t> &out) : dims(out) {}

    template <class... T>
    void
    operator()(const T &...xs)
    {
        (put(xs), ...);
    }

    template <class T>
    void
    put(const T &x)
    {
        // Arithmetic members, Xoshiro256, Prediction and SimStats
        // have no geometry.
        if constexpr (requires(T &y, ShapeOf &v) { y.fields(v); })
            const_cast<T &>(x).fields(*this);
    }

    template <class T, std::size_t N>
    void
    put(const std::array<T, N> &a)
    {
        for (const T &e : a)
            put(e);
    }

    template <class T>
    void
    put(const std::vector<T> &v)
    {
        dims.push_back(v.size());
        // Elements of one type have one structure: when the first
        // holds no geometry, none does (cache lines, table entries).
        for (const T &e : v) {
            const std::size_t before = dims.size();
            put(e);
            if (dims.size() == before)
                break;
        }
    }

    template <class T>
    void
    put(const CowArray<T> &v)
    {
        dims.push_back(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            const std::size_t before = dims.size();
            put(v[i]);
            if (dims.size() == before)
                break;
        }
    }

    void put(const std::vector<bool> &v) { dims.push_back(v.size()); }

    template <class T>
    void
    put(const RingBuffer<T> &rb)
    {
        dims.push_back(rb.capacity());
    }

    template <class K, class V, class H>
    void
    put(const FlatMap<K, V, H> &)
    {}

    void
    put(const branch::FoldedHistory &f)
    {
        dims.push_back(f.length());
        dims.push_back(f.foldedLength());
    }

    void put(const branch::HistoryRing &h) { dims.push_back(h.capacity()); }

  private:
    std::vector<std::uint64_t> &dims;
};

} // namespace

std::vector<std::uint64_t>
snapshotShape(const Core::Snapshot &s)
{
    std::vector<std::uint64_t> dims;
    ShapeOf(dims).put(s);
    return dims;
}

void
serializeSnapshot(BinWriter &w, const SimStats &s)
{
    writeStats(w, s);
}

void
deserializeSnapshot(BinReader &r, SimStats &s)
{
    // Hash -> counter, from the *current* counter set: a stream
    // written by a binary with different counters fails to match and
    // reads as corrupt (i.e. a store miss), which is exactly the
    // contract.
    const std::vector<CounterInfo> &cs = counters();
    std::vector<std::uint64_t> hashes;
    for (const CounterInfo &c : cs)
        hashes.push_back(fnv1a64(c.name.data(), c.name.size()));
    const std::uint32_t n = r.u32();
    if (!r.ok() || n != cs.size()) {
        r.fail();
        return;
    }
    s = SimStats{};
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t h = r.u64();
        const std::uint64_t v = r.u64();
        if (!r.ok())
            return;
        const auto at = std::find(hashes.begin(), hashes.end(), h);
        if (at == hashes.end()) {
            r.fail();
            return;
        }
        cs[std::size_t(at - hashes.begin())].value(s) = v;
    }
}

void
serializeSnapshot(BinWriter &w, const Core::Snapshot &s)
{
    // Size the buffer first: a 1.4 MB snapshot appended into a
    // growing vector would otherwise reallocate about a dozen times.
    ByteCount n;
    Writer(n).put(s);
    w.reserve(w.size() + n.size());
    Writer(w).put(s);
}

void
deserializeSnapshot(BinReader &r, Core::Snapshot &s)
{
    Reader(r).get(s);
}

} // namespace pipe
} // namespace lvpsim
