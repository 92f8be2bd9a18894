/**
 * @file
 * Little-endian binary serialization primitives for the checkpoint
 * store (docs/performance.md).
 *
 * BinWriter appends to a growable byte buffer; BinReader walks a
 * read-only span with bounds checking. The reader is *total*: any
 * out-of-range read sets a sticky fail flag and returns zero instead
 * of crashing, so a truncated or corrupted store entry degrades into
 * a cache miss (the caller checks ok() once at the end) rather than
 * undefined behavior. Encoding is explicitly little-endian,
 * independent of host endianness; the writer appends each multi-byte
 * word in one insert and the reader loads it after one bounds check.
 *
 * Two hashes live here: fnv1a64, byte at a time, for short keys and
 * names, and checksum64, eight bytes a step in four lanes, for the
 * store's megabyte payloads.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace lvpsim
{

/** FNV-1a 64-bit hash (store keys and file names, counter names). */
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t
fnv1a64(const void *data, std::size_t n,
        std::uint64_t h = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s, std::uint64_t h = kFnvOffsetBasis)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** The little-endian unsigned word of type @p T at @p p (any
 *  alignment); one load on a little-endian host. */
template <class T>
inline T
loadLe(const unsigned char *p)
{
    static_assert(std::is_unsigned_v<T>);
    T v;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        v = 0;
        for (std::size_t i = 0; i < sizeof v; ++i)
            v = static_cast<T>(v | T(p[i]) << (8 * i));
    }
    return v;
}

namespace binio_detail
{

constexpr std::uint64_t kSumP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kSumP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kSumP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kSumP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kSumP5 = 0x27d4eb2f165667c5ull;

/** One lane step: a bijection of @p acc for a fixed @p w, and of
 *  @p w for a fixed @p acc. */
constexpr std::uint64_t
sumRound(std::uint64_t acc, std::uint64_t w)
{
    return std::rotl(acc + w * kSumP2, 31) * kSumP1;
}

/** Fold @p w into @p h, a bijection of either for the other fixed. */
constexpr std::uint64_t
sumFold(std::uint64_t h, std::uint64_t w)
{
    return std::rotl(h ^ sumRound(0, w), 27) * kSumP1 + kSumP4;
}

} // namespace binio_detail

/**
 * Checksum of the store's payloads: 64 bits, read eight bytes a step
 * in four independent lanes (32 bytes per stripe), then the lanes,
 * the length and the tail folded together and avalanched. Every step
 * is a bijection of the word it reads and of the state it carries,
 * so two inputs of one length that differ in a single byte always
 * get different sums; a length change is mixed in too. The value is
 * part of the store's file format (pinned by the store tests).
 */
inline std::uint64_t
checksum64(const void *data, std::size_t n)
{
    using namespace binio_detail;
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + n;
    std::uint64_t h = kSumP5;
    if (n >= 32) {
        std::uint64_t a = kSumP1 + kSumP2;
        std::uint64_t b = kSumP2;
        std::uint64_t c = 0;
        std::uint64_t d = 0 - kSumP1;
        for (; end - p >= 32; p += 32) {
            a = sumRound(a, loadLe<std::uint64_t>(p));
            b = sumRound(b, loadLe<std::uint64_t>(p + 8));
            c = sumRound(c, loadLe<std::uint64_t>(p + 16));
            d = sumRound(d, loadLe<std::uint64_t>(p + 24));
        }
        for (const std::uint64_t lane : {a, b, c, d})
            h = std::rotl(h ^ lane, 27) * kSumP1 + kSumP4;
    }
    h += n;
    for (; end - p >= 8; p += 8)
        h = sumFold(h, loadLe<std::uint64_t>(p));
    for (; p < end; ++p)
        h = std::rotl(h ^ (*p * kSumP5), 11) * kSumP1;
    h ^= h >> 33;
    h *= kSumP2;
    h ^= h >> 29;
    h *= kSumP3;
    h ^= h >> 32;
    return h;
}

/** Append-only little-endian encoder. */
class BinWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void u16(std::uint16_t v) { word(v); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }

    void
    i8(std::int8_t v)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v, "double is 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /**
     * Make room for @p total bytes in all. Growth stays geometric, as
     * for appends, so a writer that reserves once per part (say, per
     * checkpoint of a list) still reallocates O(log n) times.
     */
    void
    reserve(std::size_t total)
    {
        if (total > buf.capacity())
            buf.reserve(std::max(total, 2 * buf.capacity()));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    /** Append @p v's bytes, least significant first, in one insert. */
    template <class T>
    void
    word(T v)
    {
        std::uint8_t le[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf.insert(buf.end(), le, le + sizeof(T));
    }

    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian decoder over a read-only span. */
class BinReader
{
  public:
    BinReader(const void *data, std::size_t size)
        : base(static_cast<const std::uint8_t *>(data)), len(size)
    {
    }

    explicit BinReader(const std::vector<std::uint8_t> &v)
        : BinReader(v.data(), v.size())
    {
    }

    std::uint8_t u8() { return word<std::uint8_t>(); }
    std::uint16_t u16() { return word<std::uint16_t>(); }
    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }

    std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            failed = true;
        return v == 1;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    bool
    bytes(void *out, std::size_t n)
    {
        const std::uint8_t *p = take(n);
        if (p != nullptr)
            std::memcpy(out, p, n);
        return p != nullptr;
    }

    /**
     * Consume the next @p n bytes and return where they start; when
     * fewer remain, fail and return nullptr, consuming nothing.
     */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > len - pos) {
            failed = true;
            return nullptr;
        }
        const std::uint8_t *p = base + pos;
        pos += n;
        return p;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (failed || n > remaining()) {
            failed = true;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(base + pos),
                      static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Read an element count that will drive a container resize.
     * Rejects counts that could not possibly fit in the remaining
     * payload (each element occupies >= @p minBytesPerElem encoded
     * bytes), bounding allocations by the file size even when the
     * length field itself is corrupt.
     */
    std::size_t
    count(std::size_t minBytesPerElem = 1)
    {
        const std::uint64_t n = u64();
        if (failed || minBytesPerElem == 0 ||
            n > remaining() / minBytesPerElem) {
            failed = true;
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

    /** Mark the stream corrupt (semantic validation failed). */
    void fail() { failed = true; }

    bool ok() const { return !failed; }
    std::size_t remaining() const { return len - pos; }
    std::size_t offset() const { return pos; }
    bool atEnd() const { return pos == len; }

  private:
    /** One bounds check, then the little-endian word; a read that
     *  does not fit fails, returns 0 and consumes nothing. */
    template <class T>
    T
    word()
    {
        if (sizeof(T) > len - pos) {
            failed = true;
            return 0;
        }
        const T v = loadLe<T>(base + pos);
        pos += sizeof(T);
        return v;
    }

    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace lvpsim
