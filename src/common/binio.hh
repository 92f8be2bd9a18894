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
 * undefined behavior. Encoding is explicitly little-endian (byte order
 * set by shifts, independent of host endianness); the writer appends
 * each multi-byte word in one insert.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace lvpsim
{

/** FNV-1a 64-bit hash (used for store keys and payload checksums). */
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

    std::uint8_t
    u8()
    {
        if (pos + 1 > len) {
            failed = true;
            return 0;
        }
        return base[pos++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (std::uint16_t(u8()) << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }

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
        if (pos + n > len || pos + n < pos) {
            failed = true;
            return false;
        }
        std::memcpy(out, base + pos, n);
        pos += n;
        return true;
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
    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace lvpsim
