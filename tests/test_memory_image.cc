#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

#include "common/random.hh"
#include "trace/memory_image.hh"

using namespace lvpsim;
using namespace lvpsim::trace;

TEST(MemoryImage, UntouchedReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read(0x1000, 8), 0u);
    EXPECT_EQ(m.read(0xdeadbeef, 1), 0u);
}

TEST(MemoryImage, WriteReadRoundTrip)
{
    MemoryImage m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
}

TEST(MemoryImage, LittleEndianLayout)
{
    MemoryImage m;
    m.write(0x1000, 0x0A0B0C0Dull, 4);
    EXPECT_EQ(m.read(0x1000, 1), 0x0Dull);
    EXPECT_EQ(m.read(0x1001, 1), 0x0Cull);
    EXPECT_EQ(m.read(0x1002, 1), 0x0Bull);
    EXPECT_EQ(m.read(0x1003, 1), 0x0Aull);
}

TEST(MemoryImage, PartialWidthWriteMasks)
{
    MemoryImage m;
    m.write(0x2000, 0xffffffffffffffffull, 2);
    EXPECT_EQ(m.read(0x2000, 8), 0xffffull);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage m;
    const Addr a = MemoryImage::pageSize - 4; // straddles page 0/1
    m.write(a, 0x1234567890abcdefull, 8);
    EXPECT_EQ(m.read(a, 8), 0x1234567890abcdefull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(MemoryImage, OverlappingWritesLastWins)
{
    MemoryImage m;
    m.write(0x3000, 0xaaaaaaaaaaaaaaaaull, 8);
    m.write(0x3002, 0xbbbbull, 2);
    EXPECT_EQ(m.read(0x3000, 8), 0xaaaaaaaabbbbaaaaull);
}

TEST(MemoryImage, ZeroRange)
{
    MemoryImage m;
    m.write(0x4000, ~0ull, 8);
    m.write(0x4008, ~0ull, 8);
    m.zeroRange(0x4000, 12);
    EXPECT_EQ(m.read(0x4000, 8), 0u);
    EXPECT_EQ(m.read(0x4008, 4), 0u);
    EXPECT_EQ(m.read(0x400c, 4), 0xffffffffull);
}

TEST(MemoryImage, RejectsBadSize)
{
    MemoryImage m;
    EXPECT_DEATH((void)m.read(0, 9), "size");
    EXPECT_DEATH(m.write(0, 0, 0), "size");
}

namespace
{

/**
 * Byte-level reference for MemoryImage: every byte ever written or
 * zeroed, and the set of pages those bytes fall in (the image must
 * allocate exactly those pages and no others).
 */
struct ReferenceImage
{
    std::map<Addr, std::uint8_t> bytes;
    std::set<Addr> pages;

    Value
    read(Addr addr, unsigned size) const
    {
        Value v = 0;
        for (unsigned i = 0; i < size; ++i) {
            const auto it = bytes.find(addr + i);
            if (it != bytes.end())
                v |= Value(it->second) << (8 * i);
        }
        return v;
    }

    void
    write(Addr addr, Value v, unsigned size)
    {
        for (unsigned i = 0; i < size; ++i) {
            bytes[addr + i] = std::uint8_t(v >> (8 * i));
            pages.insert((addr + i) >> MemoryImage::pageShift);
        }
    }

    void
    zeroRange(Addr addr, std::size_t len)
    {
        for (std::size_t i = 0; i < len; ++i) {
            bytes[addr + i] = 0;
            pages.insert((addr + i) >> MemoryImage::pageShift);
        }
    }
};

/** An address within 8 bytes of one of a few page edges. */
Addr
nearPageEdge(Xoshiro256 &rng)
{
    static constexpr Addr edges[] = {
        1, 2, 3, 7, 0x40000, 0x40001, 0xfffff, // page numbers
    };
    const Addr edge = edges[rng.below(std::size(edges))]
                      << MemoryImage::pageShift;
    return edge - 8 + rng.below(17);
}

} // anonymous namespace

TEST(MemoryImage, MatchesByteReferenceNearPageEdges)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Xoshiro256 rng(seed);
        MemoryImage m;
        ReferenceImage ref;
        for (int step = 0; step < 3000; ++step) {
            const Addr addr = nearPageEdge(rng);
            const unsigned size = unsigned(1 + rng.below(8));
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2: {
                const Value v = rng.next();
                m.write(addr, v, size);
                ref.write(addr, v, size);
                break;
              }
              case 3: {
                // Up to a page and a bit: spans cross one or two
                // page edges.
                const std::size_t len =
                    rng.below(MemoryImage::pageSize + 24);
                m.zeroRange(addr, len);
                ref.zeroRange(addr, len);
                break;
              }
              default:
                ASSERT_EQ(m.read(addr, size), ref.read(addr, size))
                    << "seed " << seed << " step " << step << " read "
                    << size << " at 0x" << std::hex << addr;
            }
            ASSERT_EQ(m.numPages(), ref.pages.size())
                << "seed " << seed << " step " << step;
        }
        // A full sweep over every edge region agrees byte for byte.
        for (Addr a : ref.pages) {
            const Addr base = a << MemoryImage::pageShift;
            for (Addr x = base - 16; x < base + 16; ++x)
                ASSERT_EQ(m.read(x, 1), ref.read(x, 1)) << std::hex << x;
        }
    }
}

TEST(MemoryImage, ReadsOfUntouchedPagesAllocateNothing)
{
    MemoryImage m;
    m.write(0x5000, 0x1122, 2);
    ASSERT_EQ(m.numPages(), 1u);
    for (unsigned size = 1; size <= 8; ++size) {
        EXPECT_EQ(m.read(0x9000 + 3, size), 0u);
        EXPECT_EQ(m.read(0x6000 - 4, size), 0u); // straddles 0x5000's end
        EXPECT_EQ(m.read(0x123456789000ull - 2, size), 0u);
    }
    EXPECT_EQ(m.read(0x5000, 8), 0x1122u);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(MemoryImage, WriteAfterReadMissIsSeen)
{
    MemoryImage m;
    // A miss must not be remembered as "no page here".
    EXPECT_EQ(m.read(0x7008, 8), 0u);
    m.write(0x7010, 0xabcdef, 4);
    EXPECT_EQ(m.read(0x7010, 4), 0xabcdefu);
    EXPECT_EQ(m.read(0x7008, 8), 0u);
    EXPECT_EQ(m.numPages(), 1u);

    // Alternate between three pages, each access moving the
    // remembered page, and interleave misses on a fourth.
    const Addr pages[] = {0x10000, 0x23000, 0x10000 + 0x1000};
    for (unsigned round = 0; round < 6; ++round) {
        for (unsigned p = 0; p < 3; ++p) {
            const Addr a = pages[p] + 8 * round;
            EXPECT_EQ(m.read(0x99000, 8), 0u);
            EXPECT_EQ(m.read(a, 8), 0u);
            m.write(a, 100 * round + p, 8);
        }
        for (unsigned p = 0; p < 3; ++p)
            EXPECT_EQ(m.read(pages[p] + 8 * round, 8), 100 * round + p);
    }
    EXPECT_EQ(m.numPages(), 4u);
}

TEST(MemoryImage, ZeroRangeAcrossPages)
{
    MemoryImage m;
    const Addr start = 3 * MemoryImage::pageSize - 5;
    for (Addr a = start - 8; a < start + 2 * MemoryImage::pageSize + 16;
         a += 8)
        m.write(a, ~0ull, 8);
    const std::size_t len = MemoryImage::pageSize + 10;
    m.zeroRange(start, len);
    EXPECT_EQ(m.read(start - 1, 1), 0xffu);
    EXPECT_EQ(m.read(start, 8), 0u);
    EXPECT_EQ(m.read(start + len - 8, 8), 0u);
    EXPECT_EQ(m.read(start + len, 1), 0xffu);
    for (Addr a = start; a < start + len; ++a)
        ASSERT_EQ(m.read(a, 1), 0u) << std::hex << a;
}
