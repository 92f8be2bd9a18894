/**
 * @file
 * Unit tests for common/cow_array.hh: a seeded random mix of reads,
 * writes, copies, assignments, moves and resizes over a few arrays
 * must match std::vector references element for element, whichever
 * side of a copy writes first; the chunk accounting is exact (a
 * fresh copy shares every chunk, one write clones exactly one); and
 * assign() hands each new chunk to its fill exactly once and zeroes
 * what the fill does not write.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cow_array.hh"
#include "common/random.hh"

using lvpsim::CowArray;

namespace
{

// A 1 KiB element puts four in a chunk, so small arrays span many
// chunks and partial last chunks.
struct Elem
{
    std::uint64_t v = 0;
    std::uint8_t pad[1016] = {};
};
using Array = CowArray<Elem>;
static_assert(Array::chunkSize == 4);

void
expectMatches(const Array &a, const std::vector<std::uint64_t> &ref,
              int step)
{
    ASSERT_EQ(a.size(), ref.size()) << "step " << step;
    ASSERT_EQ(a.numChunks(),
              (ref.size() + Array::chunkSize - 1) / Array::chunkSize)
        << "step " << step;
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(a[i].v, ref[i]) << "step " << step << " index " << i;
    std::size_t i = 0;
    for (std::size_t c = 0; c < a.numChunks(); ++c)
        for (const Elem &e : a.chunk(c))
            ASSERT_EQ(e.v, ref[i++]) << "step " << step << " chunk " << c;
    ASSERT_EQ(i, ref.size()) << "step " << step;
}

} // anonymous namespace

TEST(CowArray, MatchesVectorUnderRandomOperations)
{
    constexpr std::size_t kArrays = 4;
    constexpr std::size_t kMaxSize = 23; // not a multiple of 4
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        lvpsim::Xoshiro256 rng(seed);
        std::vector<Array> arrays(kArrays);
        std::vector<std::vector<std::uint64_t>> refs(kArrays);
        for (int step = 0; step < 4000; ++step) {
            const std::size_t a = rng.below(kArrays);
            const std::size_t b = rng.below(kArrays);
            switch (rng.below(9)) {
              case 0:
              case 1: // write one element
                if (!refs[a].empty()) {
                    const std::size_t i = rng.below(refs[a].size());
                    const std::uint64_t v = rng.next();
                    arrays[a].writable(i)->v = v;
                    refs[a][i] = v;
                }
                break;
              case 2: // write a whole chunk through its span
                if (!refs[a].empty()) {
                    const std::size_t c = rng.below(arrays[a].numChunks());
                    std::size_t i = c * Array::chunkSize;
                    for (Elem &e : arrays[a].writableChunk(c)) {
                        e.v = rng.next();
                        refs[a][i++] = e.v;
                    }
                }
                break;
              case 3: // copy-construct
                {
                    Array copy(arrays[a]);
                    arrays[b] = std::move(copy);
                    refs[b] = refs[a];
                }
                break;
              case 4: // copy-assign, sometimes to itself
                {
                    const Array &src = arrays[a];
                    arrays[b] = src;
                    refs[b] = refs[a];
                }
                break;
              case 5: // move-construct and move-assign
                if (a != b) {
                    Array moved(std::move(arrays[a]));
                    EXPECT_TRUE(arrays[a].empty()) << "step " << step;
                    arrays[b] = std::move(moved);
                    refs[b] = std::move(refs[a]);
                    refs[a].clear();
                }
                break;
              case 6: // resize, growing past a shrink's stale tail too
                {
                    const std::size_t n = rng.below(kMaxSize + 1);
                    arrays[a].resize(n);
                    refs[a].resize(n);
                }
                break;
              case 7:
                arrays[a].clear();
                refs[a].clear();
                break;
              default: // read one element
                if (!refs[a].empty()) {
                    const std::size_t i = rng.below(refs[a].size());
                    ASSERT_EQ(arrays[a][i].v, refs[a][i])
                        << "step " << step;
                }
                break;
            }
            for (std::size_t k = 0; k < kArrays; ++k)
                expectMatches(arrays[k], refs[k], step);
        }
    }
}

TEST(CowArray, WritesAfterACopyStayOnTheirSide)
{
    Array orig;
    orig.resize(10);
    for (std::size_t i = 0; i < 10; ++i)
        orig.writable(i)->v = i;

    Array copy = orig;
    copy.writable(3)->v = 100; // the copy writes first
    orig.writable(7)->v = 200; // then the original
    EXPECT_EQ(orig[3].v, 3u);
    EXPECT_EQ(copy[3].v, 100u);
    EXPECT_EQ(orig[7].v, 200u);
    EXPECT_EQ(copy[7].v, 7u);

    Array assigned;
    assigned = orig;
    orig.writable(7)->v = 300; // the original writes first this time
    assigned.writable(3)->v = 400;
    EXPECT_EQ(assigned[7].v, 200u);
    EXPECT_EQ(orig[7].v, 300u);
    EXPECT_EQ(orig[3].v, 3u);
}

TEST(CowArray, FreshCopySharesEveryChunk)
{
    Array a;
    a.resize(4 * Array::chunkSize + 1);
    const Array b = a;
    EXPECT_EQ(a.numChunks(), 5u);
    EXPECT_EQ(b.chunksSharedWith(a), a.numChunks());
    EXPECT_EQ(a.chunksSharedWith(b), a.numChunks());

    Array c;
    c = a;
    EXPECT_EQ(c.chunksSharedWith(a), a.numChunks());
}

TEST(CowArray, OneWriteClonesExactlyOneChunk)
{
    Array a;
    a.resize(4 * Array::chunkSize + 1);
    Array b = a;
    b.writable(Array::chunkSize + 1)->v = 42;
    EXPECT_EQ(b.chunksSharedWith(a), a.numChunks() - 1);
    // A second write to the now-private chunk clones nothing more.
    b.writable(Array::chunkSize + 2)->v = 43;
    EXPECT_EQ(b.chunksSharedWith(a), a.numChunks() - 1);
    // Nor does a write from the other side to that chunk.
    a.writable(Array::chunkSize)->v = 44;
    EXPECT_EQ(b.chunksSharedWith(a), a.numChunks() - 1);
    // A write to the original's side of a shared chunk clones it.
    a.writable(0)->v = 45;
    EXPECT_EQ(b.chunksSharedWith(a), a.numChunks() - 2);
    EXPECT_EQ(b[0].v, 0u);
}

TEST(CowArray, UnsharedChunkIsWrittenInPlace)
{
    Array a;
    a.resize(2 * Array::chunkSize);
    const Elem *before = &a[0];
    {
        const Array transient = a; // shares, then lets go
    }
    EXPECT_EQ(a.writable(0), before);
    EXPECT_EQ(a.writable(1), before + 1);
}

TEST(CowArray, AssignFillsEachNewChunkOnce)
{
    Array a;
    a.resize(3);
    a.writable(0)->v = 99;
    const Array old = a; // shares a's chunk; must not see the assign
    std::vector<std::size_t> lengths;
    std::uint64_t next = 0;
    a.assign(2 * Array::chunkSize + 2, [&](std::span<Elem> chunk) {
        lengths.push_back(chunk.size());
        for (Elem &e : chunk)
            e.v = ++next;
        return true;
    });
    EXPECT_EQ(lengths,
              (std::vector<std::size_t>{Array::chunkSize,
                                        Array::chunkSize, 2}));
    std::vector<std::uint64_t> want(2 * Array::chunkSize + 2);
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = i + 1;
    expectMatches(a, want, 0);
    expectMatches(old, {99, 0, 0}, 0);
    // The new chunks are a's alone: writes land in place.
    const Elem *before = &a[Array::chunkSize];
    EXPECT_EQ(a.writable(Array::chunkSize), before);

    // A fill that stops leaves the later chunks value-initialized.
    int calls = 0;
    a.assign(2 * Array::chunkSize + 1, [&](std::span<Elem> chunk) {
        for (Elem &e : chunk)
            e.v = 7;
        return ++calls < 2;
    });
    EXPECT_EQ(calls, 2);
    want.assign(2 * Array::chunkSize + 1, 7);
    want.back() = 0;
    expectMatches(a, want, 1);

    a.assign(0, [](std::span<Elem>) { return true; });
    expectMatches(a, {}, 2);
}

TEST(CowArray, AssignZeroesWhatTheFillDoesNotWrite)
{
    // assign() hands its fill chunks that are not initialized. Free
    // chunks full of junk first, so that a chunk assign() should
    // have zeroed but did not would likely show the junk.
    const auto recycle_junk = [] {
        Array junk;
        junk.resize(4 * Array::chunkSize);
        for (std::size_t i = 0; i < junk.size(); ++i) {
            Elem *e = junk.writable(i);
            e->v = ~std::uint64_t(0);
            std::fill(std::begin(e->pad), std::end(e->pad), 0xa5);
        }
    };
    const auto zeroed = [](const Elem &e) {
        return e.v == 0 && std::all_of(std::begin(e.pad), std::end(e.pad),
                                       [](std::uint8_t b) { return b == 0; });
    };

    // A partial last chunk: its spare tail, reachable through
    // writable() on its last live element, reads as zero.
    recycle_junk();
    Array partial;
    partial.assign(Array::chunkSize + 1, [](std::span<Elem> chunk) {
        for (Elem &e : chunk)
            e = Elem{5, {}};
        return true;
    });
    std::vector<std::uint64_t> want(Array::chunkSize + 1, 5);
    expectMatches(partial, want, 0);
    const Elem *last = partial.writable(Array::chunkSize);
    for (std::size_t k = 1; k < Array::chunkSize; ++k)
        EXPECT_TRUE(zeroed(last[k])) << "spare tail element " << k;

    // A failed fill: the failing chunk holds what the fill wrote,
    // every later chunk is value-initialized, the spare tail too.
    recycle_junk();
    Array failed;
    int calls = 0;
    failed.assign(3 * Array::chunkSize + 2, [&](std::span<Elem> chunk) {
        for (Elem &e : chunk)
            e = Elem{9, {}};
        return ++calls < 2;
    });
    EXPECT_EQ(calls, 2);
    want.assign(3 * Array::chunkSize + 2, 0);
    std::fill(want.begin(), want.begin() + 2 * Array::chunkSize, 9);
    expectMatches(failed, want, 1);
    for (std::size_t i = 2 * Array::chunkSize; i < failed.size(); ++i)
        EXPECT_TRUE(zeroed(failed[i])) << "element " << i;
    last = failed.writable(failed.size() - 1);
    for (std::size_t k = 1; k + 1 < Array::chunkSize; ++k)
        EXPECT_TRUE(zeroed(last[k])) << "spare tail element " << k;
}
