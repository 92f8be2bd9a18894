#include <gtest/gtest.h>

#include <utility>

#include "memory/cache.hh"

using namespace lvpsim;
using namespace lvpsim::mem;

namespace
{

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64B blocks = 512B.
    return CacheConfig{"tiny", 512, 2, 64, 2};
}

} // anonymous namespace

TEST(Cache, ColdMiss)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(tinyCache());
    c.fill(0x1000, false, nullptr);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(c.probe(0x1004)); // same block
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, DifferentBlockMisses)
{
    Cache c(tinyCache());
    c.fill(0x1000, false, nullptr);
    EXPECT_FALSE(c.probe(0x1040)); // next block, same set? 0x1040>>6=65
}

TEST(Cache, LruEviction)
{
    Cache c(tinyCache());
    // Three blocks mapping to the same set (stride = sets*block =
    // 4*64 = 256).
    c.fill(0x0000, false, nullptr);
    c.fill(0x0100, false, nullptr);
    c.probe(0x0000); // touch to make 0x100 the LRU
    c.fill(0x0200, false, nullptr);
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0100));
    EXPECT_TRUE(c.contains(0x0200));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(tinyCache());
    bool wb = false;
    c.fill(0x0000, true, &wb); // dirty fill
    EXPECT_FALSE(wb);
    c.fill(0x0100, false, &wb);
    EXPECT_FALSE(wb);
    Addr evicted = c.fill(0x0200, false, &wb); // evicts dirty 0x0000
    EXPECT_TRUE(wb);
    EXPECT_EQ(evicted, 0x0000u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(tinyCache());
    bool wb = true;
    c.fill(0x0000, false, &wb);
    c.fill(0x0100, false, &wb);
    c.fill(0x0200, false, &wb);
    EXPECT_FALSE(wb);
}

TEST(Cache, SetDirtyMarksForLaterWriteback)
{
    Cache c(tinyCache());
    bool wb = false;
    c.fill(0x0000, false, &wb);
    c.setDirty(0x0000);
    c.fill(0x0100, false, &wb);
    c.fill(0x0200, false, &wb);
    EXPECT_TRUE(wb);
}

TEST(Cache, ContainsDoesNotTouchLru)
{
    Cache c(tinyCache());
    c.fill(0x0000, false, nullptr);
    c.fill(0x0100, false, nullptr);
    // contains() must not refresh 0x0000's recency.
    EXPECT_TRUE(c.contains(0x0000));
    c.fill(0x0200, false, nullptr); // LRU is still 0x0000
    EXPECT_FALSE(c.contains(0x0000));
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c(tinyCache());
    c.fill(0x1000, false, nullptr);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(Cache, FillIdempotentWhenPresent)
{
    Cache c(tinyCache());
    c.fill(0x1000, false, nullptr);
    bool wb = true;
    c.fill(0x1000, true, &wb); // re-fill marks dirty, no eviction
    EXPECT_FALSE(wb);
    c.fill(0x1100, false, nullptr);
    c.fill(0x1200, false, &wb); // dirty 0x1000 was LRU? touch order:
    // 0x1000 (refill), 0x1100, so LRU is 0x1000 -> dirty writeback.
    EXPECT_TRUE(wb);
}

TEST(Cache, GeometryMatchesTableIII)
{
    // The paper's L1D: 64KB, 4-way, 64B blocks, 2-cycle.
    CacheConfig l1{"l1d", 64 * 1024, 4, 64, 2};
    Cache c(l1);
    EXPECT_EQ(c.latency(), 2u);
    // 256 sets: fill 4 ways of one set, 5th fill evicts.
    const Addr stride = 256 * 64;
    for (int i = 0; i < 4; ++i)
        c.fill(i * stride, false, nullptr);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.contains(i * stride));
    c.fill(4 * stride, false, nullptr);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, SavedStateIsIsolatedFromLaterAccesses)
{
    // A saved State shares its lines with the cache (copy-on-write),
    // so it must not see any access made after the save, and a cache
    // restored from it must behave as one that never made them. Each
    // kind of write runs alone on a fresh save, so none of them can
    // hide behind a chunk that another one already cloned.
    const CacheConfig l1{"l1d", 64 * 1024, 4, 64, 2};
    const auto warm = [](Cache &c) {
        for (Addr a = 0; a < 48 * 1024; a += 64)
            c.fill(a, (a & 0x100) != 0, nullptr);
        for (Addr a = 0; a < 48 * 1024; a += 192)
            c.probe(a);
    };
    Cache twin(l1); // same history, never touched after the save
    warm(twin);
    Cache::State want;
    twin.saveState(want);

    const std::pair<const char *, void (*)(Cache &, Addr)> writes[] = {
        {"probe hit", [](Cache &c, Addr a) { c.probe(a); }},
        {"fill",
         [](Cache &c, Addr a) { c.fill(a + (1 << 20), true, nullptr); }},
        {"setDirty", [](Cache &c, Addr a) { c.setDirty(a); }},
        {"invalidate", [](Cache &c, Addr a) { c.invalidate(a); }},
    };
    for (const auto &[what, write] : writes) {
        Cache live(l1);
        warm(live);
        Cache::State saved;
        live.saveState(saved);
        for (Addr a = 0; a < 64 * 1024; a += 64)
            write(live, a);

        ASSERT_EQ(saved.lines.size(), want.lines.size()) << what;
        for (std::size_t i = 0; i < want.lines.size(); ++i) {
            const auto &g = saved.lines[i];
            const auto &w = want.lines[i];
            ASSERT_TRUE(g.valid == w.valid && g.dirty == w.dirty &&
                        g.tag == w.tag && g.lastUse == w.lastUse)
                << what << ": line " << i;
        }
        EXPECT_EQ(saved.useClock, want.useClock) << what;
        EXPECT_EQ(saved.numHits, want.numHits) << what;
        EXPECT_EQ(saved.numMisses, want.numMisses) << what;

        // Restored, it replays a fresh access stream like the twin.
        Cache replay = twin;
        live.restoreState(saved);
        for (Addr a = 0; a < 96 * 1024; a += 320) {
            bool wbLive = false, wbTwin = false;
            ASSERT_EQ(live.probe(a), replay.probe(a)) << what << a;
            ASSERT_EQ(live.fill(a, true, &wbLive),
                      replay.fill(a, true, &wbTwin))
                << what << a;
            ASSERT_EQ(wbLive, wbTwin) << what << a;
        }
        EXPECT_EQ(live.hits(), replay.hits()) << what;
        EXPECT_EQ(live.misses(), replay.misses()) << what;
    }
}

TEST(Cache, BuiltFromStateMatchesRestoreAndSharesLines)
{
    // 32 KiB, 4-way: enough lines for several copy-on-write chunks.
    const CacheConfig cfg{"l1", 32 * 1024, 4, 64, 2};
    Cache warm(cfg);
    for (Addr a = 0; a < 64 * 1024; a += 192) {
        if (!warm.probe(a))
            warm.fill(a, (a & 0x100) != 0, nullptr);
    }
    Cache::State saved;
    warm.saveState(saved);

    Cache built(cfg, saved);
    Cache::State fromBuilt;
    built.saveState(fromBuilt);
    EXPECT_EQ(fromBuilt.lines.chunksSharedWith(saved.lines),
              saved.lines.numChunks())
        << "building from a state copied its lines";

    Cache restored(cfg);
    restored.restoreState(saved);
    for (Addr a = 0; a < 96 * 1024; a += 320) {
        bool wbBuilt = false, wbRestored = false;
        ASSERT_EQ(built.probe(a), restored.probe(a)) << a;
        ASSERT_EQ(built.fill(a, true, &wbBuilt),
                  restored.fill(a, true, &wbRestored))
            << a;
        ASSERT_EQ(wbBuilt, wbRestored) << a;
    }
    EXPECT_EQ(built.hits(), restored.hits());
    EXPECT_EQ(built.misses(), restored.misses());

    // The built cache's writes cloned its chunks; the state it came
    // from still replays like the first time.
    Cache again(cfg, saved);
    Cache twin(cfg);
    twin.restoreState(fromBuilt);
    for (Addr a = 0; a < 96 * 1024; a += 320)
        ASSERT_EQ(again.probe(a), twin.probe(a)) << a;
}
