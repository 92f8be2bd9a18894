/**
 * @file
 * Proof of the allocation-free steady state: after a warm-up run
 * (caches filled, scratch buffers at capacity, hash maps at their
 * reserved sizes), continuing the simulation for tens of thousands
 * of instructions performs ZERO heap allocations. Also bounds the
 * allocations of a core built from a checkpoint, which shares the
 * checkpoint's cache lines.
 *
 * The proof instruments the global operator new/delete in this test
 * binary only. Because of that, this binary must NOT carry the
 * smoke/fuzz labels: tools/run_sanitizers.sh rebuilds those subsets
 * under ASan, whose interceptors clash with a user-replaced
 * operator new.
 */

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/composite.hh"
#include "pipeline/core.hh"
#include "trace/workloads.hh"

namespace
{

std::uint64_t g_allocCount = 0;

void *
countedAlloc(std::size_t n)
{
    ++g_allocCount;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

// Replaceable global allocation functions (count every heap
// allocation made by the process, gtest included; tests diff the
// counter around the region of interest).
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace lvpsim;
using trace::MicroOp;

/**
 * Warm @p core up to @p warm_instrs committed instructions, then
 * continue to @p total_instrs and return the number of heap
 * allocations the continuation performed.
 */
std::uint64_t
allocsInSteadyState(pipe::Core &core, std::uint64_t warm_instrs,
                    std::uint64_t total_instrs)
{
    core.run(warm_instrs);
    const std::uint64_t before = g_allocCount;
    const auto stats = core.run(total_instrs);
    EXPECT_GT(stats.instructions, 0u) << "continuation ran dry";
    return g_allocCount - before;
}

} // anonymous namespace

TEST(AllocFree, SteadyStateCycleLoopNoPredictor)
{
    // interp_dispatch is the branchiest smoke workload: constant
    // mispredict squashes exercise the refetch stash and the
    // ring-buffer pop paths, not just the happy path.
    const auto ops =
        trace::generateWorkload("interp_dispatch", 40000, 1);
    pipe::CoreConfig cfg;
    pipe::Core core(cfg, ops, nullptr);
    EXPECT_EQ(allocsInSteadyState(core, 8000, 40000), 0u);
}

TEST(AllocFree, SteadyStateCycleLoopCompositePredictor)
{
    // Full composite predictor: per-token snapshots, value stores,
    // and the in-core prediction maps all run off their reserves.
    const auto ops = trace::generateWorkload("hash_probe", 40000, 1);
    vp::CompositePredictor vp(
        vp::CompositeConfig::homogeneous(4096));
    pipe::CoreConfig cfg;
    pipe::Core core(cfg, ops, &vp);
    EXPECT_EQ(allocsInSteadyState(core, 8000, 40000), 0u);
}

TEST(AllocFree, SteadyStateAcrossSquashHeavyPointerChase)
{
    // pointer_chase with the composite stresses long-latency loads
    // plus value mispredict flushes (vp_flushes > 0 in the smoke
    // suite results), i.e. the squash/stash path under prediction.
    const auto ops =
        trace::generateWorkload("pointer_chase", 40000, 1);
    vp::CompositePredictor vp(
        vp::CompositeConfig::homogeneous(4096));
    pipe::CoreConfig cfg;
    pipe::Core core(cfg, ops, &vp);
    EXPECT_EQ(allocsInSteadyState(core, 8000, 40000), 0u);
}

TEST(AllocFree, CoreFromSnapshotSharesItsCacheLines)
{
    // A core built from a checkpoint starts from the snapshot's
    // copy-on-write cache lines instead of allocating (and zeroing)
    // its own: a fresh core makes one allocation per 4 KiB chunk of
    // lines, several hundred of them at the default geometry.
    const auto ops = trace::generateWorkload("hash_probe", 40000, 1);
    pipe::CoreConfig cfg;
    pipe::Core::Snapshot snap;
    {
        pipe::Core warm(cfg, ops, nullptr);
        warm.warmup(8000);
        warm.saveState(snap);
    }
    vp::CompositePredictor vp(
        vp::CompositeConfig::homogeneous(4096));

    std::uint64_t before = g_allocCount;
    {
        pipe::Core fresh(cfg, ops, &vp);
        fresh.restoreState(snap);
    }
    const std::uint64_t freshAllocs = g_allocCount - before;

    before = g_allocCount;
    pipe::Core core(cfg, ops, &vp, snap);
    const std::uint64_t fromSnapshot = g_allocCount - before;
    RecordProperty("allocs_fresh_then_restore", int(freshAllocs));
    RecordProperty("allocs_from_snapshot", int(fromSnapshot));
    EXPECT_LT(fromSnapshot, 100u);
    EXPECT_GT(freshAllocs, 5 * fromSnapshot);
    EXPECT_GT(core.run(1000).instructions, 0u);
}
