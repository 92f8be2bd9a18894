/**
 * @file
 * Interval profiler (trace/interval_profile.hh): interval cutting,
 * fixed-point normalization, snapshot/resume bit-identity, and
 * profile determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "trace/interval_profile.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using trace::IntervalProfile;
using trace::IntervalProfiler;
using trace::IntervalSignature;

namespace
{

std::vector<trace::MicroOp>
ops(const char *workload, std::size_t n)
{
    return trace::generateWorkload(workload, n, /*seed=*/1);
}

bool
sameProfile(const IntervalProfile &a, const IntervalProfile &b)
{
    if (a.intervalLen != b.intervalLen ||
        a.totalInstructions != b.totalInstructions ||
        a.intervals.size() != b.intervals.size())
        return false;
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        if (a.intervals[i].v != b.intervals[i].v ||
            a.intervals[i].instructions !=
                b.intervals[i].instructions ||
            a.intervals[i].loads != b.intervals[i].loads)
            return false;
    }
    return true;
}

} // namespace

TEST(IntervalProfile, CutsTraceIntoIntervalsWithPartialTail)
{
    const auto trace = ops("pointer_chase", 25000);
    const auto p = trace::profileTrace(trace, 10000);

    EXPECT_EQ(p.intervalLen, 10000u);
    EXPECT_EQ(p.totalInstructions, trace.size());
    ASSERT_EQ(p.intervals.size(), (trace.size() + 9999) / 10000);

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < p.intervals.size(); ++i) {
        const auto &sig = p.intervals[i];
        if (i + 1 < p.intervals.size())
            EXPECT_EQ(sig.instructions, 10000u);
        else
            EXPECT_LE(sig.instructions, 10000u);
        total += sig.instructions;
    }
    EXPECT_EQ(total, p.totalInstructions);
}

TEST(IntervalProfile, GroupsNormalizeToFixedOne)
{
    const auto p =
        trace::profileTrace(ops("stream_sum", 30000), 10000);
    for (const auto &sig : p.intervals) {
        std::uint64_t pcSum = 0, strideSum = 0;
        for (std::size_t d = 0; d < IntervalSignature::pcDims; ++d)
            pcSum += sig.v[d];
        for (std::size_t d = IntervalSignature::pcDims;
             d < IntervalSignature::dims; ++d)
            strideSum += sig.v[d];
        // Integer floor division: the sum can undershoot fixedOne by
        // at most one unit per bucket, never overshoot.
        EXPECT_LE(pcSum, IntervalSignature::fixedOne);
        EXPECT_GT(pcSum, IntervalSignature::fixedOne -
                             IntervalSignature::pcDims);
        if (sig.loads > 1) {
            EXPECT_LE(strideSum, IntervalSignature::fixedOne);
            EXPECT_GT(strideSum, IntervalSignature::fixedOne -
                                     IntervalSignature::strideDims);
        }
    }
}

TEST(IntervalProfile, DistinctPhasesGetDistinctSignatures)
{
    // Two different kernels concatenated: the interval signatures of
    // the halves must differ (otherwise clustering cannot separate
    // phases).
    auto a = ops("stream_sum", 10000);
    const auto b = ops("pointer_chase", 10000);
    a.insert(a.end(), b.begin(), b.end());
    const auto p = trace::profileTrace(a, 10000);
    ASSERT_GE(p.intervals.size(), 2u);
    EXPECT_NE(p.intervals.front().v, p.intervals.back().v);
}

TEST(IntervalProfile, DeterministicAcrossRuns)
{
    const auto trace = ops("hash_probe", 20000);
    EXPECT_TRUE(sameProfile(trace::profileTrace(trace, 7000),
                            trace::profileTrace(trace, 7000)));
}

TEST(IntervalProfile, FinishResetsTheProfiler)
{
    const auto trace = ops("stream_sum", 9000);
    IntervalProfiler p(2000);
    for (const auto &op : trace)
        p.observe(op);
    const auto first = p.finish();
    EXPECT_EQ(p.observed(), 0u);
    for (const auto &op : trace)
        p.observe(op);
    EXPECT_TRUE(sameProfile(first, p.finish()));
}

namespace
{

/** FNV-1a over every interval's signature, size and load count. */
std::uint64_t
profileHash(const IntervalProfile &p)
{
    std::uint64_t h = fnv1a64(&p.totalInstructions,
                              sizeof p.totalInstructions);
    for (const auto &sig : p.intervals) {
        h = fnv1a64(sig.v.data(), sizeof sig.v, h);
        h = fnv1a64(&sig.instructions, sizeof sig.instructions, h);
        h = fnv1a64(&sig.loads, sizeof sig.loads, h);
    }
    return h;
}

trace::MicroOp
opAt(Addr pc, std::size_t i)
{
    trace::MicroOp op;
    op.pc = pc;
    if (i % 3 == 0) {
        op.cls = trace::OpClass::Load;
        op.effAddr = 0x100000 + 24 * (i % 37);
        op.memSize = 8;
    }
    return op;
}

} // namespace

TEST(IntervalProfile, BlockRunsMatchPinnedSignatures)
{
    // The profiler hashes each 64-byte PC block once per run of ops
    // in it. These traces switch block on every op, never leave one
    // block, and mix runs with revisits; their signatures are pinned
    // to the values of the per-op hash the cache replaced.
    std::vector<trace::MicroOp> alternating, oneBlock, mixed;
    for (std::size_t i = 0; i < 1050; ++i) {
        alternating.push_back(
            opAt(i % 2 ? 0x10000 + 4 * (i % 8) : 0x20040 + 4 * (i % 5),
                 i));
        oneBlock.push_back(opAt(0x3000 + 4 * (i % 16), i));
        const Addr blocks[] = {0x4000, 0x4040, 0x9000, 0x4000, 0x7fc0};
        mixed.push_back(opAt(blocks[(i / 7) % 5] + 4 * (i % 3), i));
    }
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"alternating", 0x65520f5425ef4039ull},
        {"one block", 0x444cfa134d943840ull},
        {"mixed", 0x8853181a14c500eaull},
    };
    const std::vector<trace::MicroOp> *traces[] = {&alternating,
                                                   &oneBlock, &mixed};
    for (std::size_t t = 0; t < 3; ++t) {
        const auto h = profileHash(trace::profileTrace(*traces[t], 100));
        EXPECT_EQ(h, pinned[t].second)
            << pinned[t].first << ": 0x" << std::hex << h;
    }
}
