/**
 * @file
 * Interval profiler (trace/interval_profile.hh): interval cutting,
 * fixed-point normalization, snapshot/resume bit-identity, and
 * profile determinism.
 */

#include <gtest/gtest.h>

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
