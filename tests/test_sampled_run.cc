/**
 * @file
 * Sampled simulation driver (sim/sampled.hh): extrapolation accuracy
 * against full runs, bit-exact determinism, warm-cache reuse of plans
 * and interval checkpoints, and content-hash keying of interval
 * checkpoints for rewritten trace files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/composite.hh"
#include "core/lvp_interface.hh"
#include "sim/experiment.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

sim::RunConfig
sampledRun(std::size_t instrs, std::size_t k, std::size_t len)
{
    sim::RunConfig rc;
    rc.maxInstrs = instrs;
    rc.sampleK = k;
    rc.sampleIntervalLen = len;
    return rc;
}

std::unique_ptr<pipe::LoadValuePredictor>
makeVp()
{
    return std::make_unique<vp::CompositePredictor>(
        vp::CompositeConfig::homogeneous(512));
}

} // anonymous namespace

TEST(SampledRun, ExtrapolationTracksFullRunWithinBound)
{
    const char *workload = "pointer_chase";
    auto rc = sampledRun(200000, 6, 20000);

    auto vpS = makeVp();
    const auto sampled =
        sim::runSampledWorkload(workload, vpS.get(), rc);
    ASSERT_GT(sampled.sampleK, 0u);
    ASSERT_GT(sampled.sampleError, 0.0);

    auto full = rc;
    full.sampleK = 0;
    auto vpF = makeVp();
    const auto ref = sim::runWorkload(workload, vpF.get(), full);

    const double refIpc = ref.ipc();
    ASSERT_GT(refIpc, 0.0);
    const double relIpcErr =
        std::abs(sampled.stats.ipc() - refIpc) / refIpc;
    EXPECT_LE(relIpcErr, sampled.sampleError)
        << "sampled IPC " << sampled.stats.ipc() << " vs full "
        << refIpc;
    EXPECT_LE(std::abs(sampled.stats.accuracy() - ref.accuracy()),
              sampled.sampleError);
    // The extrapolated instruction count reconstructs the trace size.
    const double instErr =
        std::abs(double(sampled.stats.instructions) -
                 double(ref.instructions)) /
        double(ref.instructions);
    EXPECT_LE(instErr, 0.05);
}

TEST(SampledRun, BitIdenticalAcrossRepeats)
{
    const char *workload = "hash_probe";
    const auto rc = sampledRun(100000, 4, 10000);

    auto vp1 = makeVp();
    const auto a = sim::runSampledWorkload(workload, vp1.get(), rc);
    auto vp2 = makeVp();
    const auto b = sim::runSampledWorkload(workload, vp2.get(), rc);

    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.sampleError, b.sampleError);
    EXPECT_EQ(a.sampleK, b.sampleK);
}

TEST(SampledRun, WarmRerunHitsPlanAndCheckpointCaches)
{
    const char *workload = "stream_sum";
    const auto rc = sampledRun(120000, 4, 15000);

    auto vp1 = makeVp();
    (void)sim::runSampledWorkload(workload, vp1.get(), rc);

    const auto plans0 = sim::PlanCache::instance().generations();
    const auto ckpts0 =
        sim::CheckpointCache::instance().generations();
    auto vp2 = makeVp();
    (void)sim::runSampledWorkload(workload, vp2.get(), rc);
    EXPECT_EQ(sim::PlanCache::instance().generations(), plans0)
        << "warm rerun rebuilt the sample plan";
    EXPECT_EQ(sim::CheckpointCache::instance().generations(), ckpts0)
        << "warm rerun rebuilt interval checkpoints";
}

TEST(SampledRun, ShortTraceDegeneratesToSingleInterval)
{
    // Trace shorter than one interval: the plan has one all-covering
    // representative and the "sampled" run is exact.
    const auto rc = sampledRun(5000, 4, 100000);
    auto vpS = makeVp();
    const auto sampled =
        sim::runSampledWorkload("memset_loop", vpS.get(), rc);
    EXPECT_EQ(sampled.sampleK, 1u);

    auto full = rc;
    full.sampleK = 0;
    auto vpF = makeVp();
    const auto ref = sim::runWorkload("memset_loop", vpF.get(), full);
    EXPECT_TRUE(sampled.stats == ref);
}

TEST(SampledRun, SuiteRunnerPropagatesSampleMetadata)
{
    const auto rc = sampledRun(60000, 3, 10000);
    sim::SuiteRunner runner({"pointer_chase", "stream_sum"}, rc, 2);
    const auto res = runner.run("sampled", [] { return makeVp(); });
    ASSERT_EQ(res.rows.size(), 2u);
    for (const auto &row : res.rows) {
        EXPECT_TRUE(row.sampled);
        EXPECT_GT(row.sampleK, 0u);
        EXPECT_EQ(row.intervalLength, 10000u);
        EXPECT_GT(row.sampleError, 0.0);
    }
}

TEST(SampledRun, RewrittenTraceFileCannotAliasIntervalCheckpoints)
{
    // Record two different traces to the SAME path. The caches key
    // file-backed traces on FNV-1a content identity, so rewriting the
    // file must produce fresh interval checkpoints, not stale hits.
    const std::string path =
        "/tmp/lvpsim_test_sampled_rewrite.lvpt";
    const std::string spec = "lvpt:" + path;
    const auto rc = sampledRun(30000, 3, 5000);

    const auto first =
        trace::generateWorkload("stream_sum", 30000, 1);
    ASSERT_TRUE(trace::saveTraceFile(path, first));
    auto vp1 = makeVp();
    const auto before =
        sim::runSampledWorkload(spec, vp1.get(), rc);

    const auto rewritten =
        trace::generateWorkload("pointer_chase", 30000, 1);
    ASSERT_TRUE(trace::saveTraceFile(path, rewritten));
    // TraceCache keys on the spec string (it would hand back the old
    // bytes); the checkpoint/plan caches must NOT need this clear —
    // their keys embed the content hash.
    sim::TraceCache::instance().clear();

    const auto ckpts0 =
        sim::CheckpointCache::instance().generations();
    const auto plans0 = sim::PlanCache::instance().generations();
    auto vp2 = makeVp();
    const auto after = sim::runSampledWorkload(spec, vp2.get(), rc);
    EXPECT_GT(sim::CheckpointCache::instance().generations(), ckpts0)
        << "rewritten trace aliased stale interval checkpoints";
    EXPECT_GT(sim::PlanCache::instance().generations(), plans0)
        << "rewritten trace aliased a stale sample plan";
    EXPECT_FALSE(before.stats == after.stats)
        << "two different traces reported identical stats";
    std::remove(path.c_str());
}
