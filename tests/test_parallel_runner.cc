/**
 * @file
 * The parallel execution layer: ParallelExecutor semantics,
 * TraceCache once-per-key generation under contention, and the
 * SuiteRunner determinism contract — a 4-job suite run must produce
 * bit-identical rows, in the same order, as the serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "core/composite.hh"
#include "sim/experiment.hh"
#include "sim/parallel_executor.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

sim::RunConfig
smallRc()
{
    sim::RunConfig rc;
    rc.maxInstrs = 8000;
    return rc;
}

sim::PredictorFactory
smallComposite()
{
    auto cfg = vp::CompositeConfig::homogeneous(512);
    cfg.am = vp::AmKind::PcAm;
    return [cfg] {
        return std::make_unique<vp::CompositePredictor>(cfg);
    };
}

} // anonymous namespace

TEST(ParallelExecutor, RunsEveryTaskExactlyOnce)
{
    sim::ParallelExecutor pool(4);
    EXPECT_EQ(pool.jobs(), 4u);

    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, BoundedQueueDoesNotDeadlock)
{
    // Far more tasks than the queue capacity (2 x jobs): submit()
    // must backpressure, not deadlock or drop.
    sim::ParallelExecutor pool(2);
    std::atomic<int> sum{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&sum] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 1000);
}

TEST(ParallelExecutor, WaitRethrowsTaskException)
{
    sim::ParallelExecutor pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([i] {
            if (i == 3)
                throw std::runtime_error("boom");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ParallelExecutor, SingleFailureMessageIsUnchanged)
{
    sim::ParallelExecutor pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    try {
        pool.wait();
        FAIL() << "wait() should have thrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(ParallelExecutor, WaitReportsSuppressedFailureCount)
{
    // Only the first exception survives; wait() must not let the
    // other failures vanish without a trace.
    sim::ParallelExecutor pool(4);
    for (int i = 0; i < 8; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    try {
        pool.wait();
        FAIL() << "wait() should have thrown";
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
        EXPECT_NE(msg.find("+7 more task failure"),
                  std::string::npos)
            << msg;
    }

    // The error state resets: the next batch waits cleanly.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelExecutor, AffinityRoutingRunsEveryTaskOnce)
{
    // Affinity is a placement hint, never a correctness knob: with
    // every task pinned to the same home deque, all of them still
    // run exactly once.
    sim::ParallelExecutor pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
        [](std::size_t) { return std::size_t(0); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, StealingSpreadsSameAffinityBacklog)
{
    // Eight slow tasks all homed on worker 0 of a 4-worker pool:
    // idle workers must steal from worker 0's deque instead of
    // letting the backlog serialize. Distinct executing-thread ids
    // are the observable.
    sim::ParallelExecutor pool(4);
    Mutex mx;
    std::vector<std::thread::id> ranOn;
    for (int i = 0; i < 8; ++i)
        pool.submit(
            [&] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(30));
                MutexLock lk(mx);
                ranOn.push_back(std::this_thread::get_id());
            },
            0);
    pool.wait();

    ASSERT_EQ(ranOn.size(), 8u);
    std::sort(ranOn.begin(), ranOn.end());
    const auto distinct =
        std::unique(ranOn.begin(), ranOn.end()) - ranOn.begin();
    EXPECT_GE(distinct, 2)
        << "same-affinity backlog never got stolen";
}

TEST(ParallelExecutor, AffinityBackpressureDoesNotDeadlock)
{
    // A same-affinity flood larger than the pool capacity: submit()
    // must backpressure while the owner and thieves drain the deque.
    sim::ParallelExecutor pool(2);
    std::atomic<int> sum{0};
    for (int i = 0; i < 500; ++i)
        pool.submit([&sum] { sum.fetch_add(1); }, 7);
    pool.wait();
    EXPECT_EQ(sum.load(), 500);
}

TEST(ParallelExecutor, HardwareJobsIsPositive)
{
    EXPECT_GE(sim::ParallelExecutor::hardwareJobs(), 1u);
}

TEST(ParallelExecutor, ParseJobsAcceptsCountsAutoAndZero)
{
    std::size_t jobs = 99;
    ASSERT_TRUE(sim::ParallelExecutor::parseJobs("3", jobs));
    EXPECT_EQ(jobs, 3u);
    ASSERT_TRUE(sim::ParallelExecutor::parseJobs("auto", jobs));
    EXPECT_EQ(jobs, sim::ParallelExecutor::hardwareJobs());
    ASSERT_TRUE(sim::ParallelExecutor::parseJobs("0", jobs));
    EXPECT_EQ(jobs, sim::ParallelExecutor::hardwareJobs());
}

TEST(ParallelExecutor, ParseJobsRejectsGarbage)
{
    std::size_t jobs = 7;
    EXPECT_FALSE(sim::ParallelExecutor::parseJobs("banana", jobs));
    EXPECT_FALSE(sim::ParallelExecutor::parseJobs("4x", jobs));
    EXPECT_FALSE(sim::ParallelExecutor::parseJobs("-2", jobs));
    EXPECT_FALSE(sim::ParallelExecutor::parseJobs("", jobs));
    EXPECT_EQ(jobs, 7u) << "failed parse must not clobber the value";
}

TEST(TraceCache, ConcurrentGetGeneratesOnce)
{
    sim::TraceCache cache;
    constexpr int kThreads = 8;

    std::vector<sim::TraceCache::TracePtr> got(kThreads);
    {
        // All workers request the same key at once; the per-key
        // once_flag must admit exactly one generator.
        sim::ParallelExecutor pool(kThreads);
        pool.parallelFor(kThreads, [&](std::size_t i) {
            got[i] = cache.get("memset_loop", 4000, 7);
        });
    }
    EXPECT_EQ(cache.generations(), 1u);
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[i].get(), got[0].get())
            << "all callers must share one trace";

    // A second wave is pure cache hits.
    sim::ParallelExecutor pool(kThreads);
    pool.parallelFor(kThreads, [&](std::size_t i) {
        got[i] = cache.get("memset_loop", 4000, 7);
    });
    EXPECT_EQ(cache.generations(), 1u);
}

TEST(TraceCache, DistinctKeysGenerateIndependently)
{
    sim::TraceCache cache;
    auto a = cache.get("memset_loop", 4000, 1);
    auto b = cache.get("memset_loop", 4000, 2); // different seed
    auto c = cache.get("memset_loop", 2000, 1); // different length
    EXPECT_EQ(cache.generations(), 3u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
}

TEST(SuiteRunner, ParallelRowsBitIdenticalToSerial)
{
    const auto workloads = trace::smokeWorkloadNames();
    const auto rc = smallRc();

    sim::SuiteRunner serial(workloads, rc, 1);
    sim::SuiteRunner parallel(workloads, rc, 4);
    const auto s = serial.run("composite", smallComposite());
    const auto p = parallel.run("composite", smallComposite());

    ASSERT_EQ(s.rows.size(), workloads.size());
    ASSERT_EQ(p.rows.size(), s.rows.size());
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
        // Same order...
        EXPECT_EQ(p.rows[i].workload, workloads[i]);
        // ...and bit-identical stats, baseline and with-VP.
        EXPECT_TRUE(p.rows[i].base == s.rows[i].base)
            << workloads[i] << " baseline diverged";
        EXPECT_TRUE(p.rows[i].withVp == s.rows[i].withVp)
            << workloads[i] << " with-VP run diverged";
        EXPECT_EQ(p.rows[i].storageBits, s.rows[i].storageBits);
    }
    EXPECT_EQ(p.storageBits, s.storageBits);
    EXPECT_DOUBLE_EQ(p.geomeanSpeedup(), s.geomeanSpeedup());
}

TEST(SuiteRunner, ParallelRunIsRepeatable)
{
    const auto workloads = trace::smokeWorkloadNames();
    sim::SuiteRunner runner(workloads, smallRc(), 4);
    const auto a = runner.run("composite", smallComposite());
    const auto b = runner.run("composite", smallComposite());
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        EXPECT_TRUE(a.rows[i].withVp == b.rows[i].withVp);
}

TEST(SuiteRunner, ObserverSeesEveryRun)
{
    sim::SuiteRunner runner({"memset_loop"}, smallRc(), 2);
    int seen = 0;
    runner.setObserver([&](const sim::SuiteResult &r) {
        ++seen;
        EXPECT_EQ(r.rows.size(), 1u);
    });
    runner.run("a", smallComposite());
    runner.run("b", smallComposite());
    EXPECT_EQ(seen, 2);
}

TEST(SuiteRunner, JobsZeroMeansHardware)
{
    sim::SuiteRunner runner({"memset_loop"}, smallRc(), 0);
    EXPECT_EQ(runner.jobs(), sim::ParallelExecutor::hardwareJobs());
}

TEST(SuiteRunner, TimingFieldsArePopulated)
{
    sim::SuiteRunner runner({"memset_loop"}, smallRc(), 2);
    const auto res = runner.run("composite", smallComposite());
    EXPECT_GT(res.wallSeconds, 0.0);
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_GT(res.rows[0].vpSeconds, 0.0);
}
