/**
 * @file
 * Warmup checkpointing and the sweep-engine memo caches
 * (sim::CheckpointCache / sim::BaselineCache): build-once semantics
 * under concurrency, restore bit-identity against inline warmup,
 * cores built from a snapshot matching a fresh core restored from it,
 * and the warmup=0 fast path staying byte-for-byte the
 * pre-checkpoint engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "core/composite.hh"
#include "core/lvp_interface.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

std::vector<std::pair<std::string, std::uint64_t>>
flat(const pipe::SimStats &s)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            out.emplace_back(std::string(name), v);
        });
    return out;
}

sim::RunConfig
shortRun(std::size_t warmup)
{
    sim::RunConfig rc;
    rc.maxInstrs = 3000;
    rc.warmupInstrs = warmup;
    return rc;
}

const char *kWorkload = "stream_sum";

} // anonymous namespace

TEST(RunConfigKey, DistinguishesEveryRelevantKnob)
{
    const auto base = shortRun(2000);
    auto a = base;
    a.maxInstrs += 1;
    auto b = base;
    b.warmupInstrs += 1;
    auto c = base;
    c.traceSeed += 1;
    auto d = base;
    d.core.robSize += 1;
    auto e = base;
    e.core.memory.l1d.sizeBytes *= 2;
    auto f = base;
    f.core.tage.numTables += 1;
    const std::string key = sim::runConfigKey(base);
    for (const auto &other : {a, b, c, d, e, f})
        EXPECT_NE(key, sim::runConfigKey(other));
    EXPECT_EQ(key, sim::runConfigKey(base));
}

TEST(CheckpointCache, ConcurrentSameKeyBuildsOnce)
{
    // Two inputs: the post-warmup checkpoint of one run key, and the
    // interval list of a sampled run key. Either way, racing threads
    // share one build and get the identical entries.
    auto &cache = sim::CheckpointCache::instance();
    cache.clear();
    constexpr int kThreads = 8;
    const auto race = [&](const auto &fetch) {
        std::vector<std::vector<sim::CheckpointCache::CheckpointPtr>>
            got(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] { got[t] = fetch(); });
        for (auto &th : threads)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(got[t], got[0]) << "thread " << t
                                      << " got different entries";
        return got[0];
    };

    const auto rc = shortRun(4000);
    std::uint64_t gen0 = cache.generations();
    const auto warm = race([&] {
        return std::vector{cache.get(kWorkload, rc)};
    });
    EXPECT_EQ(cache.generations() - gen0, 1u)
        << "same-key checkpoint simulated more than once";
    ASSERT_NE(warm[0], nullptr);
    EXPECT_EQ(warm[0]->warmupInstrs, rc.warmupInstrs);

    sim::RunConfig sampled;
    sampled.maxInstrs = 6000;
    sampled.sampleK = 3;
    sampled.sampleIntervalLen = 1000;
    const std::vector<std::uint64_t> idx{0, 1000, 4000};
    gen0 = cache.generations();
    const std::uint64_t ff0 = cache.ffInstructions();
    const auto list = race([&] {
        return cache.getIntervals(kWorkload, sampled, idx);
    });
    EXPECT_EQ(cache.generations() - gen0, 1u)
        << "same-key interval list simulated more than once";
    EXPECT_EQ(cache.ffInstructions() - ff0, idx.back())
        << "the list build fast-forwarded more than one pass";
    ASSERT_EQ(list.size(), idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        ASSERT_NE(list[i], nullptr);
        EXPECT_EQ(list[i]->warmupInstrs, idx[i]);
    }
}

TEST(CheckpointCache, DistinctKeysBuildSeparately)
{
    auto &cache = sim::CheckpointCache::instance();
    cache.clear();
    const std::uint64_t gen0 = cache.generations();
    const auto a = cache.get(kWorkload, shortRun(4000));
    const auto b = cache.get(kWorkload, shortRun(5000));
    const auto c = cache.get("hash_probe", shortRun(4000));
    EXPECT_EQ(cache.generations() - gen0, 3u);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    // Hits after the builds return the identical entries.
    EXPECT_EQ(cache.get(kWorkload, shortRun(4000)), a);
    EXPECT_EQ(cache.generations() - gen0, 3u);
}

TEST(BaselineCache, MemoizesPerKey)
{
    auto &cache = sim::BaselineCache::instance();
    cache.clear();
    const auto rc = shortRun(0);
    const std::uint64_t gen0 = cache.generations();
    const auto a = cache.get(kWorkload, rc);
    const auto b = cache.get(kWorkload, rc);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cache.generations() - gen0, 1u);

    auto other = rc;
    other.maxInstrs += 500;
    const auto c = cache.get(kWorkload, other);
    EXPECT_NE(a, c);
    EXPECT_EQ(cache.generations() - gen0, 2u);

    // The memoized baseline is the plain no-VP simulation.
    pipe::NullPredictor none;
    EXPECT_EQ(flat(a->stats),
              flat(sim::runWorkload(kWorkload, &none, rc)));
}

TEST(Checkpoint, ZeroWarmupMatchesDirectRun)
{
    const auto rc = shortRun(0);
    auto ops = sim::TraceCache::instance().get(
        kWorkload, rc.maxInstrs, rc.traceSeed);
    auto direct_vp = vp::makeSinglePredictor(pipe::ComponentId::LVP,
                                             256);
    const auto direct = sim::runTrace(*ops, direct_vp.get(), rc);
    auto cached_vp = vp::makeSinglePredictor(pipe::ComponentId::LVP,
                                             256);
    const auto cached = sim::runWorkload(kWorkload, cached_vp.get(),
                                         rc);
    EXPECT_EQ(flat(direct), flat(cached));
}

TEST(Checkpoint, RestoreMatchesInlineWarmup)
{
    const auto rc = shortRun(6000);
    auto ops = sim::TraceCache::instance().get(
        kWorkload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);

    // Reference: one core warms up and measures in a single life.
    auto inline_vp = vp::makeSinglePredictor(pipe::ComponentId::SAP,
                                             512);
    const auto inline_stats =
        sim::runTrace(*ops, inline_vp.get(), rc);

    // Under test: restore from the process-wide checkpoint.
    sim::CheckpointCache::instance().clear();
    auto restored_vp = vp::makeSinglePredictor(pipe::ComponentId::SAP,
                                               512);
    const auto restored =
        sim::runWorkload(kWorkload, restored_vp.get(), rc);

    EXPECT_EQ(flat(inline_stats), flat(restored));
}

namespace
{

/** Hash of a core's commit stream, with the number of commits. */
struct CommitStream
{
    std::uint64_t hash = kFnvOffsetBasis;
    std::uint64_t commits = 0;

    void
    attach(pipe::Core &core)
    {
        core.setCommitHook([this](const pipe::CommitRecord &r) {
            const std::uint64_t words[] = {
                r.traceIdx, r.pc, std::uint64_t(r.cls), r.effAddr,
                r.memSize, r.value};
            hash = fnv1a64(words, sizeof words, hash);
            ++commits;
        });
    }

    bool operator==(const CommitStream &) const = default;
};

} // anonymous namespace

TEST(Checkpoint, CoreBuiltFromSnapshotMatchesRestore)
{
    const auto rc = shortRun(6000);
    for (const char *w : {"stream_sum", "pointer_chase", "interp_dispatch"}) {
        auto ops = sim::TraceCache::instance().get(
            w, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
        const auto ck = sim::CheckpointCache::instance().get(w, rc);

        // Reference: a fresh core, then restoreState.
        vp::CompositePredictor refVp(vp::CompositeConfig::bestOf(1024));
        pipe::Core ref(rc.core, *ops, &refVp);
        CommitStream refStream;
        refStream.attach(ref);
        ref.restoreState(ck->core);
        const auto refStats = ref.run();

        // Under test, twice: the first core's writes must not reach
        // the snapshot it shares chunks with.
        for (int pass = 0; pass < 2; ++pass) {
            vp::CompositePredictor vp(vp::CompositeConfig::bestOf(1024));
            pipe::Core built(rc.core, *ops, &vp, ck->core);
            CommitStream stream;
            stream.attach(built);
            EXPECT_EQ(flat(built.run()), flat(refStats))
                << w << " pass " << pass;
            EXPECT_TRUE(stream == refStream) << w << " pass " << pass;
            EXPECT_GT(stream.commits, 0u);
        }
    }
}

TEST(Checkpoint, SampledCoreBuiltFromFirstSnapshotMatchesRestore)
{
    // The sampled driver's pattern with k = 3 representatives: one
    // core for the cell, built from the first checkpoint and restored
    // for each later one, against a fresh core restored for all three.
    sim::RunConfig rc;
    rc.maxInstrs = 12000;
    rc.sampleK = 3;
    rc.sampleIntervalLen = 1000;
    const std::vector<std::uint64_t> idx = {2000, 5000, 9000};
    for (const char *w : {"hash_probe", "call_tree"}) {
        auto ops =
            sim::TraceCache::instance().get(w, rc.maxInstrs, rc.traceSeed);
        const auto ckpts =
            sim::CheckpointCache::instance().getIntervals(w, rc, idx);
        ASSERT_EQ(ckpts.size(), idx.size());

        auto segments = [&](bool buildFromFirst) {
            vp::CompositePredictor vp(vp::CompositeConfig::bestOf(1024));
            pipe::Core core = buildFromFirst
                                  ? pipe::Core(rc.core, *ops, &vp,
                                               ckpts[0]->core)
                                  : pipe::Core(rc.core, *ops, &vp);
            CommitStream stream;
            stream.attach(core);
            std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
                out;
            for (std::size_t r = 0; r < ckpts.size(); ++r) {
                if (r > 0 || !buildFromFirst)
                    core.restoreState(ckpts[r]->core);
                out.push_back(flat(core.run(1500)));
                core.drain();
            }
            return std::make_pair(out, stream);
        };
        const auto ref = segments(false);
        const auto built = segments(true);
        EXPECT_EQ(built.first, ref.first) << w;
        EXPECT_TRUE(built.second == ref.second) << w;
        EXPECT_GT(built.second.commits, 0u) << w;
    }
}
