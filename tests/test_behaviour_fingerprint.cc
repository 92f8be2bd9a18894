/**
 * @file
 * Behavioural fingerprint: pins what the simulator computes.
 *
 * Every (trace x core configuration x predictor) cell below is run at
 * smoke scale and reduced to one FNV-1a hash over all of its
 * forEachCounter() values. The cells cover the 28 kernels plus seeded
 * qa::genTrace traces, the default core plus seeded qa::genCoreConfig
 * cores (small queues, one LS lane, short front ends: the scheduler's
 * edge cases), no value prediction, each component alone and the
 * composite with every optimisation on, EVES, plus warmup-restored
 * runs (through the binary snapshot codec), sampled runs and a
 * warmup suite run through sim::SuiteRunner and the process-wide
 * memos. The lines must equal tests/data/behaviour_fingerprint.txt
 * exactly, and the suite lines must not move with --jobs 4 or when
 * the memos are served from a cold or warm disk store.
 *
 * A refactor that claims to be counter-exact leaves the file alone.
 * A change that alters model behaviour on purpose regenerates it with
 * tools/update_fingerprint.sh and says why. The test always writes
 * what it computed to behaviour_fingerprint.actual.txt in its working
 * directory, which is what that script copies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "common/mmap_file.hh"
#include "core/composite.hh"
#include "core/eves.hh"
#include "pipeline/core.hh"
#include "pipeline/snapshot_io.hh"
#include "qa/generators.hh"
#include "sim/checkpoint_store.hh"
#include "sim/experiment.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

constexpr std::size_t kTraceOps = 5000;
constexpr std::size_t kWarmupOps = 1500;
constexpr std::uint64_t kGenTraceSeeds[] = {11, 12, 13, 14, 15, 16};
constexpr std::uint64_t kGenCoreSeeds[] = {101, 102, 103, 104};

std::uint64_t
fingerprint(const pipe::SimStats &s)
{
    std::uint64_t h = kFnvOffsetBasis;
    pipe::forEachCounter(s, [&](std::string_view, std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= kFnvPrime;
        }
    });
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct NamedTrace
{
    std::string name;
    std::vector<trace::MicroOp> ops;
};

std::vector<NamedTrace>
traces()
{
    std::vector<NamedTrace> out;
    for (const auto &w : trace::allWorkloadNames())
        out.push_back({w, trace::generateWorkload(w, kTraceOps, 1)});
    for (std::uint64_t seed : kGenTraceSeeds) {
        qa::Gen g(seed);
        qa::TraceGenConfig tcfg;
        tcfg.minOps = kTraceOps;
        tcfg.maxOps = kTraceOps;
        out.push_back(
            {"gen" + std::to_string(seed), qa::genTrace(g, tcfg)});
    }
    return out;
}

std::vector<std::pair<std::string, pipe::CoreConfig>>
coreConfigs()
{
    std::vector<std::pair<std::string, pipe::CoreConfig>> out;
    out.emplace_back("default", pipe::CoreConfig{});
    for (std::uint64_t seed : kGenCoreSeeds) {
        qa::Gen g(seed);
        out.emplace_back("core" + std::to_string(seed),
                         qa::genCoreConfig(g));
    }
    return out;
}

/** The composite with PC-AM, smart training and table fusion, its
 *  epoch scaled down so the filters act within a smoke-scale run. */
std::unique_ptr<pipe::LoadValuePredictor>
bestComposite()
{
    auto c = vp::CompositeConfig::bestOf(4096);
    c.epochInstrs = 500;
    return std::make_unique<vp::CompositePredictor>(c);
}

/** nullptr = the no-VP baseline. */
std::unique_ptr<pipe::LoadValuePredictor>
makePredictor(const std::string &name)
{
    if (name == "lvp")
        return vp::makeSinglePredictor(pipe::ComponentId::LVP, 1024);
    if (name == "sap")
        return vp::makeSinglePredictor(pipe::ComponentId::SAP, 1024);
    if (name == "cvp")
        return vp::makeSinglePredictor(pipe::ComponentId::CVP, 1024);
    if (name == "cap")
        return vp::makeSinglePredictor(pipe::ComponentId::CAP, 1024);
    if (name == "composite")
        return bestComposite();
    return nullptr;
}

const char *const kPredictors[] = {"novp", "lvp",  "sap",
                                   "cvp",  "cap", "composite"};

/** Warm a core (VP off), push its snapshot through the binary codec,
 *  restore a fresh core from the decoded bytes and measure it. */
pipe::SimStats
warmRestoredRun(const pipe::CoreConfig &cfg,
                const std::vector<trace::MicroOp> &ops)
{
    pipe::Core warm(cfg, ops, nullptr);
    warm.warmup(kWarmupOps);
    pipe::Core::Snapshot snap;
    warm.saveState(snap);
    BinWriter w;
    pipe::serializeSnapshot(w, snap);
    const auto bytes = w.take();
    BinReader r(bytes);
    pipe::Core::Snapshot decoded;
    pipe::deserializeSnapshot(r, decoded);
    EXPECT_TRUE(r.ok() && r.atEnd());

    auto vp = bestComposite();
    pipe::Core core(cfg, ops, vp.get());
    core.restoreState(decoded);
    return core.run();
}

std::string
line(const std::string &t, const std::string &c, const std::string &p,
     const pipe::SimStats &s)
{
    return t + " " + c + " " + p + " " + hex(fingerprint(s));
}

/**
 * The 28 kernels behind a warmup region, run through sim::SuiteRunner
 * with the memos cleared first, so every cell goes through
 * BaselineCache, CheckpointCache and (when enabled) the disk store.
 */
std::vector<std::string>
suiteLines(std::size_t jobs)
{
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::RunConfig rc;
    rc.maxInstrs = kTraceOps;
    rc.warmupInstrs = kWarmupOps;
    sim::SuiteRunner runner(trace::allWorkloadNames(), rc, jobs);
    const auto res = runner.run("composite", bestComposite);
    std::vector<std::string> lines;
    for (const auto &row : res.rows) {
        lines.push_back(line(row.workload, "default", "novp+suite",
                             row.base));
        lines.push_back(line(row.workload, "default",
                             "composite+suite", row.withVp));
    }
    return lines;
}

std::vector<std::string>
computeFingerprint()
{
    std::vector<std::string> lines;
    auto emit = [&](const std::string &t, const std::string &c,
                    const std::string &p, const pipe::SimStats &s) {
        lines.push_back(line(t, c, p, s));
    };
    const auto cores = coreConfigs();
    const auto allTraces = traces();
    for (const auto &t : allTraces) {
        for (const auto &[cname, cfg] : cores) {
            for (const char *p : kPredictors) {
                auto vp = makePredictor(p);
                pipe::Core core(cfg, t.ops, vp.get());
                emit(t.name, cname, p, core.run());
            }
            emit(t.name, cname, "composite+warmup",
                 warmRestoredRun(cfg, t.ops));
        }
    }
    // Sampled runs go through the sim layer's plan, interval
    // checkpoints and extrapolation. runSampledWorkload restores all
    // k = 3 representatives into one Core. These rows pin the results
    // of a fresh Core per representative, so they prove the reuse
    // exact.
    for (const auto &w : trace::allWorkloadNames()) {
        sim::RunConfig rc;
        rc.maxInstrs = 6000;
        rc.sampleK = 3;
        rc.sampleIntervalLen = 1000;
        auto vp = bestComposite();
        emit(w, "default", "composite+sampled",
             sim::runSampledWorkload(w, vp.get(), rc).stats);
    }
    for (const auto &t : allTraces) {
        vp::EvesPredictor eves;
        pipe::Core core(pipe::CoreConfig{}, t.ops, &eves);
        emit(t.name, "default", "eves", core.run());
    }
    sim::CheckpointStore::instance().configure("", 0);
    for (auto &l : suiteLines(1))
        lines.push_back(std::move(l));
    return lines;
}

/** Remove @p dir and the entry files directly inside it. */
void
wipeDir(const std::string &dir)
{
    for (const DirEntry &e : listDir(dir))
        removeFile(dir + "/" + e.name);
    removeFile(dir);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            out.push_back(line);
    return out;
}

} // anonymous namespace

TEST(BehaviourFingerprint, MatchesCommittedFile)
{
    const auto actual = computeFingerprint();
    {
        std::ofstream out("behaviour_fingerprint.actual.txt");
        out << "# trace core predictor fnv1a(forEachCounter values)\n";
        for (const auto &l : actual)
            out << l << "\n";
    }
    const auto expected = readLines(std::string(LVPSIM_TEST_DATA_DIR) +
                                    "/behaviour_fingerprint.txt");
    ASSERT_FALSE(expected.empty())
        << "missing tests/data/behaviour_fingerprint.txt; run "
           "tools/update_fingerprint.sh";
    ASSERT_EQ(actual.size(), expected.size())
        << "cell count changed; regenerate with "
           "tools/update_fingerprint.sh if intended";
    std::ostringstream diff;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (actual[i] == expected[i])
            continue;
        if (++mismatches <= 20)
            diff << "  expected " << expected[i] << "\n  actual   "
                 << actual[i] << "\n";
    }
    EXPECT_EQ(mismatches, 0u)
        << mismatches << " of " << actual.size()
        << " cells changed behaviour:\n"
        << diff.str();

    // The suite leg closes the file; the same lines must come back
    // on four workers and from a cold, then a warm, disk store.
    const std::size_t nSuite = 2 * trace::allWorkloadNames().size();
    const std::vector<std::string> serial(actual.end() - long(nSuite),
                                          actual.end());
    EXPECT_EQ(suiteLines(4), serial) << "--jobs 4 moved the suite";

    const std::string dir = "/tmp/lvpsim_fingerprint_store";
    wipeDir(dir);
    auto &store = sim::CheckpointStore::instance();
    store.configure(dir, 0);
    ASSERT_TRUE(store.enabled());
    store.resetCounters();
    EXPECT_EQ(suiteLines(1), serial) << "cold store moved the suite";
    EXPECT_GT(store.misses(), 0u);
    store.resetCounters();
    EXPECT_EQ(suiteLines(1), serial) << "warm store moved the suite";
    EXPECT_EQ(store.misses(), 0u) << "warm rerun missed the store";
    EXPECT_GT(store.hits(), 0u);
    store.configure("", 0);
    wipeDir(dir);
}
