/**
 * @file
 * lvpbench: the measuring half of the repository benchmark (README.md
 * in this directory). run.py builds this binary and calls it once per
 * run:
 *
 *   lvpbench --workload detailed_suite|warm_store_sweep|sampled_suite
 *            --seed N --seconds S --trace 0|1 --scratch DIR
 *
 * A run synthesizes the workload's traces from the seed (set-up),
 * then repeats the workload's measured pass until S seconds have
 * elapsed. Every cell — one (kernel, configuration) simulation — is
 * hashed over a fixed list of SimStats counters; every later pass and
 * every traced pass must reproduce pass 0's hashes. A canary also
 * simulates the first kernel's cells at the default seed, so run.py
 * can compare them with the pinned hashes whatever the seed.
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced passes and then runs the layer probes
 * (layers.hh), reporting the per-layer metrics. The result is one
 * JSON object on the last line of standard output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "core/composite.hh"
#include "layers.hh"
#include "sim/checkpoint_store.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/parallel_executor.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose cell hashes are pinned (pinned_hashes.json). */
constexpr std::uint64_t kDefaultSeed = 1;
/** Set-up repetitions in an untraced run; setup_s is their median.
 *  The warm sweep's set-up fills a store and takes seconds, so it
 *  repeats less. */
constexpr int kSetupReps = 7;
constexpr int kWarmSetupReps = 3;
/** Measured passes a run makes at least, whatever --seconds says. */
constexpr int kMinPasses = 3;

// ---- workload parameters ----
constexpr std::size_t kDetailedInstrs = 100000;
constexpr std::size_t kSweepInstrs = 20000;
constexpr std::size_t kSweepWarmup = 16 * kSweepInstrs;
constexpr std::size_t kSweepJobs = 2;
constexpr std::size_t kSampledInstrs = 500000;
constexpr std::size_t kSampleK = 8;
// Short intervals keep the detailed share of a sampled pass small:
// the k representatives then run 2 * 8 * 1000 detailed instructions
// per cell against 500k profiled and fast-forwarded (README.md).
constexpr std::size_t kSampleInterval = 1000;

enum class Kind { Detailed, WarmStore, Sampled };

struct Config
{
    std::string name;
    sim::PredictorFactory make;
};

struct Workload
{
    Kind kind = Kind::Detailed;
    std::vector<std::string> kernels;
    sim::RunConfig rc;
    std::size_t traceLen = 0;
    std::size_t jobs = 1;
    /** The value-predicting configurations; no-VP is implicit. */
    std::vector<Config> configs;
};

sim::PredictorFactory
bestComposite(std::size_t instrs)
{
    auto cfg = vp::CompositeConfig::bestOf(1024);
    // Scale the paper's 1M-instruction epochs to the run length.
    cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
    return [cfg] {
        return std::make_unique<vp::CompositePredictor>(cfg);
    };
}

bool
makeWorkload(const std::string &name, Workload &wl)
{
    wl.kernels = trace::allWorkloadNames();
    if (name == "detailed_suite") {
        wl.kind = Kind::Detailed;
        wl.rc.maxInstrs = kDetailedInstrs;
        wl.traceLen = kDetailedInstrs;
        wl.configs = {{"composite", bestComposite(kDetailedInstrs)}};
    } else if (name == "warm_store_sweep") {
        wl.kind = Kind::WarmStore;
        wl.rc.maxInstrs = kSweepInstrs;
        wl.rc.warmupInstrs = kSweepWarmup;
        wl.traceLen = kSweepInstrs + kSweepWarmup;
        wl.jobs = kSweepJobs;
        const pipe::ComponentId comps[] = {
            pipe::ComponentId::LVP, pipe::ComponentId::SAP,
            pipe::ComponentId::CVP, pipe::ComponentId::CAP};
        for (pipe::ComponentId id : comps) {
            for (std::size_t n : {256, 1024, 4096}) {
                wl.configs.push_back(
                    {std::string(pipe::componentName(id)) + "-" +
                         std::to_string(n),
                     [id, n] { return vp::makeSinglePredictor(id, n); }});
            }
        }
    } else if (name == "sampled_suite") {
        wl.kind = Kind::Sampled;
        wl.rc.maxInstrs = kSampledInstrs;
        wl.rc.sampleK = kSampleK;
        wl.rc.sampleIntervalLen = kSampleInterval;
        wl.traceLen = kSampledInstrs;
        wl.configs = {{"composite", bestComposite(kSampledInstrs)}};
    } else {
        return false;
    }
    return true;
}

/**
 * FNV-1a over a fixed, named list of counters. New SimStats counters
 * do not change it; a change to any of these does.
 */
std::uint64_t
hashStats(const pipe::SimStats &s)
{
    const std::uint64_t fields[] = {
        s.cycles,          s.instructions,       s.eligibleLoads,
        s.predictionsUsed, s.predictionsCorrect, s.vpFlushes,
        s.memOrderFlushes};
    return fnv1a64(fields, sizeof fields);
}

std::string
hex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[i] = digits[v & 0xf];
    return s;
}

/** One (kernel, configuration) simulation, over all passes. */
struct Cell
{
    std::string name;
    bool vp = false;
    /** Timed cells count in kips and the cell-time metrics. The
     *  warm sweep's baselines are read from the store, not run. */
    bool timed = true;
    std::uint64_t instrs = 0; ///< covered by the result, per pass
    std::vector<double> seconds;
    bool haveRef = false;
    std::uint64_t hash = 0;
    pipe::SimStats stats; ///< the first successful result
    double sampleError = 0.0;
};

/** Outcome checks shared by every pass. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    fail(Cell &c, const std::string &why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(c.name + ": " + why);
    }

    void
    record(Cell &c, const pipe::SimStats &s, double seconds)
    {
        if (c.timed)
            ++attempted;
        c.seconds.push_back(seconds);
        const std::uint64_t h = hashStats(s);
        if (!c.haveRef) {
            c.haveRef = true;
            c.hash = h;
            c.stats = s;
        } else if (h != c.hash) {
            fail(c, "result hash " + hex(h) + " differs from " +
                        hex(c.hash));
        }
    }
};

Cell
makeCell(std::string name, bool vp, bool timed)
{
    Cell c;
    c.name = std::move(name);
    c.vp = vp;
    c.timed = timed;
    return c;
}

/** The workload's cells in a fixed order (see runPass). */
std::vector<Cell>
makeCells(const Workload &wl, const std::vector<std::string> &kernels)
{
    std::vector<Cell> cells;
    if (wl.kind == Kind::WarmStore) {
        for (const auto &c : wl.configs)
            for (const auto &k : kernels)
                cells.push_back(makeCell(k + "/" + c.name, true, true));
        for (const auto &k : kernels)
            cells.push_back(makeCell(k + "/none", false, false));
        return cells;
    }
    for (const auto &k : kernels) {
        cells.push_back(makeCell(k + "/none", false, true));
        cells.push_back(makeCell(k + "/" + wl.configs[0].name, true, true));
    }
    return cells;
}

sim::PredictorFactory
maybeTimed(const sim::PredictorFactory &make, lvpbench::VpLedger *ledger)
{
    if (!ledger)
        return make;
    return [make, ledger] {
        return std::make_unique<lvpbench::TimedPredictor>(make(),
                                                          *ledger);
    };
}

/**
 * One measured pass over @p kernels with run config @p rc; returns its
 * wall time. A non-null @p ledger wraps every value predictor in a
 * TimedPredictor.
 */
double
runPass(const Workload &wl, const std::vector<std::string> &kernels,
        const sim::RunConfig &rc, std::vector<Cell> &cells,
        Checker &chk, lvpbench::VpLedger *ledger)
{
    const auto wall0 = Clock::now();
    const auto make = maybeTimed(wl.configs[0].make, ledger);
    if (wl.kind == Kind::Detailed) {
        auto &tc = sim::TraceCache::instance();
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const auto ops = tc.get(kernels[i], wl.traceLen, rc.traceSeed);
            for (int v = 0; v < 2; ++v) {
                Cell &c = cells[2 * i + v];
                try {
                    auto pred = v ? make() : nullptr;
                    const auto t0 = Clock::now();
                    const auto s = sim::runTrace(*ops, pred.get(), rc);
                    chk.record(c, s, secondsSince(t0));
                    c.instrs = s.instructions;
                } catch (const std::exception &e) {
                    chk.fail(c, e.what());
                }
            }
        }
    } else if (wl.kind == Kind::Sampled) {
        // Cold memos every pass: each kernel's first cell profiles,
        // clusters and fast-forwards; its second reuses the plan and
        // the interval checkpoints, as a sweep would.
        sim::PlanCache::instance().clear();
        sim::CheckpointCache::instance().clear();
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            for (int v = 0; v < 2; ++v) {
                Cell &c = cells[2 * i + v];
                try {
                    pipe::NullPredictor none;
                    auto pred = v ? make() : nullptr;
                    const auto t0 = Clock::now();
                    const auto r = sim::runSampledWorkload(
                        kernels[i], v ? pred.get() : &none, rc);
                    chk.record(c, r.stats, secondsSince(t0));
                    c.instrs = wl.traceLen;
                    c.sampleError = r.sampleError;
                } catch (const std::exception &e) {
                    chk.fail(c, e.what());
                }
            }
        }
    } else {
        const std::size_t K = kernels.size();
        sim::SuiteRunner runner(kernels, rc, wl.jobs);
        for (std::size_t ci = 0; ci < wl.configs.size(); ++ci) {
            // Each configuration starts from empty memos and reads
            // its checkpoints and baselines back from the store, as a
            // sweep of one CLI process per configuration does.
            sim::CheckpointCache::instance().clear();
            sim::BaselineCache::instance().clear();
            try {
                const auto res = runner.run(
                    wl.configs[ci].name,
                    maybeTimed(wl.configs[ci].make, ledger));
                for (std::size_t k = 0; k < K; ++k) {
                    const auto &row = res.rows[k];
                    Cell &c = cells[ci * K + k];
                    chk.record(c, row.withVp, row.vpSeconds);
                    c.instrs = row.withVp.instructions;
                    if (ci == 0)
                        chk.record(cells[wl.configs.size() * K + k],
                                   row.base, 0.0);
                }
            } catch (const std::exception &e) {
                for (std::size_t k = 0; k < K; ++k)
                    chk.fail(cells[ci * K + k], e.what());
            }
        }
    }
    return secondsSince(wall0);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size() / 2;
    return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/**
 * Synthesize every kernel's trace from cold (and, for the warm sweep,
 * fill the store: cold warmup checkpoint and baseline builds plus
 * their publication). Returns {total seconds, synthesis seconds}.
 */
std::pair<double, double>
setUp(const Workload &wl, const sim::RunConfig &rc)
{
    sim::TraceCache::instance().clear();
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::PlanCache::instance().clear();
    sim::ParallelExecutor pool(wl.jobs);
    const auto t0 = Clock::now();
    pool.parallelFor(wl.kernels.size(), [&](std::size_t i) {
        sim::TraceCache::instance().get(wl.kernels[i], wl.traceLen,
                                        rc.traceSeed);
    });
    const double synth = secondsSince(t0);
    if (wl.kind == Kind::WarmStore) {
        pool.parallelFor(
            wl.kernels.size(),
            [&](std::size_t i) {
                sim::BaselineCache::instance().get(wl.kernels[i], rc);
            },
            [](std::size_t i) { return i; });
    }
    const double total = secondsSince(t0);
    // The measured phase must read checkpoints back from disk.
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    return {total, synth};
}

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--scratch")
            a.scratch = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.scratch.empty() &&
           a.seconds > 0.0;
}

sim::JsonValue
hashList(const std::vector<Cell> &cells)
{
    sim::JsonValue o = sim::JsonValue::object();
    for (const auto &c : cells)
        if (c.haveRef)
            o.set(c.name, hex(c.hash));
    return o;
}

sim::JsonValue
numbers(const std::vector<double> &xs)
{
    sim::JsonValue a = sim::JsonValue::array();
    for (double x : xs)
        a.push(x);
    return a;
}

/** Geomean IPC speedup and mean coverage / accuracy over VP cells. */
void
simulatedMetrics(const Workload &wl, const std::vector<Cell> &cells,
                 std::map<std::string, double> &out)
{
    double logSpeedup = 0.0, coverage = 0.0, accuracy = 0.0;
    std::size_t pairs = 0, vpCells = 0;
    const std::size_t K = wl.kernels.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        if (!c.vp || !c.haveRef)
            continue;
        // The no-VP cell of the same kernel (see makeCells).
        const Cell &base = wl.kind == Kind::WarmStore
                               ? cells[wl.configs.size() * K + i % K]
                               : cells[i - 1];
        if (base.haveRef && base.stats.ipc() > 0.0) {
            logSpeedup += std::log(c.stats.ipc() / base.stats.ipc());
            ++pairs;
        }
        coverage += c.stats.coverage();
        accuracy += c.stats.accuracy();
        ++vpCells;
    }
    out["ipc_speedup"] = pairs ? std::exp(logSpeedup / pairs) : 0.0;
    out["vp_coverage"] = vpCells ? coverage / vpCells : 0.0;
    out["vp_accuracy"] = vpCells ? accuracy / vpCells : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload wl;
    if (!parseArgs(argc, argv, args) || !makeWorkload(args.workload, wl)) {
        std::cerr << "usage: lvpbench --workload detailed_suite|"
                     "warm_store_sweep|sampled_suite --seed N "
                     "--seconds S --trace 0|1 --scratch DIR\n";
        return 2;
    }
    auto &store = sim::CheckpointStore::instance();
    store.configure("", 0); // only the warm sweep's own store is used

    // ---- canary: the first kernel's cells at the pinned seed ----
    sim::RunConfig rcCanary = wl.rc;
    rcCanary.traceSeed = kDefaultSeed;
    Checker canaryChk;
    std::vector<Cell> canary = makeCells(wl, {wl.kernels[0]});
    runPass(wl, {wl.kernels[0]}, rcCanary, canary, canaryChk, nullptr);

    // ---- set-up ----
    sim::RunConfig rc = wl.rc;
    rc.traceSeed = args.seed;
    const std::string storeDir = args.scratch + "/store";
    std::vector<double> setups;
    double synthSeconds = 0.0;
    const int setupReps = args.trace                   ? 1
                          : wl.kind == Kind::WarmStore ? kWarmSetupReps
                                                       : kSetupReps;
    for (int r = 0; r < setupReps; ++r) {
        if (wl.kind == Kind::WarmStore) {
            // A fresh, empty store for every repetition.
            store.configure("", 0);
            std::filesystem::remove_all(storeDir);
            store.configure(storeDir, 0);
            if (!store.enabled()) {
                std::cerr << "cannot use store directory " << storeDir
                          << "\n";
                return 1;
            }
        }
        store.resetCounters();
        const auto [total, synth] = setUp(wl, rc);
        setups.push_back(total);
        synthSeconds = synth;
    }
    // Store traffic of one set-up (the warm sweep's fill) and of one
    // measured pass (its read-back); the other workloads run with the
    // store off, and the layer probe reports its own.
    const std::uint64_t setupMisses = store.misses();
    std::uint64_t passHits = 0;

    // ---- measured passes; traced runs alternate untraced / traced ----
    Checker chk;
    std::vector<Cell> cells = makeCells(wl, wl.kernels);
    lvpbench::VpLedger ledger;
    std::vector<double> kips, tracedKips, busy;
    double tracedVpSeconds = 0.0;
    std::uint64_t tracedVpInstrs = 0;
    const auto run0 = Clock::now();
    for (int pass = 0;
         pass < kMinPasses || secondsSince(run0) < args.seconds; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        std::vector<std::size_t> before;
        for (const auto &c : cells)
            before.push_back(c.seconds.size());
        const std::uint64_t hits0 = store.hits(), misses0 = store.misses();
        const double wall = runPass(wl, wl.kernels, rc, cells, chk,
                                    traced ? &ledger : nullptr);
        passHits = store.hits() - hits0;
        std::uint64_t instrs = 0;
        double cellSeconds = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Cell &c = cells[i];
            if (c.seconds.size() == before[i])
                continue; // failed in this pass
            if (c.timed) {
                instrs += c.instrs;
                cellSeconds += c.seconds.back();
            }
            if (traced && c.vp) {
                tracedVpSeconds += c.seconds.back();
                tracedVpInstrs += c.instrs;
            }
        }
        busy.push_back(cellSeconds / (double(wl.jobs) * wall));
        (traced ? tracedKips : kips)
            .push_back(double(instrs) / 1000.0 / wall);
        const std::uint64_t missed = store.misses() - misses0;
        if (wl.kind == Kind::WarmStore && missed != 0) {
            // Every checkpoint and baseline must come from disk.
            chk.failed += missed;
            chk.failures.push_back("warm-phase store misses: " +
                                   std::to_string(missed));
        }
    }
    if (wl.kind == Kind::WarmStore) {
        store.configure("", 0);
        std::filesystem::remove_all(storeDir);
    }

    std::map<std::string, double> metrics;
    sim::JsonValue info = sim::JsonValue::object();
    if (!args.trace) {
        // ---- end-to-end metrics ----
        std::vector<double> cellMs;
        double sampleError = 0.0;
        for (const auto &c : cells) {
            if (!c.timed || c.seconds.empty())
                continue;
            cellMs.push_back(1e3 * median(c.seconds));
            sampleError += c.sampleError;
        }
        std::sort(cellMs.begin(), cellMs.end());
        const std::size_t n = cellMs.size();
        // The highest percentile with at least ten cells beyond it.
        const std::size_t tail = n > 10 ? n - 11 : 0;
        metrics["kips"] = median(kips);
        metrics["cell_p50_ms"] = median(cellMs);
        metrics["cell_tail_ms"] = n ? cellMs[tail] : 0.0;
        metrics["setup_s"] = median(setups);
        metrics["peak_rss_mb"] = peakRssMiB();
        simulatedMetrics(wl, cells, metrics);
        info.set("cell_tail_percentile",
                 std::uint64_t(n > 10 ? 100 * (n - 10) / n : 0));
        info.set("cells", std::uint64_t(n));
        info.set("cells_beyond_tail", std::uint64_t(n > 10 ? 10 : 0));
        info.set("setup_s_each", numbers(setups));
        if (wl.kind == Kind::Sampled)
            info.set("sample_error", n ? sampleError / double(n) : 0.0);
    } else {
        // ---- per-layer metrics ----
        metrics["trace.synth_ns_per_instr"] =
            1e9 * synthSeconds /
            (double(wl.kernels.size()) * double(wl.traceLen));
        metrics["core.vp_ns_per_call"] =
            ledger.calls() ? double(ledger.ns()) / ledger.calls() : 0.0;
        metrics["core.vp_share"] =
            tracedVpSeconds > 0.0
                ? 1e-9 * double(ledger.ns()) / tracedVpSeconds
                : 0.0;
        metrics["core.vp_calls_per_instr"] =
            tracedVpInstrs ? double(ledger.calls()) / tracedVpInstrs : 0.0;
        metrics["core.vp_useful_ratio"] =
            ledger.predicts() ? double(ledger.useful()) / ledger.predicts()
                              : 0.0;
        metrics["sim.executor_busy_share"] = median(busy);
        metrics["tracing.overhead_kips"] =
            median(tracedKips) - median(kips);

        lvpbench::ProbeInput in;
        in.kernels = wl.kernels;
        in.traceLen = wl.traceLen;
        in.seed = args.seed;
        in.makeVp = bestComposite(wl.traceLen);
        in.sampleK = kSampleK;
        in.intervalLen = kSampleInterval;
        in.storeDir = args.scratch + "/probe-store";
        for (const auto &c : cells)
            if (c.haveRef)
                in.resultRows.push_back(c.stats);
        try {
            lvpbench::probeLayers(in, metrics);
        } catch (const std::exception &e) {
            std::cerr << "layer probe failed: " << e.what() << "\n";
            return 1;
        }
        if (wl.kind == Kind::WarmStore) {
            // The workload's own store traffic replaces the probe's:
            // the hits of one measured pass, the misses of one fill.
            metrics["sim.store_hits"] = double(passHits);
            metrics["sim.store_misses"] = double(setupMisses);
        }
    }

    sim::JsonValue doc = sim::JsonValue::object();
    doc.set("workload", args.workload);
    doc.set("seed", args.seed);
    doc.set("passes", std::uint64_t(kips.size() + tracedKips.size()));
    doc.set("attempted", chk.attempted);
    doc.set("failed", chk.failed + canaryChk.failed);
    sim::JsonValue why = sim::JsonValue::array();
    for (const auto &f : canaryChk.failures)
        why.push("canary " + f);
    for (const auto &f : chk.failures)
        why.push(f);
    doc.set("failures", std::move(why));
    doc.set("hashes", hashList(cells));
    doc.set("canary", hashList(canary));
    sim::JsonValue m = sim::JsonValue::object();
    for (const auto &[k, v] : metrics)
        m.set(k, v);
    doc.set("metrics", std::move(m));
    doc.set("info", std::move(info));
    doc.set("build_type", LVPBENCH_BUILD_TYPE);
    doc.set("cxx_flags", LVPBENCH_CXX_FLAGS);
    doc.dump(std::cout, -1);
    std::cout << "\n";
    return 0;
}
