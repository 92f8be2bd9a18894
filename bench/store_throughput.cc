/**
 * @file
 * Persistent-checkpoint-store benchmark: how much of a configuration
 * sweep's cost does the disk-backed store (docs/performance.md)
 * eliminate for a process that starts cold? The measured sweep is the
 * fig03-style grid every figure harness shares — component predictors
 * x table sizes over the whole workload suite — behind a warmup
 * region large enough (default 16x the measured instructions) that
 * checkpoint construction dominates, the regime the store targets.
 *
 * Five phases simulate the identical sweep (--phase all, default):
 *
 *   inline       store disabled, in-memory caches cleared: the
 *                no-store reference results and cost.
 *   no-memo      no memos at all: every simulation, baseline and
 *                configuration alike, re-simulates the warmup region
 *                inline (runTrace). What the memos save over a
 *                naive sweep loop (memo_speedup = no-memo / inline).
 *   cold         store enabled on an empty directory, caches
 *                cleared: pays every build plus publish I/O.
 *   warm-memory  store enabled, in-memory caches left warm: the L1
 *                hit path (disk untouched for results).
 *   warm-disk    store enabled, in-memory caches cleared again: a
 *                simulated fresh process, everything served from
 *                disk (store misses must be zero).
 *
 * Every (configuration, workload) SimStats pair is compared counter
 * by counter across all phases; any mismatch — or a warm-disk phase
 * that misses the store — aborts with exit 3, so the reported
 * speedup can only come from work that provably did not change the
 * results.
 *
 * --phase cold / --phase warm run one phase in isolation so
 * tools/bench_store.sh can measure a *real* fresh-process warm run
 * (two separate processes sharing --store) instead of an in-process
 * approximation; each such run emits an FNV-1a checksum over all
 * result counters that the script compares across processes.
 * tools/bench_store.sh commits BENCH_store.json; the `store_speedup`
 * ctest gate (tools/check_store_gate.sh) replays the two-process
 * measurement on Release trees.
 *
 * Command line (harness conventions, like every bench binary):
 *   --jobs N|auto  worker threads for all phases (default 1)
 *   --json FILE    write the measurement as BENCH_store.json
 *   --store DIR    store directory (required; must start empty for
 *                  --phase all / cold)
 *   --phase P      all | cold | warm (default all)
 *   --warmup N     warmup instructions (default LVPSIM_WARMUP, or
 *                  16x LVPSIM_INSTRS when unset)
 *
 * Run scaling: LVPSIM_INSTRS (default 20000), LVPSIM_SUITE.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint_store.hh"
#include "sim/json.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "sim/tableio.hh"
#include "trace/workloads.hh"

#include "bench_common.hh"

using namespace lvpsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Every raw counter as (name, value), in declaration order. */
std::vector<std::pair<std::string, std::uint64_t>>
flatCounters(const pipe::SimStats &s)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            out.emplace_back(std::string(name), v);
        });
    return out;
}

/** True when every counter matches; prints the first divergence. */
bool
statsIdentical(const std::string &what, const pipe::SimStats &ref,
               const pipe::SimStats &got)
{
    const auto a = flatCounters(ref);
    const auto b = flatCounters(got);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].second != b[i].second) {
            std::cerr << "MISMATCH " << what << ": " << a[i].first
                      << " ref=" << a[i].second
                      << " got=" << b[i].second << "\n";
            return false;
        }
    }
    return true;
}

/** One sweep over all configurations; caches cleared on request. */
struct SweepResult
{
    std::vector<sim::SuiteResult> runs;
    double wallSeconds = 0.0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    double storeSeconds = 0.0;
};

SweepResult
runSweep(
    const std::vector<std::string> &workloads,
    const std::vector<std::pair<std::string, sim::PredictorFactory>>
        &configs,
    const sim::RunConfig &rc, std::size_t jobs, bool clearMemory)
{
    if (clearMemory) {
        sim::CheckpointCache::instance().clear();
        sim::BaselineCache::instance().clear();
        sim::PlanCache::instance().clear();
    }
    auto &store = sim::CheckpointStore::instance();
    store.resetCounters();

    SweepResult out;
    const auto t0 = Clock::now();
    sim::SuiteRunner runner(workloads, rc, jobs);
    for (const auto &cfg : configs)
        out.runs.push_back(runner.run(cfg.first, cfg.second));
    out.wallSeconds = secondsSince(t0);
    out.storeHits = store.hits();
    out.storeMisses = store.misses();
    out.storeSeconds = store.seconds();
    return out;
}

/**
 * The sweep with no memos: each workload's baseline, and every
 * configuration's run, simulates its own warmup region inline.
 * Shaped like runSweep()'s result so the phases compare row by row.
 */
SweepResult
runNoMemo(
    const std::vector<std::string> &workloads,
    const std::vector<std::pair<std::string, sim::PredictorFactory>>
        &configs,
    const sim::RunConfig &rc, sim::ParallelExecutor &pool)
{
    const std::size_t W = workloads.size();
    SweepResult out;
    out.runs.resize(configs.size());
    for (auto &run : out.runs)
        run.rows.resize(W);
    const auto trace = [&](std::size_t w) {
        return sim::TraceCache::instance().get(
            workloads[w], rc.maxInstrs + rc.warmupInstrs,
            rc.traceSeed);
    };
    const auto t0 = Clock::now();
    std::vector<pipe::SimStats> base(W);
    pool.parallelFor(W, [&](std::size_t w) {
        pipe::NullPredictor none;
        base[w] = sim::runTrace(*trace(w), &none, rc);
    });
    pool.parallelFor(configs.size() * W, [&](std::size_t i) {
        const std::size_t c = i / W, w = i % W;
        auto vp = configs[c].second();
        sim::WorkloadResult &row = out.runs[c].rows[w];
        row.base = base[w];
        row.withVp = sim::runTrace(*trace(w), vp.get(), rc);
    });
    out.wallSeconds = secondsSince(t0);
    return out;
}

/** FNV-1a over every result counter, for cross-process equality. */
std::string
resultsChecksum(const SweepResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const auto &run : r.runs) {
        for (const auto &row : run.rows) {
            for (const auto &kv : flatCounters(row.base))
                mix(kv.second);
            for (const auto &kv : flatCounters(row.withVp))
                mix(kv.second);
        }
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

bool
sweepsIdentical(
    const std::vector<std::string> &workloads,
    const std::vector<std::pair<std::string, sim::PredictorFactory>>
        &configs,
    const std::string &what, const SweepResult &ref,
    const SweepResult &got)
{
    bool ok = true;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const std::string tag =
                what + "/" + configs[c].first + "/" + workloads[w];
            ok &= statsIdentical(tag + "/base", ref.runs[c].rows[w].base,
                                 got.runs[c].rows[w].base);
            ok &= statsIdentical(tag, ref.runs[c].rows[w].withVp,
                                 got.runs[c].rows[w].withVp);
        }
    }
    return ok;
}

sim::JsonValue
phaseJson(const SweepResult &r)
{
    sim::JsonValue o = sim::JsonValue::object();
    o.set("wall_seconds", r.wallSeconds);
    o.set("store_hits", r.storeHits);
    o.set("store_misses", r.storeMisses);
    o.set("store_seconds", r.storeSeconds);
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = 1;
    std::string json_path;
    std::string store_dir;
    std::string phase = "all";
    const std::size_t instrs = sim::instrsFromEnv(20000);
    std::size_t warmup = sim::warmupFromEnv(16 * instrs);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << what << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            const std::string v = next("--jobs");
            if (!sim::ParallelExecutor::parseJobs(v, jobs)) {
                std::cerr << "bad --jobs value '" << v << "'\n";
                std::exit(2);
            }
        } else if (a == "--json") {
            json_path = next("--json");
        } else if (a == "--store") {
            store_dir = next("--store");
        } else if (a == "--phase") {
            phase = next("--phase");
            if (phase != "all" && phase != "cold" &&
                phase != "warm") {
                std::cerr << "bad --phase value '" << phase
                          << "' (want all|cold|warm)\n";
                std::exit(2);
            }
        } else if (a == "--warmup") {
            const long long n = std::atoll(next("--warmup"));
            if (n < 0) {
                std::cerr << "bad --warmup value (want >= 0)\n";
                std::exit(2);
            }
            warmup = std::size_t(n);
        } else if (a == "--help" || a == "-h") {
            std::cout << "store_throughput [--jobs N|auto] "
                         "[--json FILE] --store DIR "
                         "[--phase all|cold|warm] [--warmup N]\n"
                         "env: LVPSIM_INSTRS, LVPSIM_WARMUP, "
                         "LVPSIM_SUITE\n";
            return 0;
        } else {
            std::cerr << "unknown option '" << a
                      << "' (try --help)\n";
            return 2;
        }
    }
    if (store_dir.empty()) {
        std::cerr << "missing --store DIR (the store is the thing "
                     "under test)\n";
        return 2;
    }

    sim::RunConfig rc;
    rc.maxInstrs = instrs;
    rc.warmupInstrs = warmup;

    const auto workloads = sim::suiteFromEnv();
    const pipe::ComponentId comps[] = {
        pipe::ComponentId::LVP, pipe::ComponentId::SAP,
        pipe::ComponentId::CVP, pipe::ComponentId::CAP};
    const std::size_t sizes[] = {256, 1024, 4096};
    std::vector<std::pair<std::string, sim::PredictorFactory>> configs;
    for (pipe::ComponentId id : comps)
        for (std::size_t n : sizes)
            configs.emplace_back(std::string(pipe::componentName(id)) +
                                     "-" + std::to_string(n),
                                 bench::singleFactory(id, n));

    const std::size_t W = workloads.size();
    const std::size_t C = configs.size();
    std::cout << "store throughput: " << C << " configurations x "
              << W << " workloads, " << instrs
              << " instructions after " << warmup
              << " warmup, jobs=" << jobs << ", phase=" << phase
              << "\n";

    // Trace synthesis is identical work in every phase; run it up
    // front so none of them is charged for it.
    sim::ParallelExecutor pool(jobs);
    pool.parallelFor(W, [&](std::size_t i) {
        sim::TraceCache::instance().get(
            workloads[i], rc.maxInstrs + rc.warmupInstrs,
            rc.traceSeed);
    });

    auto &store = sim::CheckpointStore::instance();
    auto sweep = [&](bool clearMemory) {
        return runSweep(workloads, configs, rc, jobs, clearMemory);
    };

    if (phase == "cold" || phase == "warm") {
        // One isolated phase for the cross-process measurement
        // (tools/bench_store.sh runs cold and warm as separate
        // processes sharing --store).
        store.configure(store_dir, 0);
        if (!store.enabled()) {
            std::cerr << "store directory '" << store_dir
                      << "' is unusable\n";
            return 2;
        }
        const auto r = sweep(true);
        std::cout << phase << " process:  "
                  << sim::fmtF(r.wallSeconds, 3) << " s ("
                  << r.storeHits << " store hits, " << r.storeMisses
                  << " misses)\n";
        if (phase == "cold" && r.storeMisses == 0) {
            std::cerr << "cold phase had no store misses; the store "
                         "directory was not empty\n";
            return 3;
        }
        if (phase == "warm" &&
            (r.storeMisses != 0 || r.storeHits == 0)) {
            std::cerr << "warm phase was not fully served from disk ("
                      << r.storeHits << " hits, " << r.storeMisses
                      << " misses)\n";
            return 3;
        }
        if (json_path.empty())
            return 0;
        sim::JsonValue doc = sim::JsonValue::object();
        doc.set("schema_version", std::uint64_t(1));
        doc.set("tool", "lvpsim");
        sim::JsonValue meta = sim::JsonValue::object();
        meta.set("bench", "store_throughput");
        meta.set("phase", phase);
        meta.set("jobs", std::uint64_t(jobs));
        meta.set("instructions", std::uint64_t(instrs));
        meta.set("warmup_instructions", std::uint64_t(warmup));
        meta.set("suite", std::getenv("LVPSIM_SUITE")
                              ? std::getenv("LVPSIM_SUITE")
                              : "full");
        meta.set("configs", std::uint64_t(C));
        meta.set("workloads", std::uint64_t(W));
        doc.set("meta", std::move(meta));
        doc.set("provenance", bench::provenance());
        doc.set(phase, phaseJson(r));
        doc.set("results_checksum", resultsChecksum(r));
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        doc.dump(os);
        os << "\n";
        std::cout << "results: " << json_path << "\n";
        return 0;
    }

    // -------- inline: no store, the reference sweep --------
    store.configure("", 0);
    const auto inline_r = sweep(true);
    std::cout << "inline (no store):      "
              << sim::fmtF(inline_r.wallSeconds, 3) << " s\n";

    // -------- no-memo: inline warmup in every simulation --------
    const auto no_memo = runNoMemo(workloads, configs, rc, pool);
    std::cout << "no memos:               "
              << sim::fmtF(no_memo.wallSeconds, 3) << " s\n";

    // -------- cold: empty store, pays builds + publish I/O -------
    store.configure(store_dir, 0);
    if (!store.enabled()) {
        std::cerr << "store directory '" << store_dir
                  << "' is unusable\n";
        return 2;
    }
    const auto cold = sweep(true);
    std::cout << "cold (publishes):       "
              << sim::fmtF(cold.wallSeconds, 3) << " s ("
              << cold.storeMisses << " misses, "
              << sim::fmtF(cold.storeSeconds, 3) << " s store I/O)\n";

    // -------- warm-memory: L1 intact, disk untouched --------
    const auto warm_mem = sweep(false);
    std::cout << "warm (memory, L1):      "
              << sim::fmtF(warm_mem.wallSeconds, 3) << " s\n";

    // -------- warm-disk: simulated fresh process --------
    const auto warm_disk = sweep(true);
    std::cout << "warm (disk, L2):        "
              << sim::fmtF(warm_disk.wallSeconds, 3) << " s ("
              << warm_disk.storeHits << " hits, "
              << warm_disk.storeMisses << " misses)\n";

    // -------- self-checks --------
    bool identical = true;
    if (cold.storeMisses == 0) {
        std::cerr << "cold phase had no store misses; the store "
                     "directory was not empty\n";
        identical = false;
    }
    if (warm_disk.storeMisses != 0 || warm_disk.storeHits == 0) {
        std::cerr << "warm-disk phase was not fully served from "
                     "disk ("
                  << warm_disk.storeHits << " hits, "
                  << warm_disk.storeMisses << " misses)\n";
        identical = false;
    }
    identical &= sweepsIdentical(workloads, configs, "no-memo",
                                 inline_r, no_memo);
    identical &= sweepsIdentical(workloads, configs, "cold",
                                 inline_r, cold);
    identical &= sweepsIdentical(workloads, configs, "warm-memory",
                                 inline_r, warm_mem);
    identical &= sweepsIdentical(workloads, configs, "warm-disk",
                                 inline_r, warm_disk);
    if (!identical) {
        std::cerr << "store-served results diverged from the inline "
                     "reference; refusing to report a speedup\n";
        return 3;
    }

    const double speedup = warm_disk.wallSeconds > 0.0
                               ? cold.wallSeconds /
                                     warm_disk.wallSeconds
                               : 0.0;
    const double mem_speedup =
        warm_mem.wallSeconds > 0.0
            ? cold.wallSeconds / warm_mem.wallSeconds
            : 0.0;
    const double memo_speedup =
        inline_r.wallSeconds > 0.0
            ? no_memo.wallSeconds / inline_r.wallSeconds
            : 0.0;
    std::cout << "identical results: yes\n"
              << "store speedup: " << sim::fmtF(speedup, 2)
              << "x warm-disk, " << sim::fmtF(mem_speedup, 2)
              << "x warm-memory\n"
              << "memo speedup: " << sim::fmtF(memo_speedup, 2)
              << "x inline over no memos\n";

    if (json_path.empty())
        return 0;

    sim::JsonValue doc = sim::JsonValue::object();
    doc.set("schema_version", std::uint64_t(1));
    doc.set("tool", "lvpsim");
    sim::JsonValue meta = sim::JsonValue::object();
    meta.set("bench", "store_throughput");
    meta.set("phase", "all");
    meta.set("jobs", std::uint64_t(jobs));
    meta.set("instructions", std::uint64_t(instrs));
    meta.set("warmup_instructions", std::uint64_t(warmup));
    meta.set("suite", std::getenv("LVPSIM_SUITE")
                          ? std::getenv("LVPSIM_SUITE")
                          : "full");
    meta.set("configs", std::uint64_t(C));
    meta.set("workloads", std::uint64_t(W));
    doc.set("meta", std::move(meta));
    doc.set("provenance", bench::provenance());
    doc.set("inline", phaseJson(inline_r));
    doc.set("no_memo", phaseJson(no_memo));
    doc.set("cold", phaseJson(cold));
    doc.set("warm_memory", phaseJson(warm_mem));
    doc.set("warm_disk", phaseJson(warm_disk));
    doc.set("speedup", speedup);
    doc.set("warm_memory_speedup", mem_speedup);
    doc.set("memo_speedup", memo_speedup);
    doc.set("results_checksum", resultsChecksum(inline_r));
    doc.set("identical", true);

    std::ofstream os(json_path);
    if (!os) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    doc.dump(os);
    os << "\n";
    std::cout << "results: " << json_path << "\n";
    return 0;
}
