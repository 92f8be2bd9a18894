/**
 * @file
 * Sampled-simulation benchmark: how much faster is a SimPoint-style
 * sampled suite run (docs/sampling.md) than full detailed
 * simulation, and does the extrapolation stay inside its own
 * reported confidence bounds? Three phases run the same composite
 * configuration over the same workload suite:
 *
 *   full     detailed simulation of every instruction (SuiteRunner
 *            with sampling off) — the reference results.
 *   sampled  cold sampled run from empty caches: pays interval
 *            profiling, k-means planning and interval-checkpoint
 *            construction, then simulates only the representative
 *            intervals and extrapolates.
 *   warm     the identical sampled run again with only the baseline
 *            memo cleared: every plan and interval checkpoint must
 *            be a cache hit (generation counters are checked), and
 *            the results must be counter-for-counter identical to
 *            the cold sampled phase.
 *
 * Self-checks (the speedup is only reported when they hold):
 *   exit 3  warm phase rebuilt a plan/checkpoint, or warm results
 *           diverged from the cold sampled results;
 *   exit 4  a sampled row (or the suite aggregate) missed the full
 *           reference by more than its own reported sample_error.
 *
 * tools/bench_sampling.sh runs this binary on the bench-release
 * preset at 2M instructions/workload and commits BENCH_sampling.json;
 * the `sampled_vs_full` ctest gate replays that measurement on
 * Release trees (tools/check_sampling_gate.sh).
 *
 * Command line (harness conventions, like every bench binary):
 *   --jobs N|auto      worker threads for all phases (default 1)
 *   --json FILE        write the measurement as BENCH_sampling.json
 *   --sample K         representatives per workload (default 8)
 *   --interval-len N   interval length (default instrs/200, min 2000)
 *
 * Run scaling: LVPSIM_INSTRS (default 20000), LVPSIM_SUITE.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

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
statsIdentical(const std::string &what, const pipe::SimStats &cold,
               const pipe::SimStats &warm)
{
    const auto a = flatCounters(cold);
    const auto b = flatCounters(warm);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].second != b[i].second) {
            std::cerr << "MISMATCH " << what << ": " << a[i].first
                      << " cold=" << a[i].second
                      << " warm=" << b[i].second << "\n";
            return false;
        }
    }
    return true;
}

double
geomeanIpc(const sim::SuiteResult &res)
{
    double log_sum = 0.0;
    for (const auto &row : res.rows)
        log_sum += std::log(row.withVp.ipc());
    return res.rows.empty()
               ? 0.0
               : std::exp(log_sum / double(res.rows.size()));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = 1;
    std::string json_path;
    const std::size_t instrs = sim::instrsFromEnv(20000);
    std::size_t sample_k = 8;
    std::size_t interval_len =
        std::max<std::size_t>(2000, instrs / 200);
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
        } else if (a == "--sample") {
            const long long n = std::atoll(next("--sample"));
            if (n <= 0) {
                std::cerr << "bad --sample value (want > 0)\n";
                std::exit(2);
            }
            sample_k = std::size_t(n);
        } else if (a == "--interval-len") {
            const long long n = std::atoll(next("--interval-len"));
            if (n <= 0) {
                std::cerr << "bad --interval-len value (want > 0)\n";
                std::exit(2);
            }
            interval_len = std::size_t(n);
        } else if (a == "--help" || a == "-h") {
            std::cout << "sampling_throughput [--jobs N|auto] "
                         "[--json FILE] [--sample K] "
                         "[--interval-len N]\n"
                         "env: LVPSIM_INSTRS, LVPSIM_SUITE\n";
            return 0;
        } else {
            std::cerr << "unknown option '" << a
                      << "' (try --help)\n";
            return 2;
        }
    }

    sim::RunConfig rc_full;
    rc_full.maxInstrs = instrs;
    sim::RunConfig rc_sampled = rc_full;
    rc_sampled.sampleK = sample_k;
    rc_sampled.sampleIntervalLen = interval_len;

    const auto workloads = sim::suiteFromEnv();
    const std::size_t W = workloads.size();
    const auto factory = bench::compositeFactory(
        bench::tunedComposite(2048, instrs));

    std::cout << "sampling throughput: " << W << " workloads, "
              << instrs << " instructions each, sample "
              << sample_k << " x " << interval_len
              << ", jobs=" << jobs << "\n";

    // Trace synthesis is identical work in all phases; run it up
    // front so none of them is charged for it.
    sim::ParallelExecutor pool(jobs);
    pool.parallelFor(W, [&](std::size_t i) {
        sim::TraceCache::instance().get(workloads[i], instrs,
                                        rc_full.traceSeed);
    });

    // -------- full: detailed simulation of every instruction ----
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::PlanCache::instance().clear();
    const auto full_t0 = Clock::now();
    sim::SuiteRunner full_runner(workloads, rc_full, jobs);
    const auto full = full_runner.run("composite", factory);
    const double full_wall = secondsSince(full_t0);
    std::cout << "full (every instruction):  "
              << sim::fmtF(full_wall, 3) << " s\n";

    // -------- sampled, cold: pays profile + plan + checkpoints ---
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::PlanCache::instance().clear();
    const auto cold_t0 = Clock::now();
    sim::SuiteRunner cold_runner(workloads, rc_sampled, jobs);
    const auto cold = cold_runner.run("composite", factory);
    const double cold_wall = secondsSince(cold_t0);

    double checkpoint_seconds = 0.0;
    sim::SampledHostSeconds parts;
    for (const auto &row : cold.rows) {
        checkpoint_seconds += row.checkpointSeconds;
        parts += row.sampledSeconds;
    }
    std::cout << "sampled (cold caches):     "
              << sim::fmtF(cold_wall, 3) << " s (of which "
              << sim::fmtF(checkpoint_seconds, 3)
              << " s checkpoint builds)\n"
              << "  host seconds by part:    plan "
              << sim::fmtF(parts.plan, 3) << ", checkpoints "
              << sim::fmtF(parts.checkpoints, 3) << ", vp training "
              << sim::fmtF(parts.vpTrain, 3) << ", restore "
              << sim::fmtF(parts.restore, 3) << ", detailed "
              << sim::fmtF(parts.detailed, 3) << "\n";

    // -------- sampled, warm: plans and checkpoints must be hits --
    const auto plans0 = sim::PlanCache::instance().generations();
    const auto ckpts0 = sim::CheckpointCache::instance().generations();
    sim::BaselineCache::instance().clear();
    const auto warm_t0 = Clock::now();
    sim::SuiteRunner warm_runner(workloads, rc_sampled, jobs);
    const auto warm = warm_runner.run("composite", factory);
    const double warm_wall = secondsSince(warm_t0);
    std::cout << "sampled (warm caches):     "
              << sim::fmtF(warm_wall, 3) << " s\n";

    // -------- self-checks --------
    bool identical =
        sim::PlanCache::instance().generations() == plans0 &&
        sim::CheckpointCache::instance().generations() == ckpts0;
    if (!identical)
        std::cerr << "warm phase rebuilt a sample plan or interval "
                     "checkpoint that should have been cached\n";
    for (std::size_t w = 0; w < W; ++w) {
        identical &= statsIdentical(workloads[w] + "/base",
                                    cold.rows[w].base,
                                    warm.rows[w].base);
        identical &= statsIdentical(workloads[w],
                                    cold.rows[w].withVp,
                                    warm.rows[w].withVp);
    }
    if (!identical) {
        std::cerr << "sampled results are not reproducible; "
                     "refusing to report a speedup\n";
        return 3;
    }

    double max_ipc_err = 0.0, max_acc_err = 0.0;
    double mean_bound = 0.0;
    std::size_t out_of_bounds = 0;
    for (std::size_t w = 0; w < W; ++w) {
        const auto &f = full.rows[w];
        const auto &s = cold.rows[w];
        const double ipc_err =
            std::abs(s.withVp.ipc() - f.withVp.ipc()) /
            f.withVp.ipc();
        // Accuracy is a fraction of used predictions; below ~0.5%
        // coverage it is a ratio of near-zero counters on both
        // sides and rounding noise swamps the comparison, so only
        // rows where the predictor meaningfully fires are checked.
        const bool acc_meaningful =
            f.withVp.predictionsUsed * 200 > f.withVp.eligibleLoads;
        const double acc_err =
            acc_meaningful ? std::abs(s.withVp.accuracy() -
                                      f.withVp.accuracy())
                           : 0.0;
        max_ipc_err = std::max(max_ipc_err, ipc_err);
        max_acc_err = std::max(max_acc_err, acc_err);
        mean_bound += s.sampleError;
        if (ipc_err > s.sampleError || acc_err > s.sampleError) {
            std::cerr << "OUT OF BOUNDS " << workloads[w]
                      << ": ipc err " << sim::fmtF(ipc_err, 4)
                      << ", accuracy err " << sim::fmtF(acc_err, 4)
                      << " vs bound "
                      << sim::fmtF(s.sampleError, 4) << "\n";
            ++out_of_bounds;
        }
    }
    mean_bound /= double(W);
    const double suite_ipc_err =
        std::abs(geomeanIpc(cold) - geomeanIpc(full)) /
        geomeanIpc(full);
    std::cout << "max per-workload error:    ipc "
              << sim::fmtF(100.0 * max_ipc_err, 2)
              << "%, accuracy "
              << sim::fmtF(100.0 * max_acc_err, 2)
              << "% (mean bound "
              << sim::fmtF(100.0 * mean_bound, 2) << "%)\n"
              << "suite geomean IPC error:   "
              << sim::fmtF(100.0 * suite_ipc_err, 2) << "%\n";
    if (out_of_bounds > 0 || suite_ipc_err > mean_bound) {
        std::cerr << "sampled extrapolation missed its reported "
                     "confidence bounds ("
                  << out_of_bounds << "/" << W
                  << " workloads); refusing to report a speedup\n";
        return 4;
    }

    const double speedup =
        cold_wall > 0.0 ? full_wall / cold_wall : 0.0;
    const double warm_speedup =
        warm_wall > 0.0 ? full_wall / warm_wall : 0.0;
    std::cout << "within reported bounds: yes\n"
              << "sampling speedup: " << sim::fmtF(speedup, 2)
              << "x cold, " << sim::fmtF(warm_speedup, 2)
              << "x warm\n";

    if (json_path.empty())
        return 0;

    sim::JsonValue doc = sim::JsonValue::object();
    doc.set("schema_version", std::uint64_t(1));
    doc.set("tool", "lvpsim");
    sim::JsonValue meta = sim::JsonValue::object();
    meta.set("bench", "sampling_throughput");
    meta.set("jobs", std::uint64_t(jobs));
    meta.set("instructions", std::uint64_t(instrs));
    meta.set("sample_k", std::uint64_t(sample_k));
    meta.set("interval_length", std::uint64_t(interval_len));
    meta.set("suite", std::getenv("LVPSIM_SUITE")
                          ? std::getenv("LVPSIM_SUITE")
                          : "full");
    meta.set("workloads", std::uint64_t(W));
    doc.set("meta", std::move(meta));
    doc.set("provenance", bench::provenance());
    sim::JsonValue full_j = sim::JsonValue::object();
    full_j.set("wall_seconds", full_wall);
    doc.set("full", std::move(full_j));
    sim::JsonValue cold_j = sim::JsonValue::object();
    cold_j.set("wall_seconds", cold_wall);
    cold_j.set("checkpoint_build_seconds", checkpoint_seconds);
    // Summed over rows (baseline and VP runs); with --jobs > 1 the
    // parts add up to more than the wall clock.
    sim::JsonValue parts_j = sim::JsonValue::object();
    parts_j.set("plan", parts.plan);
    parts_j.set("checkpoints", parts.checkpoints);
    parts_j.set("vp_train", parts.vpTrain);
    parts_j.set("restore", parts.restore);
    parts_j.set("detailed", parts.detailed);
    cold_j.set("host_seconds", std::move(parts_j));
    doc.set("sampled", std::move(cold_j));
    sim::JsonValue warm_j = sim::JsonValue::object();
    warm_j.set("wall_seconds", warm_wall);
    doc.set("warm", std::move(warm_j));
    doc.set("speedup", speedup);
    doc.set("warm_speedup", warm_speedup);
    doc.set("max_rel_ipc_error", max_ipc_err);
    doc.set("max_accuracy_error", max_acc_err);
    doc.set("mean_sample_error", mean_bound);
    doc.set("suite_ipc_error", suite_ipc_err);
    doc.set("within_bounds", true);
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
