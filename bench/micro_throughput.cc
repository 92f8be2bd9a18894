/**
 * @file
 * Simulator-throughput baseline: how fast does the cycle-level core
 * itself run? Every figure/table harness reruns the same inner work —
 * synthesize a trace, run the no-VP baseline, run a composite
 * configuration — over the whole workload suite, so raw simulation
 * throughput is the binding constraint on evaluation scale. This
 * binary measures exactly that inner work end to end and reports
 * simulated kilo-instructions per wall-second (kIPS), per workload
 * and aggregate, so hot-path changes are measured rather than
 * asserted (see docs/performance.md).
 *
 * Command line (harness conventions, like every bench binary):
 *   --jobs N|auto  run workloads on N worker threads (default 1;
 *                  throughput numbers are only comparable at equal
 *                  --jobs)
 *   --json FILE    write the measurement in the BENCH_throughput.json
 *                  schema (docs/performance.md)
 *   --repeat N     simulate each workload N times, report the
 *                  median pass (default 1; use 3+ for committed
 *                  baselines — the median rejects one-sided load
 *                  spikes without the minimum's optimistic bias)
 *   --warmup N     warm each workload for N instructions before the
 *                  measured region (default LVPSIM_WARMUP or 0)
 *
 * Run scaling: LVPSIM_INSTRS (default 150000), LVPSIM_WARMUP,
 * LVPSIM_SUITE.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/composite.hh"
#include "sim/json.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
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

struct WorkloadMeasurement
{
    std::string workload;
    std::uint64_t instructions = 0; ///< simulated, both pipelines
    std::uint64_t cycles = 0;       ///< simulated, both pipelines
    double genSeconds = 0.0;        ///< trace synthesis (first pass)
    double simSeconds = 0.0;        ///< median simulation pass
    std::vector<double> passSeconds; ///< one entry per --repeat pass

    double kips() const
    {
        return simSeconds > 0.0
                   ? double(instructions) / 1000.0 / simSeconds
                   : 0.0;
    }
};

/** Median of the samples (mean of the middle two when even). */
double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 ? xs[mid]
                         : 0.5 * (xs[mid - 1] + xs[mid]);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = 1;
    std::string json_path;
    unsigned repeat = 1;
    std::size_t warmup = sim::warmupFromEnv();
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
        } else if (a == "--repeat") {
            repeat = unsigned(std::atoi(next("--repeat")));
            if (repeat == 0)
                repeat = 1;
        } else if (a == "--warmup") {
            const long long n = std::atoll(next("--warmup"));
            if (n < 0) {
                std::cerr << "bad --warmup value (want >= 0)\n";
                std::exit(2);
            }
            warmup = std::size_t(n);
        } else if (a == "--help" || a == "-h") {
            std::cout << "micro_throughput [--jobs N|auto] "
                         "[--json FILE] [--repeat N] [--warmup N]\n"
                         "env: LVPSIM_INSTRS, LVPSIM_WARMUP, "
                         "LVPSIM_SUITE\n";
            return 0;
        } else {
            std::cerr << "unknown option '" << a
                      << "' (try --help)\n";
            return 2;
        }
    }

    const std::size_t instrs = sim::instrsFromEnv(150000);
    const auto workloads = sim::suiteFromEnv();
    sim::RunConfig rc;
    rc.maxInstrs = instrs;
    rc.warmupInstrs = warmup;

    const auto vp_cfg = bench::scaleEpochs(
        vp::CompositeConfig::homogeneous(1024), instrs);

    std::cout << "simulator throughput: " << workloads.size()
              << " workloads x " << instrs
              << " instructions (no-VP + composite), median of "
              << repeat << (repeat == 1 ? " pass" : " passes")
              << ", jobs=" << jobs;
    if (warmup)
        std::cout << ", warmup " << warmup;
    std::cout << "\n";

    // Phase 1: trace synthesis (timed separately — it also runs on
    // every suite invocation, but is not the cycle loop). Traces are
    // long enough to cover the warmup region plus the measurement.
    std::vector<WorkloadMeasurement> rows(workloads.size());
    sim::ParallelExecutor pool(jobs);
    const auto gen_t0 = Clock::now();
    pool.parallelFor(workloads.size(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        auto ops = sim::TraceCache::instance().get(
            workloads[i], rc.maxInstrs + rc.warmupInstrs,
            rc.traceSeed);
        rows[i].workload = workloads[i];
        rows[i].genSeconds = secondsSince(t0);
        (void)ops;
    });
    const double gen_wall = secondsSince(gen_t0);

    // Phase 2: simulation. Each pass runs the full no-VP + composite
    // pair per workload; the median pass is reported (robust to load
    // spikes in either direction, unlike the minimum, which is biased
    // toward lucky scheduling). Instruction and cycle counts come
    // from the first pass — simulation is deterministic, so every
    // pass counts the same work.
    std::vector<double> pass_walls;
    pass_walls.reserve(repeat);
    for (unsigned pass = 0; pass < repeat; ++pass) {
        const auto t0 = Clock::now();
        pool.parallelFor(workloads.size(), [&](std::size_t i) {
            auto ops = sim::TraceCache::instance().get(
                workloads[i], rc.maxInstrs + rc.warmupInstrs,
                rc.traceSeed);
            const auto w0 = Clock::now();
            const auto base = sim::runTrace(*ops, nullptr, rc);
            vp::CompositePredictor pred(vp_cfg);
            const auto with_vp = sim::runTrace(*ops, &pred, rc);
            WorkloadMeasurement &m = rows[i];
            m.passSeconds.push_back(secondsSince(w0));
            if (pass == 0) {
                m.instructions =
                    base.instructions + with_vp.instructions;
                m.cycles = base.cycles + with_vp.cycles;
            }
        });
        pass_walls.push_back(secondsSince(t0));
    }
    for (auto &m : rows)
        m.simSeconds = median(m.passSeconds);
    const double sim_wall = median(pass_walls);

    std::uint64_t total_instrs = 0, total_cycles = 0;
    double sum_sim_seconds = 0.0;
    sim::TextTable t(
        {"workload", "instrs", "gen_ms", "sim_ms", "kips"});
    for (const auto &m : rows) {
        total_instrs += m.instructions;
        total_cycles += m.cycles;
        sum_sim_seconds += m.simSeconds;
        t.addRow({m.workload, std::to_string(m.instructions),
                  sim::fmtF(m.genSeconds * 1e3, 2),
                  sim::fmtF(m.simSeconds * 1e3, 2),
                  sim::fmtF(m.kips(), 1)});
    }
    // Aggregate throughput uses the wall clock of the whole phase:
    // with --jobs 1 this equals the per-workload sum; with more jobs
    // it reports the real end-to-end rate.
    const double agg_kips =
        sim_wall > 0.0 ? double(total_instrs) / 1000.0 / sim_wall
                       : 0.0;
    t.addRow({"AGGREGATE", std::to_string(total_instrs),
              sim::fmtF(gen_wall * 1e3, 2),
              sim::fmtF(sim_wall * 1e3, 2), sim::fmtF(agg_kips, 1)});
    t.print(std::cout);
    t.printCsv(std::cout, "throughput");
    std::cout << "aggregate: " << sim::fmtF(agg_kips, 1)
              << " kIPS simulated (" << sim::fmtF(sim_wall, 3)
              << " s simulation, " << sim::fmtF(gen_wall, 3)
              << " s trace synthesis)\n";

    if (json_path.empty())
        return 0;

    sim::JsonValue doc = sim::JsonValue::object();
    doc.set("schema_version", std::uint64_t(1));
    doc.set("tool", "lvpsim");
    sim::JsonValue meta = sim::JsonValue::object();
    meta.set("bench", "micro_throughput");
    meta.set("jobs", std::uint64_t(jobs));
    meta.set("instructions", std::uint64_t(instrs));
    meta.set("warmup_instructions", std::uint64_t(warmup));
    meta.set("repeat", std::uint64_t(repeat));
    // Which statistic sim_seconds / sim_wall_seconds report across
    // the --repeat passes (the minimum before schema consumers care).
    meta.set("statistic", "median");
    meta.set("suite", std::getenv("LVPSIM_SUITE")
                          ? std::getenv("LVPSIM_SUITE")
                          : "full");
    doc.set("meta", std::move(meta));
    doc.set("provenance", bench::provenance());
    sim::JsonValue rows_json = sim::JsonValue::array();
    for (const auto &m : rows) {
        sim::JsonValue r = sim::JsonValue::object();
        r.set("workload", m.workload);
        r.set("instructions", m.instructions);
        r.set("cycles", m.cycles);
        r.set("gen_seconds", m.genSeconds);
        r.set("sim_seconds", m.simSeconds);
        r.set("kips", m.kips());
        rows_json.push(std::move(r));
    }
    doc.set("workloads", std::move(rows_json));
    sim::JsonValue agg = sim::JsonValue::object();
    agg.set("total_instructions", total_instrs);
    agg.set("total_cycles", total_cycles);
    agg.set("gen_wall_seconds", gen_wall);
    agg.set("sim_wall_seconds", sim_wall);
    agg.set("sim_seconds_sum", sum_sim_seconds);
    agg.set("kips", agg_kips);
    doc.set("aggregate", std::move(agg));

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
