/**
 * @file
 * Shared scaffolding for the experiment harnesses in bench/. Each
 * binary regenerates one table or figure of the paper, printing an
 * aligned text table plus greppable CSV lines, and can additionally
 * emit a machine-readable results file (docs/results_schema.md).
 *
 * Command line (every bench binary):
 *   --jobs N     run suite simulations on N worker threads
 *                (0 or "auto" = one per hardware thread; default 1)
 *   --json FILE  write every SuiteResult produced by the bench to
 *                FILE in the documented JSON schema
 *   --warmup N   warm each workload for N instructions before the
 *                measured region (default LVPSIM_WARMUP or 0); see
 *                RunConfig.warmupInstrs
 *
 * Run scaling:
 *   LVPSIM_INSTRS=<n>        instructions per workload (default 150K)
 *   LVPSIM_WARMUP=<n>        warmup instructions (default 0)
 *   LVPSIM_SUITE=smoke|full  workload list (default full, 28 kernels)
 */

#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/composite.hh"
#include "core/eves.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
#include "sim/results_json.hh"
#include "sim/simulator.hh"
#include "sim/tableio.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace bench
{

/** Per-binary state configured by initBench(). */
struct BenchOptions
{
    std::size_t jobs = 1;
    std::size_t warmup = sim::warmupFromEnv();
    std::string jsonPath;
    std::string tag; ///< bench name, recorded in the JSON meta
    std::vector<sim::SuiteResult> recorded;
};

inline BenchOptions &
benchOptions()
{
    static BenchOptions o;
    return o;
}

inline sim::RunConfig
benchRunConfig()
{
    sim::RunConfig rc;
    rc.maxInstrs = sim::instrsFromEnv(150000);
    rc.warmupInstrs = benchOptions().warmup;
    return rc;
}

/**
 * Parse the shared bench flags (--jobs / --json / --help). Call at
 * the top of every bench main(); exits on bad usage.
 */
inline void
initBench(int argc, char **argv, const std::string &tag)
{
    BenchOptions &o = benchOptions();
    o.tag = tag;
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
            if (!sim::ParallelExecutor::parseJobs(v, o.jobs)) {
                std::cerr << "bad --jobs value '" << v
                          << "' (want a count or 'auto')\n";
                std::exit(2);
            }
        } else if (a == "--json") {
            o.jsonPath = next("--json");
        } else if (a == "--warmup") {
            const std::string v = next("--warmup");
            const long long n = std::atoll(v.c_str());
            if (n < 0) {
                std::cerr << "bad --warmup value '" << v
                          << "' (want a count >= 0)\n";
                std::exit(2);
            }
            o.warmup = std::size_t(n);
        } else if (a == "--help" || a == "-h") {
            std::cout << tag
                      << " [--jobs N|auto] [--json FILE]"
                         " [--warmup N]\n"
                         "env: LVPSIM_INSTRS, LVPSIM_WARMUP,"
                         " LVPSIM_SUITE\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option '" << a
                      << "' (try --help)\n";
            std::exit(2);
        }
    }
}

inline std::size_t
benchJobs()
{
    return benchOptions().jobs;
}

/** Record one SuiteResult for the --json report. */
inline void
recordSuite(const sim::SuiteResult &res)
{
    benchOptions().recorded.push_back(res);
}

/**
 * A SuiteRunner honouring --jobs, with every run() recorded for the
 * --json report. Use instead of constructing sim::SuiteRunner
 * directly in bench code.
 */
inline sim::SuiteRunner
makeRunner(const std::vector<std::string> &workloads,
           const sim::RunConfig &rc)
{
    sim::SuiteRunner runner(workloads, rc, benchJobs());
    runner.setObserver(recordSuite);
    return runner;
}

/**
 * Write the --json report (if requested). Call as the bench's return
 * expression: returns 0 on success, 1 if the file cannot be written.
 */
inline int
finishBench()
{
    BenchOptions &o = benchOptions();
    if (o.jsonPath.empty())
        return 0;
    sim::ReportMeta meta;
    meta.jobs = o.jobs;
    meta.maxInstrs = sim::instrsFromEnv(150000);
    meta.warmupInstrs = o.warmup;
    meta.traceSeed = 1;
    meta.suite = o.tag;
    std::string err;
    if (!sim::writeResultsFile(o.jsonPath, o.recorded, meta, &err)) {
        std::cerr << err << "\n";
        return 1;
    }
    std::cout << "results: " << o.jsonPath << " ("
              << o.recorded.size() << " suite runs)\n";
    return 0;
}

/** The host CPU's model name, or "unknown" where the OS hides it. */
inline std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "unknown"
                                           : line.substr(start);
    }
    return "unknown";
}

/**
 * Which build and host produced a BENCH_*.json: git commit (read at
 * configure time), compiler, flags, build type, whether LVPSIM_CHECK
 * invariants are compiled in, and the CPU. Stamped into each file as
 * its top-level "provenance" object.
 */
inline sim::JsonValue
provenance()
{
    sim::JsonValue p = sim::JsonValue::object();
    p.set("git_sha", LVPSIM_GIT_SHA);
    p.set("compiler", LVPSIM_COMPILER);
    p.set("cxx_flags", LVPSIM_CXX_FLAGS);
    p.set("build_type", LVPSIM_BUILD_TYPE);
#ifdef LVPSIM_ASSERTIONS
    p.set("assertions", true);
#else
    p.set("assertions", false);
#endif
    p.set("cpu_model", cpuModel());
    p.set("hardware_threads",
          std::uint64_t(std::thread::hardware_concurrency()));
    return p;
}

/** Scale the paper's 1M-instruction epochs to the run length. */
inline vp::CompositeConfig
scaleEpochs(vp::CompositeConfig cfg, std::size_t instrs)
{
    cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
    return cfg;
}

inline void
banner(const std::string &what, const sim::RunConfig &rc,
       std::size_t workloads)
{
    std::cout << "=====================================================\n"
              << what << "\n"
              << "workloads: " << workloads
              << "   instructions/workload: " << rc.maxInstrs
              << "\n"
              << "=====================================================\n";
}

/** Factory helpers used by several harnesses. */
inline sim::PredictorFactory
compositeFactory(const vp::CompositeConfig &cfg)
{
    return [cfg] {
        return std::make_unique<vp::CompositePredictor>(cfg);
    };
}

/**
 * The composite optimization variants a designer would choose among
 * (the paper's Figure 10 reports the MAX over its composite design
 * space). Smart training and fusion are included both on and off:
 * their benefit depends on table pressure, which varies by suite.
 */
inline std::vector<std::pair<std::string, vp::CompositeConfig>>
compositeVariants(std::size_t total, std::size_t instrs)
{
    std::vector<std::pair<std::string, vp::CompositeConfig>> out;
    auto base = scaleEpochs(vp::CompositeConfig::homogeneous(total),
                            instrs);
    out.emplace_back("plain", base);
    auto am = base;
    am.am = vp::AmKind::PcAm;
    out.emplace_back("pc-am", am);
    auto fused = am;
    fused.tableFusion = true;
    out.emplace_back("pc-am+fusion", fused);
    auto all = fused;
    all.smartTraining = true;
    out.emplace_back("all-opts", all);
    return out;
}

/** The composite configuration that wins most broadly in this suite
 *  (PC-AM + fusion); used where one fixed design is required. */
inline vp::CompositeConfig
tunedComposite(std::size_t total, std::size_t instrs)
{
    auto cfg = scaleEpochs(vp::CompositeConfig::homogeneous(total),
                           instrs);
    cfg.am = vp::AmKind::PcAm;
    cfg.tableFusion = true;
    return cfg;
}

inline sim::PredictorFactory
singleFactory(pipe::ComponentId id, std::size_t entries)
{
    return [id, entries] {
        return vp::makeSinglePredictor(id, entries);
    };
}

inline sim::PredictorFactory
evesFactory(const vp::EvesConfig &cfg)
{
    return [cfg] { return std::make_unique<vp::EvesPredictor>(cfg); };
}

} // namespace bench
} // namespace lvpsim

