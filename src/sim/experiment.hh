/**
 * @file
 * Suite-level experiment harness: runs a predictor configuration over
 * a list of workloads, caches the no-VP baseline per workload, and
 * aggregates exactly as the paper does (Section II-A): arithmetic
 * average across workloads, geometric mean for IPC.
 *
 * Runs can be fanned out over a thread pool (`setJobs`): each
 * (workload, predictor) simulation is independent, so the suite loop
 * is embarrassingly parallel. Results are written into slots indexed
 * by workload position, so row order — and every stat in every row —
 * is bit-identical to a serial run regardless of completion order.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/lvp_interface.hh"
#include "pipeline/sim_stats.hh"
#include "sim/memo.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"

namespace lvpsim
{
namespace sim
{

struct WorkloadResult
{
    std::string workload;
    pipe::SimStats base;
    pipe::SimStats withVp;
    std::uint64_t storageBits = 0;

    /// Trace metadata: which TraceSource backend delivered the
    /// instruction stream ("synthetic", "lvpt", or "cvp") and how
    /// many instructions it held (measurement + warmup regions).
    std::string traceFormat = "synthetic";
    std::uint64_t traceInstructions = 0;

    /// Wall-clock timing (seconds). Informational only: excluded
    /// from determinism comparisons (see tools/check_determinism.sh).
    double baseSeconds = 0.0;
    double vpSeconds = 0.0;
    /// One-time cost of building this workload's post-warmup (or,
    /// for sampled rows, interval) checkpoints (0 when neither
    /// warmup nor sampling is active). Informational, like the
    /// fields above.
    double checkpointSeconds = 0.0;
    /// Host seconds per part of this row's sampled runs, baseline
    /// and VP run summed (the baseline's are 0 when it came from
    /// the disk store). Informational; not in the results JSON.
    SampledHostSeconds sampledSeconds;

    /// Sampled-run metadata (docs/sampling.md): true when the stats
    /// in this row were extrapolated from sampleK representative
    /// intervals of intervalLength instructions each; sampleError is
    /// that run's confidence bound. Zero / false for full runs.
    bool sampled = false;
    double sampleError = 0.0;
    std::uint64_t sampleK = 0;
    std::uint64_t intervalLength = 0;

    double speedup() const { return withVp.ipc() / base.ipc() - 1.0; }
    double coverage() const { return withVp.coverage(); }
    double accuracy() const { return withVp.accuracy(); }
};

struct SuiteResult
{
    std::string label;
    std::vector<WorkloadResult> rows;
    std::uint64_t storageBits = 0;

    /// Wall-clock of the whole run() call (seconds; informational).
    double wallSeconds = 0.0;

    double storageKB() const { return double(storageBits) / 8192.0; }

    /** Speedup of geomean IPC over the geomean baseline IPC. */
    double geomeanSpeedup() const;
    /** Arithmetic mean coverage across workloads (paper style). */
    double meanCoverage() const;
    double meanAccuracy() const;
};

/** Factory producing one fresh predictor per workload.
 *  Must be callable from worker threads (capture by value). */
using PredictorFactory =
    std::function<std::unique_ptr<pipe::LoadValuePredictor>()>;

/**
 * Process-wide memo of no-VP baseline runs, keyed by runKey(), so a
 * multi-suite binary (e.g. the fig benches) simulates each baseline
 * exactly once no matter how many SuiteRunners it creates. A
 * sim::Memo (memo.hh) with the disk store as L2 under "base:" keys.
 */
class BaselineCache
{
  public:
    struct Entry
    {
        pipe::SimStats stats;
        /// Wall-clock of the measured baseline run (informational;
        /// excluded from determinism comparisons).
        double seconds = 0.0;
        /// One-time warmup-checkpoint build cost for this key
        /// (0 when warmupInstrs == 0). Informational.
        double checkpointSeconds = 0.0;
        /// Per-part host seconds of a sampled baseline run.
        /// Informational and, unlike the fields above, not stored.
        SampledHostSeconds sampledSeconds;
    };
    using EntryPtr = std::shared_ptr<const Entry>;

    BaselineCache();

    /** Run (once) or fetch the no-VP baseline for this key. The
     *  returned entry stays valid until clear(). */
    EntryPtr get(const std::string &workload, const RunConfig &rc);

    /** Number of baselines actually simulated (not cache hits). */
    std::uint64_t generations() const { return memo.generations(); }

    /** Drop every cached baseline (test hook; not used by benches). */
    void clear() { memo.clear(); }

    /** The process-wide cache used by SuiteRunner. */
    static BaselineCache &instance();

  private:
    Memo<Entry> memo;
};

class SuiteRunner
{
  public:
    SuiteRunner(std::vector<std::string> workload_names,
                const RunConfig &rc, std::size_t jobs = 1);

    /**
     * Run a configuration; baselines are computed once and reused.
     * With jobs > 1 the per-workload simulations run on a thread
     * pool; the returned rows are bit-identical to jobs == 1.
     */
    SuiteResult run(const std::string &label,
                    const PredictorFactory &make_vp);

    /** Worker threads for subsequent run() calls (0 = hardware). */
    void setJobs(std::size_t n);
    std::size_t jobs() const { return jobCount; }

    /** Called with every finished SuiteResult (e.g. a JSON sink). */
    void setObserver(std::function<void(const SuiteResult &)> fn)
    {
        observer = std::move(fn);
    }

    const std::vector<std::string> &workloads() const
    {
        return workloadNames;
    }
    const RunConfig &runConfig() const { return rc; }

    /** The memoized no-VP baseline for one workload (computed on
     *  first use, process-wide via BaselineCache). */
    const pipe::SimStats &baseline(const std::string &workload);

  private:
    /** Compute (under the pool when parallel) any missing baselines. */
    void ensureBaselines();

    std::vector<std::string> workloadNames;
    RunConfig rc;
    std::size_t jobCount = 1;
    std::function<void(const SuiteResult &)> observer;
};

} // namespace sim
} // namespace lvpsim

