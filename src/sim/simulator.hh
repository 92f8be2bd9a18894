/**
 * @file
 * Convenience layer that wires workload traces to the core model and
 * caches generated traces (the expensive part) across runs.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lvp_interface.hh"
#include "pipeline/core.hh"
#include "pipeline/core_config.hh"
#include "pipeline/sim_stats.hh"
#include "sim/memo.hh"
#include "trace/instruction.hh"

namespace lvpsim
{
namespace sim
{

struct RunConfig
{
    std::size_t maxInstrs = 400000;
    /**
     * Instructions simulated with value prediction disabled before
     * measurement begins (0 = measure from cold state, exactly the
     * historical behavior). Warmup trains the caches, TLB, branch
     * predictors and memory dependence predictor; the post-warmup
     * machine state is memoized per (workload, config) by
     * CheckpointCache so sweeps pay for it once. The trace used by
     * runWorkload() covers maxInstrs + warmupInstrs instructions.
     */
    std::size_t warmupInstrs = 0;
    std::uint64_t traceSeed = 1;
    /**
     * SimPoint-style sampled simulation (docs/sampling.md): when
     * sampleK > 0, runWorkload() profiles the trace into
     * sampleIntervalLen-instruction intervals, clusters them, and
     * simulates only up to sampleK representative intervals,
     * extrapolating the suite counters as weighted sums. Mutually
     * exclusive with warmupInstrs (sampling fast-forwards
     * functionally to each representative instead).
     */
    std::size_t sampleK = 0;
    std::size_t sampleIntervalLen = 100000;
    pipe::CoreConfig core{};
};

/**
 * Deterministic string key covering every RunConfig field (core,
 * memory, branch-predictor and trace parameters included): two runs
 * share a key iff their simulated results must be identical.
 */
std::string runConfigKey(const RunConfig &rc);

/**
 * runConfigKey(rc) + "#" + the trace identity of @p workload at
 * rc's length (TraceCache::Info::identity): the memo key of
 * CheckpointCache and BaselineCache. For file-backed traces the
 * identity embeds a content hash, so a rewritten file can never
 * alias a stale entry.
 */
std::string runKey(const std::string &workload, const RunConfig &rc);

/**
 * Process-wide progress reporting for long runs (CLI --progress).
 * When `every` > 0, cores created by the sim layer emit one stderr
 * line per `every` committed instructions. 0 (the default) disables
 * reporting; nothing about the simulated results changes either way.
 */
void setProgressReportEvery(std::uint64_t every);
std::uint64_t progressReportEvery();

/** Install the global progress reporter on @p core (no-op when the
 *  report interval is 0). `label` names the run in each line. */
void installProgressHook(pipe::Core &core, const std::string &label);

/**
 * Run one already-generated trace through a fresh core. When
 * rc.warmupInstrs > 0 the warmup region is simulated inline (VP
 * disabled, then a pipeline drain) before the measured run — the
 * reference semantics that checkpoint restore must match exactly.
 */
pipe::SimStats runTrace(const std::vector<trace::MicroOp> &ops,
                        pipe::LoadValuePredictor *vp,
                        const RunConfig &rc);

/**
 * Generate or load (and cache) a workload's trace.
 *
 * The workload argument is a trace *spec* (see trace/trace_spec.hh):
 * a bare synthetic kernel name, `lvpt:PATH` for a recorded binary, or
 * `cvp:PATH` for a CVP-1 championship trace. File-backed traces are
 * truncated to max_ops instructions (0 = whole file) and an
 * unreadable file is fatal() — callers wanting a recoverable error
 * should probe with `trace::openTraceSource` first.
 *
 * Thread-safe and built once per (workload, max_ops, seed) key: an
 * in-memory sim::Memo (memo.hh) with no disk store.
 */
class TraceCache
{
  public:
    using TracePtr = std::shared_ptr<const std::vector<trace::MicroOp>>;

    /** A cached trace plus the metadata the sim layer keys on. */
    struct Info
    {
        TracePtr trace;
        /**
         * Trace identity for cache keys (TraceSource::identity plus
         * the truncation budget): equal identity => bit-identical
         * instruction stream. CheckpointCache and BaselineCache fold
         * this into their runConfigKey()-based keys so a rewritten
         * trace file can never alias a stale entry.
         */
        std::string identity;
        std::string format; ///< "synthetic", "lvpt", or "cvp"
    };

    TracePtr get(const std::string &workload, std::size_t max_ops,
                 std::uint64_t seed);

    /** Like get(), but also returning identity and format. */
    Info info(const std::string &workload, std::size_t max_ops,
              std::uint64_t seed);

    /** Number of traces actually generated (not cache hits). */
    std::uint64_t generations() const { return memo.generations(); }

    /** Drop every cached trace (test hook; not used by benches). */
    void clear() { memo.clear(); }

    /** The process-wide cache used by benches. */
    static TraceCache &instance();

  private:
    struct Loaded
    {
        std::vector<trace::MicroOp> ops;
        std::string identity;
        std::string format;
    };

    Memo<Loaded>::Ptr load(const std::string &workload,
                           std::size_t max_ops, std::uint64_t seed);

    Memo<Loaded> memo;
};

/**
 * Generate the workload trace and run it. With rc.warmupInstrs > 0
 * the run restores the memoized post-warmup checkpoint (building it
 * on first use) instead of re-simulating the warmup region —
 * bit-identical to the inline runTrace() path by construction.
 */
pipe::SimStats runWorkload(const std::string &workload,
                           pipe::LoadValuePredictor *vp,
                           const RunConfig &rc);

/**
 * The machine state after warmupInstrs instructions of one
 * (workload, RunConfig) key, plus how long it took to build
 * (wall-clock, reporting only; 0 when it was loaded from the disk
 * store). In an interval list, each checkpoint's build time covers
 * the fast-forward from the previous one.
 */
struct SimCheckpoint
{
    pipe::Core::Snapshot core;
    std::uint64_t warmupInstrs = 0;
    double buildSeconds = 0.0;
};

/**
 * Process-wide memo of post-warmup and interval checkpoints, keyed
 * by runKey(). Two sim::Memos (memo.hh) with the disk store as L2
 * under "ckpt:" keys; generations() counts only real simulations.
 */
class CheckpointCache
{
  public:
    using CheckpointPtr = std::shared_ptr<const SimCheckpoint>;

    CheckpointCache();

    /** Build (once) or fetch the checkpoint for this key. Requires
     *  rc.warmupInstrs > 0. */
    CheckpointPtr get(const std::string &workload, const RunConfig &rc);

    /**
     * Interval checkpoints for sampled runs: the machine state after
     * functionally fast-forwarding (Core::functionalWarmup) to each
     * instruction index in @p indices, which must be sorted ascending
     * with no duplicates. The whole list is one memo entry, keyed
     * like get() with "#intervals." and the indices appended, built
     * in one pass over the trace and served from the disk store when
     * enabled; the returned pointers alias that list.
     */
    std::vector<CheckpointPtr>
    getIntervals(const std::string &workload, const RunConfig &rc,
                 const std::vector<std::uint64_t> &indices);

    /** Number of checkpoints and interval lists actually simulated
     *  (not cache hits). */
    std::uint64_t generations() const
    {
        return warm.generations() + intervals.generations();
    }

    /** Total instructions functionally fast-forwarded by interval
     *  list builds (0 for lists served from memory or disk). */
    std::uint64_t ffInstructions() const
    {
        return ffInstrs.load(std::memory_order_relaxed);
    }

    /** Drop every cached checkpoint (test hook; not used by benches). */
    void clear()
    {
        warm.clear();
        intervals.clear();
    }

    /** The process-wide cache used by runWorkload(). */
    static CheckpointCache &instance();

  private:
    Memo<SimCheckpoint> warm;
    Memo<std::vector<SimCheckpoint>> intervals;
    std::atomic<std::uint64_t> ffInstrs{0};
};

} // namespace sim
} // namespace lvpsim

