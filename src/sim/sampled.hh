/**
 * @file
 * SimPoint-style sampled simulation driver (docs/sampling.md).
 *
 * runSampledWorkload() profiles the workload trace into fixed-length
 * intervals (trace/interval_profile.hh), clusters them into a
 * SamplePlan (sim/sample_plan.hh), fast-forwards functionally to each
 * representative via CheckpointCache::getIntervals(), simulates only
 * the representatives in detail (with one interval of detailed,
 * VP-active warmup each), and extrapolates every SimStats counter as
 * a weighted sum. The reported sampleError is a per-run confidence
 * bound derived from the across-representative spread of IPC and
 * prediction accuracy.
 */

#pragma once

#include <memory>
#include <string>

#include "sim/memo.hh"
#include "sim/sample_plan.hh"
#include "sim/simulator.hh"

namespace lvpsim
{
namespace sim
{

/**
 * Host seconds spent in each part of one sampled run (reporting only:
 * never part of SimStats, the results JSON or the fingerprint).
 */
struct SampledHostSeconds
{
    double plan = 0.0;        ///< plan fetch; profile + k-means on a miss
    double checkpoints = 0.0; ///< checkpoint fetch; fast-forward on a miss
    double vpTrain = 0.0;     ///< functional VP training before each rep
    double restore = 0.0;     ///< building the core, restoring into it
    double detailed = 0.0;    ///< detailed warmup, measurement, drain

    SampledHostSeconds &
    operator+=(const SampledHostSeconds &o)
    {
        plan += o.plan;
        checkpoints += o.checkpoints;
        vpTrain += o.vpTrain;
        restore += o.restore;
        detailed += o.detailed;
        return *this;
    }
};

/** Result of one sampled run: extrapolated stats plus error model. */
struct SampledRunResult
{
    /** Counters extrapolated to the full trace, each by its
     *  pipe::CounterInfo::aggregation (weighted sums; gauges take
     *  the max over representatives). */
    pipe::SimStats stats{};
    /**
     * Confidence bound on the extrapolation: the larger of the
     * relative 95% CI on IPC and the absolute 95% CI on prediction
     * accuracy across representatives, plus a fixed modeling floor
     * for warmup bias. Suite metrics from a sampled run should agree
     * with a full run to within this bound.
     */
    double sampleError = 0.0;
    std::uint64_t sampleK = 0; ///< representatives actually simulated
    std::uint64_t intervalLen = 0;
    /** Build cost of the interval checkpoints this run restored
     *  (wall-clock at original build time, reporting only — a warm
     *  rerun reports the same figure it reused, like the warmup
     *  checkpoint path). */
    double checkpointSeconds = 0.0;
    /** Where this call's own host time went. */
    SampledHostSeconds hostSeconds;
};

/**
 * Process-wide memo of sample plans, keyed by trace identity plus the
 * sampling parameters (interval length, k, seed): each distinct key
 * is profiled and clustered once. A sim::Memo (memo.hh) with the
 * disk store as L2 under "plan:" keys.
 */
class PlanCache
{
  public:
    using PlanPtr = std::shared_ptr<const SamplePlan>;

    PlanCache();

    /** Profile + cluster (once) or fetch the plan for this key.
     *  Requires rc.sampleK > 0. */
    PlanPtr get(const std::string &workload, const RunConfig &rc);

    /** Number of plans actually built (not cache hits). */
    std::uint64_t generations() const { return memo.generations(); }

    /** Drop every cached plan (test hook). */
    void clear() { memo.clear(); }

    /** The process-wide cache used by runSampledWorkload(). */
    static PlanCache &instance();

  private:
    Memo<SamplePlan> memo;
};

/**
 * Run @p workload sampled per rc.sampleK / rc.sampleIntervalLen and
 * extrapolate. Requires rc.sampleK > 0 and rc.warmupInstrs == 0
 * (sampling replaces the warmup region with functional
 * fast-forward). Deterministic: the same (workload, rc) produces a
 * bit-identical SampledRunResult on any thread count.
 */
SampledRunResult runSampledWorkload(const std::string &workload,
                                    pipe::LoadValuePredictor *vp,
                                    const RunConfig &rc);

} // namespace sim
} // namespace lvpsim
