#include "sim/sampled.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/binio.hh"
#include "common/logging.hh"
#include "core/lvp_interface.hh"
#include "pipeline/snapshot_io.hh"
#include "trace/instruction.hh"
#include "trace/interval_profile.hh"

namespace lvpsim
{
namespace sim
{

namespace
{

// lvplint: allow(determinism) -- feeds only SampledRunResult's
// reporting-only host-seconds fields
using Clock = std::chrono::steady_clock;

/**
 * Fixed modeling floor added to the statistical confidence bound:
 * functional fast-forward trains branch predictors exactly and the
 * value predictor at commit order (below), but warms caches without
 * speculative wrong-path accesses and leaves the memory-dependence
 * predictor cold, so even a zero-variance sample carries a small
 * bias (~3% worst-case on the suite: functional warming has no
 * wrong-path cache pollution). The detailed one-interval warmup
 * before each measurement keeps the residual under this floor
 * (locked by the sampled_vs_full bench gate).
 */
constexpr double kSampleErrorFloor = 0.03;

/**
 * Functional VP-training window before each measurement, in
 * intervals. Value-predictor tables saturate within a few thousand
 * hot-PC hits, so training on the whole fast-forwarded gap buys no
 * accuracy over a bounded suffix — it only erodes the sampling
 * speedup (the training pass costs real table lookups per load).
 * Eight intervals at the default interval length is several times
 * the composite's table capacity in loads.
 */
constexpr std::uint64_t kVpWarmIntervals = 8;

/**
 * Two-sided 95% Student-t quantile by degrees of freedom (clamped
 * into [1, 15]; the normal 1.96 serves beyond that). With a handful
 * of strata the normal quantile understates the uncertainty of the
 * across-representative spread noticeably — at K = 8 the honest
 * factor is 2.365, not 1.96.
 */
double
t95(std::size_t dof)
{
    static constexpr double q[] = {12.71, 4.30, 3.18, 2.78, 2.57,
                                   2.45,  2.36, 2.31, 2.26, 2.23,
                                   2.20,  2.18, 2.16, 2.14, 2.13};
    if (dof < 1)
        dof = 1;
    return dof <= 15 ? q[dof - 1] : 1.96;
}

/**
 * Train the value predictor on the fast-forwarded region
 * [@p from, @p to) of the trace, mirroring the detailed pipeline's
 * commit-order training sequence: notifyBranch for every control op,
 * probe + notifyLoad + immediate train for every predictable load.
 * Without a pipeline no prediction is ever consumed, so outcomes
 * carry predictionUsed = false — the same convention the core uses
 * for its own warmup region. This is what lets a 10K-instruction
 * measurement report the coverage of a predictor with the full
 * training history behind it instead of a freshly-zeroed one.
 */
void
functionalVpTrain(const std::vector<trace::MicroOp> &ops,
                  std::uint64_t from, std::uint64_t to,
                  pipe::LoadValuePredictor &vp, std::uint64_t &token)
{
    std::uint64_t retired = 0;
    for (std::uint64_t i = from; i < to; ++i) {
        const trace::MicroOp &op = ops[i];
        if (op.isBranch()) {
            vp.notifyBranch(op.pc, op.taken, op.target);
        } else if (op.isPredictableLoad()) {
            pipe::LoadProbe probe;
            probe.pc = op.pc;
            probe.token = token++;
            (void)vp.predict(probe);
            vp.notifyLoad(op.pc);
            pipe::LoadOutcome out;
            out.pc = op.pc;
            out.token = probe.token;
            out.effAddr = op.effAddr;
            out.size = op.memSize;
            out.value = op.memValue;
            vp.train(out);
        }
        if (++retired == 1024) {
            vp.onRetire(retired);
            retired = 0;
        }
    }
    if (retired)
        vp.onRetire(retired);
}

void
encodePlan(BinWriter &w, const SamplePlan &plan)
{
    w.u32(pipe::kSnapshotFormatVersion);
    w.u64(plan.intervalLen);
    w.u64(plan.totalInstructions);
    w.u64(plan.reps.size());
    for (const SampleRep &rep : plan.reps) {
        w.u32(rep.interval);
        w.u64(rep.weightInstructions);
        w.u32(rep.clusterSize);
    }
    w.u64(plan.assignment.size());
    for (std::uint32_t a : plan.assignment)
        w.u32(a);
}

bool
decodePlan(BinReader &r, SamplePlan &plan)
{
    if (r.u32() != pipe::kSnapshotFormatVersion)
        return false;
    plan.intervalLen = r.u64();
    plan.totalInstructions = r.u64();
    const std::size_t nReps = r.count(16);
    plan.reps.resize(r.ok() ? nReps : 0);
    for (SampleRep &rep : plan.reps) {
        rep.interval = r.u32();
        rep.weightInstructions = r.u64();
        rep.clusterSize = r.u32();
    }
    const std::size_t nAssign = r.count(4);
    plan.assignment.resize(r.ok() ? nAssign : 0);
    for (std::uint32_t &a : plan.assignment)
        a = r.u32();
    // Structural cross-checks mirror what buildSamplePlan guarantees;
    // a violation means a foreign/corrupt payload, so force a miss.
    if (!r.ok() || !r.atEnd() || plan.intervalLen == 0)
        return false;
    for (std::uint32_t a : plan.assignment)
        if (a >= plan.reps.size())
            return false;
    return true;
}

} // anonymous namespace

PlanCache::PlanCache() : memo({"plan:", encodePlan, decodePlan}) {}

PlanCache &
PlanCache::instance()
{
    static PlanCache c;
    return c;
}

PlanCache::PlanPtr
PlanCache::get(const std::string &workload, const RunConfig &rc)
{
    lvp_assert(rc.sampleK > 0, "PlanCache::get with sampleK == 0");
    lvp_assert(rc.sampleIntervalLen > 0,
               "sample interval length must be positive");
    // Key on the trace identity (content hash for file-backed
    // traces) plus everything that shapes the plan.
    const auto info = TraceCache::instance().info(
        workload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
    const std::string key =
        info.identity + "#L" + std::to_string(rc.sampleIntervalLen) +
        "#k" + std::to_string(rc.sampleK) + "#s" +
        std::to_string(rc.traceSeed);
    return memo.get(key, [&](SamplePlan &plan) {
        plan = buildSamplePlan(
            trace::profileTrace(*info.trace, rc.sampleIntervalLen),
            rc.sampleK, rc.traceSeed);
    });
}

SampledRunResult
runSampledWorkload(const std::string &workload,
                   pipe::LoadValuePredictor *vp, const RunConfig &rc)
{
    lvp_assert(rc.sampleK > 0,
               "runSampledWorkload with sampleK == 0");
    lvp_assert(rc.warmupInstrs == 0,
               "sampled runs replace warmupInstrs with functional "
               "fast-forward; use one or the other");

    SampledRunResult out;
    SampledHostSeconds &host = out.hostSeconds;
    auto lap = [t = Clock::now()](double &part) mutable {
        const auto now = Clock::now();
        part += std::chrono::duration<double>(now - t).count();
        t = now;
    };

    auto ops = TraceCache::instance().get(workload, rc.maxInstrs,
                                          rc.traceSeed);
    auto plan = PlanCache::instance().get(workload, rc);
    lap(host.plan);

    out.intervalLen = plan->intervalLen;
    out.sampleK = plan->reps.size();
    if (plan->reps.empty())
        return out; // empty trace: all-zero stats

    const std::uint64_t L = plan->intervalLen;
    const std::uint64_t N = plan->totalInstructions;

    // Checkpoint per representative: one interval *before* its start
    // (clamped to the trace head) so each measurement is preceded by
    // up to L instructions of detailed, VP-active warmup. Adjacent
    // representatives near the head can share a checkpoint, so the
    // index list is deduplicated before the batch build.
    std::vector<std::uint64_t> ckIdx(plan->reps.size());
    std::vector<std::size_t> ckPos(plan->reps.size());
    std::vector<std::uint64_t> unique;
    for (std::size_t r = 0; r < plan->reps.size(); ++r) {
        const std::uint64_t start = plan->reps[r].interval * L;
        ckIdx[r] = start - std::min(L, start);
        if (unique.empty() || unique.back() != ckIdx[r])
            unique.push_back(ckIdx[r]);
        ckPos[r] = unique.size() - 1;
    }
    const auto ckpts =
        CheckpointCache::instance().getIntervals(workload, rc, unique);
    for (const auto &ck : ckpts)
        out.checkpointSeconds += ck->buildSeconds;
    lap(host.checkpoints);

    // ---- Simulate the representatives ----------------------------
    // Fixed iteration order (ascending interval index) so a shared
    // predictor instance sees the same training sequence on every
    // run, regardless of thread count.
    const std::vector<pipe::CounterInfo> &counters = pipe::counters();
    std::vector<double> acc(counters.size(), 0.0);
    std::vector<std::uint64_t> peak(counters.size(), 0);
    std::vector<double> repIpc, repAcc, repFrac;

    // Functional VP training streams every fast-forwarded load
    // through the predictor so each measurement sees the full
    // training history, not just the detailed warmup interval. The
    // position tracks how far the predictor has seen the trace
    // (functionally or detailed); the token counter lives far above
    // the cores' own so the ranges can never meet.
    std::uint64_t vpPos = 0;
    std::uint64_t vpToken = std::uint64_t(1) << 62;

    // One core for the whole cell, built from the first
    // representative's checkpoint and restored for each later one:
    // restoreState() overwrites every field of the core's State and
    // rebuilds the scheduler indices from it, so a reused core resumes
    // exactly like a fresh one (the k = 3 composite+sampled rows of
    // the behaviour fingerprint pin this).
    pipe::Core core(rc.core, *ops, vp, ckpts[ckPos[0]]->core);
    lap(host.restore);

    for (std::size_t r = 0; r < plan->reps.size(); ++r) {
        const SampleRep &rep = plan->reps[r];
        const std::uint64_t start = rep.interval * L;
        lvp_assert(start < N, "representative beyond trace end");
        const std::uint64_t len = std::min(L, N - start);
        const std::uint64_t warm = start - ckIdx[r];

        if (ckIdx[r] > vpPos) {
            const std::uint64_t window = kVpWarmIntervals * L;
            const std::uint64_t from = std::max(
                vpPos, ckIdx[r] - std::min(window, ckIdx[r]));
            functionalVpTrain(*ops, from, ckIdx[r], *vp, vpToken);
            vpPos = ckIdx[r];
        }
        lap(host.vpTrain);

        if (r > 0)
            core.restoreState(ckpts[ckPos[r]]->core);
        installProgressHook(core, workload);
        lap(host.restore);
        if (warm)
            core.run(warm); // detailed VP-active warmup, discarded
        const pipe::SimStats st = core.run(len);
        // Run the window dry so the shared predictor carries no
        // per-token state into the next representative.
        core.drain();
        lap(host.detailed);
        vpPos = std::max(vpPos, ckIdx[r] + warm + st.instructions);

        // Weighted-sum extrapolation: each counter scales by the
        // instructions this representative stands for, divided by
        // the instructions actually measured. Gauges (high-water
        // marks) are not rates: they take the max instead.
        const double scale =
            st.instructions
                ? double(rep.weightInstructions) /
                      double(st.instructions)
                : 0.0;
        for (std::size_t d = 0; d < counters.size(); ++d) {
            const std::uint64_t v = counters[d].value(st);
            acc[d] += scale * double(v);
            peak[d] = std::max(peak[d], v);
        }

        repIpc.push_back(st.ipc());
        repAcc.push_back(st.accuracy());
        repFrac.push_back(double(rep.weightInstructions) /
                          double(N));
    }

    for (std::size_t d = 0; d < counters.size(); ++d)
        counters[d].value(out.stats) =
            counters[d].aggregation == pipe::Aggregation::Max
                ? peak[d]
                : std::uint64_t(std::llround(acc[d]));

    // ---- Confidence bound ----------------------------------------
    // Weighted across-representative spread with Bessel's correction
    // and the Student-t 95% quantile for K - 1 degrees of freedom:
    // relative on IPC, absolute on accuracy; whichever is larger,
    // plus the modeling floor for functional-warmup bias.
    const std::size_t K = plan->reps.size();
    double muIpc = 0.0, muAcc = 0.0;
    for (std::size_t r = 0; r < K; ++r) {
        muIpc += repFrac[r] * repIpc[r];
        muAcc += repFrac[r] * repAcc[r];
    }
    double varIpc = 0.0, varAcc = 0.0;
    for (std::size_t r = 0; r < K; ++r) {
        varIpc += repFrac[r] * (repIpc[r] - muIpc) *
                  (repIpc[r] - muIpc);
        varAcc += repFrac[r] * (repAcc[r] - muAcc) *
                  (repAcc[r] - muAcc);
    }
    const double scaleCi =
        K > 1 ? t95(K - 1) / std::sqrt(double(K - 1)) : 0.0;
    const double ciIpc =
        muIpc > 0.0 ? scaleCi * std::sqrt(varIpc) / muIpc : 0.0;
    const double ciAcc = scaleCi * std::sqrt(varAcc);
    out.sampleError = std::max(ciIpc, ciAcc) + kSampleErrorFloor;
    return out;
}

} // namespace sim
} // namespace lvpsim
