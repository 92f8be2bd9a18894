#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "branch/ittage.hh"
#include "branch/ras.hh"
#include "branch/tage.hh"
#include "common/binio.hh"
#include "memory/hierarchy.hh"
#include "pipeline/core.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"
#include "sim/experiment.hh"
#include "sim/results_json.hh"
#include "sim/sample_plan.hh"
#include "sim/sampled.hh"
#include "trace/interval_profile.hh"

namespace lvpbench
{

using namespace lvpsim;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** Per-kernel instruction budget of the pipeline probe. */
constexpr std::size_t kPipelinePrefix = 50000;
/** Per-kernel warmup length of the warmup, snapshot and store probes. */
constexpr std::size_t kWarmupProbe = 40000;
/** Emissions per result row in the JSON probe (it is very fast). */
constexpr int kJsonReps = 20;

double
perUnit(double total, double units)
{
    return units > 0.0 ? total / units : 0.0;
}

/** One access of a kernel's committed memory stream. */
struct Access
{
    Addr pc = 0;
    Addr addr = 0;
    enum Kind : std::uint8_t { Fetch, Load, Store } kind = Fetch;
};

} // anonymous namespace

void
VpLedger::add(std::uint64_t c, std::uint64_t p, std::uint64_t u,
              std::uint64_t n)
{
    MutexLock lk(mx);
    nCalls += c;
    nPredicts += p;
    nUseful += u;
    nNs += n;
}

std::uint64_t
VpLedger::calls() const
{
    MutexLock lk(mx);
    return nCalls;
}

std::uint64_t
VpLedger::predicts() const
{
    MutexLock lk(mx);
    return nPredicts;
}

std::uint64_t
VpLedger::useful() const
{
    MutexLock lk(mx);
    return nUseful;
}

std::uint64_t
VpLedger::ns() const
{
    MutexLock lk(mx);
    return nNs;
}

TimedPredictor::TimedPredictor(
    std::unique_ptr<pipe::LoadValuePredictor> wrapped, VpLedger &sink)
    : inner(std::move(wrapped)), ledger(sink)
{
}

TimedPredictor::~TimedPredictor()
{
    ledger.add(calls, predicts, useful, ns);
}

pipe::Prediction
TimedPredictor::predict(const pipe::LoadProbe &probe)
{
    const auto t0 = Clock::now();
    const auto p = inner->predict(probe);
    ns += nsSince(t0);
    ++calls;
    ++predicts;
    return p;
}

void
TimedPredictor::train(const pipe::LoadOutcome &outcome)
{
    const auto t0 = Clock::now();
    inner->train(outcome);
    ns += nsSince(t0);
    ++calls;
    useful += outcome.predictionUsed && outcome.predictionCorrect;
}

void
TimedPredictor::abandon(std::uint64_t token)
{
    const auto t0 = Clock::now();
    inner->abandon(token);
    ns += nsSince(t0);
    ++calls;
}

void
TimedPredictor::notifyBranch(Addr pc, bool taken, Addr target)
{
    const auto t0 = Clock::now();
    inner->notifyBranch(pc, taken, target);
    ns += nsSince(t0);
    ++calls;
}

void
TimedPredictor::notifyLoad(Addr pc)
{
    const auto t0 = Clock::now();
    inner->notifyLoad(pc);
    ns += nsSince(t0);
    ++calls;
}

void
TimedPredictor::onRetire(std::uint64_t n)
{
    const auto t0 = Clock::now();
    inner->onRetire(n);
    ns += nsSince(t0);
    ++calls;
}

std::size_t
TimedPredictor::pendingProbes() const
{
    return inner->pendingProbes();
}

std::size_t
TimedPredictor::pendingProbesPeak() const
{
    return inner->pendingProbesPeak();
}

std::uint64_t
TimedPredictor::storageBits() const
{
    return inner->storageBits();
}

const char *
TimedPredictor::name() const
{
    return inner->name();
}

void
probeLayers(const ProbeInput &in, std::map<std::string, double> &out)
{
    auto &traces = sim::TraceCache::instance();
    auto &ckpts = sim::CheckpointCache::instance();
    const pipe::CoreConfig core{};
    const std::size_t K = in.kernels.size();

    std::vector<sim::TraceCache::TracePtr> ops;
    double instrs = 0.0;
    for (const auto &k : in.kernels) {
        ops.push_back(traces.get(k, in.traceLen, in.seed));
        instrs += double(ops.back()->size());
    }

    // ---- trace: interval profiling; sim: k-means plan build ----
    std::vector<trace::IntervalProfile> profiles;
    std::uint64_t profileNs = 0;
    for (const auto &t : ops) {
        const auto t0 = Clock::now();
        profiles.push_back(trace::profileTrace(*t, in.intervalLen));
        profileNs += nsSince(t0);
    }
    out["trace.profile_ns_per_instr"] = perUnit(profileNs, instrs);
    std::uint64_t planNs = 0;
    for (const auto &p : profiles) {
        const auto t0 = Clock::now();
        const auto plan = sim::buildSamplePlan(p, in.sampleK, in.seed);
        planNs += nsSince(t0);
        if (plan.reps.empty())
            throw std::runtime_error("plan probe: empty sample plan");
    }
    out["sim.plan_build_ms"] = perUnit(planNs / 1e6, K);

    // ---- branch: the committed control stream through standalone
    // TAGE / ITTAGE / RAS, in Core::fetchOne's first-fetch order ----
    std::uint64_t branchNs = 0, branches = 0, condMiss = 0,
                  indirMiss = 0;
    for (const auto &t : ops) {
        std::vector<trace::MicroOp> stream;
        for (const auto &op : *t)
            if (op.isBranch())
                stream.push_back(op);
        branch::Tage tage(core.tage, core.seed ^ 0x7a9e);
        branch::Ittage ittage(core.ittage, core.seed ^ 0x177a9e);
        branch::ReturnAddressStack ras(core.rasDepth);
        const auto t0 = Clock::now();
        for (const auto &op : stream) {
            switch (op.cls) {
              case trace::OpClass::Branch:
                condMiss += tage.predict(op.pc) != op.taken;
                tage.update(op.pc, op.taken);
                break;
              case trace::OpClass::Call:
                ras.push(op.pc + 4);
                tage.updateHistoryOnly(op.pc, true);
                break;
              case trace::OpClass::Ret:
                indirMiss += ras.pop() != op.target;
                tage.updateHistoryOnly(op.pc, true);
                break;
              case trace::OpClass::IndirBr:
                indirMiss += ittage.predict(op.pc) != op.target;
                ittage.update(op.pc, op.target);
                tage.updateHistoryOnly(op.pc, true);
                break;
              default:
                break;
            }
        }
        branchNs += nsSince(t0);
        branches += stream.size();
    }
    out["branch.ns_per_branch"] = perUnit(branchNs, branches);
    out["branch.cond_mpki"] = perUnit(1000.0 * condMiss, instrs);
    out["branch.indirect_mpki"] = perUnit(1000.0 * indirMiss, instrs);

    // ---- memory: fetch-block and load/store stream through a
    // standalone MemoryHierarchy ----
    std::uint64_t memNs = 0, accesses = 0, dataAccesses = 0,
                  l1dMisses = 0, l2Misses = 0;
    for (const auto &t : ops) {
        std::vector<Access> stream;
        Addr lastBlock = ~Addr(0);
        for (const auto &op : *t) {
            if ((op.pc >> 6) != lastBlock) {
                lastBlock = op.pc >> 6;
                stream.push_back({op.pc, 0, Access::Fetch});
            }
            if (op.isLoad())
                stream.push_back({op.pc, op.effAddr, Access::Load});
            else if (op.isStore())
                stream.push_back({op.pc, op.effAddr, Access::Store});
        }
        mem::MemoryHierarchy hier(core.memory);
        const auto t0 = Clock::now();
        for (const auto &a : stream) {
            if (a.kind == Access::Fetch) {
                (void)hier.instFetch(a.pc);
                continue;
            }
            const auto r =
                hier.dataAccess(a.pc, a.addr, a.kind == Access::Store);
            ++dataAccesses;
            if (!r.l1Hit) {
                ++l1dMisses;
                l2Misses += !r.l2Hit;
            }
        }
        memNs += nsSince(t0);
        accesses += stream.size();
    }
    out["memory.ns_per_access"] = perUnit(memNs, accesses);
    out["memory.l1d_miss_rate"] = perUnit(l1dMisses, dataAccesses);
    out["memory.l2_miss_rate"] = perUnit(l2Misses, l1dMisses);

    // ---- pipeline: sim::runTrace on a prefix of each kernel, timed
    // with the bare predictor; a second, decorated VP run of the same
    // prefix measures the predictor's share for the estimate below ----
    sim::RunConfig rcRun;
    rcRun.traceSeed = in.seed;
    std::uint64_t baseNs = 0, vpNs = 0, baseInstrs = 0, vpInstrs = 0,
                  cycles = 0;
    VpLedger probeLedger;
    for (const auto &t : ops) {
        const std::vector<trace::MicroOp> prefix(
            t->begin(),
            t->begin() + std::min(t->size(), kPipelinePrefix));
        auto t0 = Clock::now();
        const auto base = sim::runTrace(prefix, nullptr, rcRun);
        baseNs += nsSince(t0);
        const auto vp = in.makeVp();
        t0 = Clock::now();
        const auto withVp = sim::runTrace(prefix, vp.get(), rcRun);
        vpNs += nsSince(t0);
        TimedPredictor timed(in.makeVp(), probeLedger);
        (void)sim::runTrace(prefix, &timed, rcRun);
        baseInstrs += base.instructions;
        vpInstrs += withVp.instructions;
        cycles += base.cycles + withVp.cycles;
    }
    const double runVp = perUnit(vpNs, vpInstrs);
    out["pipeline.run_ns_per_instr.base"] = perUnit(baseNs, baseInstrs);
    out["pipeline.run_ns_per_instr.vp"] = runVp;
    out["pipeline.ns_per_cycle"] = perUnit(baseNs + vpNs, cycles);
    // Estimate, not a measurement: what is left of a bare VP run once
    // the predictor calls (from the decorated run) and the standalone
    // branch and memory replays (per committed instruction) are taken
    // out.
    out["pipeline.sched_ns_per_instr"] =
        runVp - perUnit(probeLedger.ns(), vpInstrs) -
        perUnit(branchNs, instrs) - perUnit(memNs, instrs);

    // ---- pipeline: Core::warmup, snapshot encode / decode ----
    const std::size_t W = std::min(in.traceLen / 2, kWarmupProbe);
    std::uint64_t warmNs = 0, warmInstrs = 0, encNs = 0, decNs = 0,
                  bytes = 0;
    for (const auto &t : ops) {
        pipe::Core c(core, *t, nullptr);
        auto t0 = Clock::now();
        c.warmup(W);
        warmNs += nsSince(t0);
        warmInstrs += W;
        pipe::Core::Snapshot snap;
        c.saveState(snap);
        BinWriter w;
        t0 = Clock::now();
        pipe::serializeSnapshot(w, snap);
        encNs += nsSince(t0);
        bytes += w.size();
        BinReader r(w.buffer());
        pipe::Core::Snapshot back;
        t0 = Clock::now();
        pipe::deserializeSnapshot(r, back);
        decNs += nsSince(t0);
        if (!r.ok() || !r.atEnd())
            throw std::runtime_error("snapshot probe: decode failed");
    }
    out["pipeline.warmup_ns_per_instr"] = perUnit(warmNs, warmInstrs);
    out["pipeline.snapshot_encode_us"] = perUnit(encNs / 1e3, K);
    out["pipeline.snapshot_decode_us"] = perUnit(decNs / 1e3, K);
    out["pipeline.snapshot_bytes"] = perUnit(bytes, K);

    // ---- pipeline / sim: functional fast-forward through
    // CheckpointCache::getIntervals (store off, empty memo) ----
    sim::RunConfig rcSampled;
    rcSampled.maxInstrs = in.traceLen;
    rcSampled.traceSeed = in.seed;
    rcSampled.sampleK = in.sampleK;
    rcSampled.sampleIntervalLen = in.intervalLen;
    ckpts.clear();
    const std::uint64_t ff0 = ckpts.ffInstructions();
    std::uint64_t intervalsNs = 0;
    for (std::size_t i = 0; i < K; ++i) {
        const std::uint64_t n = ops[i]->size();
        const std::vector<std::uint64_t> idx{n / 4, n / 2, 3 * n / 4};
        const auto t0 = Clock::now();
        (void)ckpts.getIntervals(in.kernels[i], rcSampled, idx);
        intervalsNs += nsSince(t0);
    }
    out["pipeline.ffwd_ns_per_instr"] =
        perUnit(intervalsNs, ckpts.ffInstructions() - ff0);
    out["sim.intervals_ms"] = perUnit(intervalsNs / 1e6, K);
    ckpts.clear();

    // ---- sim: CheckpointCache::get served from a temporary store
    // (publish on the first pass, read + decode on the second) ----
    auto &store = sim::CheckpointStore::instance();
    store.configure(in.storeDir, 0);
    if (!store.enabled())
        throw std::runtime_error("store probe: unusable directory " +
                                 in.storeDir);
    sim::RunConfig rcWarm;
    rcWarm.maxInstrs = in.traceLen - W;
    rcWarm.warmupInstrs = W;
    rcWarm.traceSeed = in.seed;
    const std::uint64_t misses0 = store.misses();
    for (const auto &k : in.kernels)
        (void)ckpts.get(k, rcWarm);
    const std::uint64_t fillMisses = store.misses() - misses0;
    ckpts.clear();
    const std::uint64_t hits0 = store.hits();
    std::uint64_t getNs = 0;
    for (const auto &k : in.kernels) {
        const auto t0 = Clock::now();
        (void)ckpts.get(k, rcWarm);
        getNs += nsSince(t0);
    }
    const std::uint64_t readHits = store.hits() - hits0;
    store.configure("", 0);
    ckpts.clear();
    std::filesystem::remove_all(in.storeDir);
    if (readHits != K)
        throw std::runtime_error("store probe: checkpoint reads missed");
    out["sim.ckpt_get_ms"] = perUnit(getNs / 1e6, K);
    out["sim.store_misses"] = double(fillMisses);
    out["sim.store_hits"] = double(readHits);

    // ---- sim: results JSON, one row per cell result ----
    std::uint64_t jsonNs = 0;
    for (int rep = 0; rep < kJsonReps; ++rep) {
        for (const auto &s : in.resultRows) {
            sim::WorkloadResult row;
            row.workload = "row";
            row.base = s;
            row.withVp = s;
            std::ostringstream os;
            const auto t0 = Clock::now();
            sim::toJson(row).dump(os);
            jsonNs += nsSince(t0);
        }
    }
    out["sim.json_us_per_row"] = perUnit(
        jsonNs / 1e3, double(kJsonReps) * double(in.resultRows.size()));
}

} // namespace lvpbench
