#include "sim/simulator.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "common/sync.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"
#include "sim/sampled.hh"
#include "trace/kernel_spec.hh"
#include "trace/trace_spec.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace sim
{

namespace
{

// lvplint: allow(determinism) -- feeds only the reporting-only
// SimCheckpoint::buildSeconds field, stripped by determinism diffs
using WallClock = std::chrono::steady_clock;

double
secondsSince(WallClock::time_point t0)
{
    return std::chrono::duration<double>(WallClock::now() - t0)
        .count();
}

// Progress reporting is process-wide opt-in state (CLI --progress):
// reads/writes are relaxed because the value only gates stderr lines,
// never simulation behavior.
std::atomic<std::uint64_t> progressEvery{0};
Mutex progressPrintMx;

/** On-disk payload for one SimCheckpoint (CheckpointStore entry). */
void
encodeCheckpoint(BinWriter &w, const SimCheckpoint &ck)
{
    w.u32(pipe::kSnapshotFormatVersion);
    pipe::serializeSnapshot(w, ck.core);
    w.u64(ck.warmupInstrs);
}

/** One encodeCheckpoint() payload, not necessarily the last. */
bool
readCheckpoint(BinReader &r, SimCheckpoint &ck)
{
    if (r.u32() != pipe::kSnapshotFormatVersion)
        return false;
    pipe::deserializeSnapshot(r, ck.core);
    ck.warmupInstrs = r.u64();
    return r.ok();
}

bool
decodeCheckpoint(BinReader &r, SimCheckpoint &ck)
{
    return readCheckpoint(r, ck) && r.atEnd();
}

/** An interval list: a u64 count, then that many checkpoints. */
void
encodeIntervals(BinWriter &w, const std::vector<SimCheckpoint> &list)
{
    w.u64(list.size());
    for (const SimCheckpoint &ck : list)
        encodeCheckpoint(w, ck);
}

bool
decodeIntervals(BinReader &r, std::vector<SimCheckpoint> &list)
{
    // Every checkpoint takes at least its version and warmup fields;
    // growing one element per decoded checkpoint keeps a corrupt
    // count from allocating more than the payload can hold.
    const std::size_t n =
        r.count(sizeof(std::uint32_t) + sizeof(std::uint64_t));
    for (std::size_t i = 0; i < n; ++i)
        if (!readCheckpoint(r, list.emplace_back()))
            return false;
    return r.ok() && r.atEnd();
}

/**
 * True when a snapshot decoded from the store has the geometry of a
 * core built from @p rc, so restoring it is memory-safe; a mismatch
 * is a store miss. Building the reference core costs more than a
 * decode, so its shape is memoized per config.
 */
bool
fitsCore(const pipe::Core::Snapshot &s, const RunConfig &rc)
{
    static Memo<std::vector<std::uint64_t>> shapes;
    const auto shape = shapes.get(
        runConfigKey(rc), [&](std::vector<std::uint64_t> &out) {
            static const std::vector<trace::MicroOp> noCode;
            pipe::Core::Snapshot fresh;
            pipe::Core(rc.core, noCode, nullptr).saveState(fresh);
            out = pipe::snapshotShape(fresh);
        });
    return pipe::snapshotShape(s) == *shape;
}

} // anonymous namespace

void
setProgressReportEvery(std::uint64_t every)
{
    progressEvery.store(every, std::memory_order_relaxed);
}

std::uint64_t
progressReportEvery()
{
    return progressEvery.load(std::memory_order_relaxed);
}

void
installProgressHook(pipe::Core &core, const std::string &label)
{
    const std::uint64_t every = progressReportEvery();
    if (every == 0)
        return;
    core.setProgressHook(every, [label](std::uint64_t committed) {
        // One line per tick; serialized so --jobs runs don't
        // interleave partial lines. stderr only: --json output (and
        // the determinism diff) never sees these.
        MutexLock lk(progressPrintMx);
        std::fprintf(stderr, "progress: %s %" PRIu64 " instructions\n",
                     label.c_str(), committed);
    });
}

pipe::SimStats
runTrace(const std::vector<trace::MicroOp> &ops,
         pipe::LoadValuePredictor *vp, const RunConfig &rc)
{
    pipe::Core core(rc.core, ops, vp);
    installProgressHook(core, "run");
    if (rc.warmupInstrs)
        core.warmup(rc.warmupInstrs);
    return core.run();
}

std::string
runConfigKey(const RunConfig &rc)
{
    // Every field of RunConfig (and its nested configs) must appear
    // here: the key is what makes "same key => same results" true for
    // CheckpointCache and BaselineCache. Append-only, '.'-separated.
    std::string k;
    k.reserve(256);
    const auto add = [&k](std::uint64_t v) {
        k += std::to_string(v);
        k += '.';
    };
    add(rc.maxInstrs);
    add(rc.warmupInstrs);
    add(rc.traceSeed);
    add(rc.sampleK);
    add(rc.sampleIntervalLen);

    const pipe::CoreConfig &c = rc.core;
    add(c.fetchWidth);
    add(c.issueWidth);
    add(c.lsLanes);
    add(c.retireWidth);
    add(c.robSize);
    add(c.iqSize);
    add(c.ldqSize);
    add(c.stqSize);
    add(c.fetchToExecute);
    add(c.paqSize);
    add(c.intAluLat);
    add(c.intMulLat);
    add(c.intDivLat);
    add(c.fpLat);
    add(c.branchLat);
    add(c.storeLat);
    add(c.stlfLat);

    const auto addCache = [&](const mem::CacheConfig &cc) {
        add(cc.sizeBytes);
        add(cc.assoc);
        add(cc.blockSize);
        add(cc.accessLatency);
    };
    addCache(c.memory.l1i);
    addCache(c.memory.l1d);
    addCache(c.memory.l2);
    addCache(c.memory.l3);
    add(c.memory.memoryLatency);
    add(c.memory.enablePrefetch ? 1 : 0);

    add(c.tage.numTables);
    add(c.tage.logBase);
    add(c.tage.logTagged);
    add(c.tage.tagBits);
    add(c.tage.minHist);
    add(c.tage.maxHist);
    add(c.tage.counterBits);
    add(c.tage.usefulBits);

    add(c.ittage.numTables);
    add(c.ittage.logBase);
    add(c.ittage.logTagged);
    add(c.ittage.tagBits);
    add(c.ittage.minHist);
    add(c.ittage.maxHist);

    add(c.rasDepth);
    add(c.seed);
    return k;
}

std::string
runKey(const std::string &workload, const RunConfig &rc)
{
    return runConfigKey(rc) + "#" +
           TraceCache::instance()
               .info(workload, rc.maxInstrs + rc.warmupInstrs,
                     rc.traceSeed)
               .identity;
}

TraceCache &
TraceCache::instance()
{
    static TraceCache c;
    return c;
}

Memo<TraceCache::Loaded>::Ptr
TraceCache::load(const std::string &workload, std::size_t max_ops,
                 std::uint64_t seed)
{
    const std::string key = workload + "#" +
                            std::to_string(max_ops) + "#" +
                            std::to_string(seed);
    return memo.get(key, [&](Loaded &t) {
        const trace::TraceSpec spec = trace::parseTraceSpec(workload);
        if (spec.kind == trace::TraceKind::Synthetic) {
            // Identical to the historical path: generateWorkload
            // output, bit for bit, and an identity that needs no
            // file hashing.
            t.ops = trace::generateWorkload(spec.name, max_ops, seed);
            // Canonicalized so equivalent kernel-spec spellings
            // share TraceCache / checkpoint-cache entries.
            t.identity = "synth:" +
                         trace::canonicalSyntheticName(spec.name) +
                         "#" + std::to_string(max_ops) + "#" +
                         std::to_string(seed);
            t.format = "synthetic";
            return;
        }
        std::string err;
        auto src = trace::openTraceSource(spec, max_ops, seed, &err);
        if (!src) {
            lvp_fatal("cannot open trace '%s': %s", spec.name.c_str(),
                      err.c_str());
        }
        // File traces are truncated to the run's instruction budget;
        // the cap is part of the identity because it changes the
        // delivered stream.
        t.ops = trace::materialize(*src, max_ops);
        t.identity = src->identity() + "#cap" + std::to_string(max_ops);
        t.format = src->format();
    });
}

TraceCache::TracePtr
TraceCache::get(const std::string &workload, std::size_t max_ops,
                std::uint64_t seed)
{
    auto t = load(workload, max_ops, seed);
    return TracePtr(t, &t->ops);
}

TraceCache::Info
TraceCache::info(const std::string &workload, std::size_t max_ops,
                 std::uint64_t seed)
{
    auto t = load(workload, max_ops, seed);
    return Info{TracePtr(t, &t->ops), t->identity, t->format};
}

CheckpointCache::CheckpointCache()
    : warm({"ckpt:", encodeCheckpoint, decodeCheckpoint}),
      intervals({"ckpt:", encodeIntervals, decodeIntervals})
{
}

CheckpointCache &
CheckpointCache::instance()
{
    static CheckpointCache c;
    return c;
}

CheckpointCache::CheckpointPtr
CheckpointCache::get(const std::string &workload, const RunConfig &rc)
{
    lvp_assert(rc.warmupInstrs > 0,
               "CheckpointCache::get with zero warmup");
    return warm.get(
        runKey(workload, rc),
        [&](SimCheckpoint &ck) {
            const auto t0 = WallClock::now();
            auto ops = TraceCache::instance().get(
                workload, rc.maxInstrs + rc.warmupInstrs,
                rc.traceSeed);
            pipe::Core core(rc.core, *ops, nullptr);
            core.warmup(rc.warmupInstrs);
            core.saveState(ck.core);
            ck.warmupInstrs = rc.warmupInstrs;
            ck.buildSeconds = secondsSince(t0);
        },
        [&](const SimCheckpoint &ck) {
            return ck.warmupInstrs == rc.warmupInstrs &&
                   fitsCore(ck.core, rc);
        });
}

std::vector<CheckpointCache::CheckpointPtr>
CheckpointCache::getIntervals(const std::string &workload,
                              const RunConfig &rc,
                              const std::vector<std::uint64_t> &indices)
{
    std::string key = runKey(workload, rc) + "#intervals";
    for (std::size_t i = 0; i < indices.size(); ++i) {
        lvp_assert(i == 0 || indices[i - 1] < indices[i],
                   "interval indices must be ascending and unique");
        key += '.' + std::to_string(indices[i]);
    }
    const auto list = intervals.get(
        key,
        [&](std::vector<SimCheckpoint> &out) {
            auto ops = TraceCache::instance().get(
                workload, rc.maxInstrs + rc.warmupInstrs,
                rc.traceSeed);
            pipe::Core core(rc.core, *ops, nullptr);
            installProgressHook(core, workload + " (warmup)");
            out.resize(indices.size());
            for (std::size_t i = 0; i < indices.size(); ++i) {
                const auto t0 = WallClock::now();
                const std::uint64_t step =
                    indices[i] - (i ? indices[i - 1] : 0);
                core.functionalWarmup(step);
                ffInstrs.fetch_add(step, std::memory_order_relaxed);
                core.saveState(out[i].core);
                out[i].warmupInstrs = indices[i];
                out[i].buildSeconds = secondsSince(t0);
            }
        },
        [&](const std::vector<SimCheckpoint> &list) {
            if (list.size() != indices.size())
                return false;
            for (std::size_t i = 0; i < list.size(); ++i)
                if (list[i].warmupInstrs != indices[i] ||
                    !fitsCore(list[i].core, rc))
                    return false;
            return true;
        });
    std::vector<CheckpointPtr> out;
    out.reserve(list->size());
    for (const SimCheckpoint &ck : *list)
        out.emplace_back(list, &ck);
    return out;
}

pipe::SimStats
runWorkload(const std::string &workload, pipe::LoadValuePredictor *vp,
            const RunConfig &rc)
{
    if (rc.sampleK > 0)
        return runSampledWorkload(workload, vp, rc).stats;
    auto ops = TraceCache::instance().get(
        workload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
    if (rc.warmupInstrs == 0)
        return runTrace(*ops, vp, rc);
    // Start from the memoized post-warmup state instead of
    // re-simulating the warmup region; bit-identical to the inline
    // path because the warmup region never touches the (freshly
    // constructed) VP.
    auto ckpt = CheckpointCache::instance().get(workload, rc);
    pipe::Core core(rc.core, *ops, vp, ckpt->core);
    installProgressHook(core, workload);
    return core.run();
}

} // namespace sim
} // namespace lvpsim
