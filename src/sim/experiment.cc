#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/mathutils.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/parallel_executor.hh"
#include "sim/sampled.hh"

namespace lvpsim
{
namespace sim
{

namespace
{

// lvplint: allow(determinism) -- feeds only the *_seconds timing
// fields, which check_determinism.sh strips before diffing
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double nan = std::numeric_limits<double>::quiet_NaN();

/** On-disk payload for one baseline (CheckpointStore "base:" entry).
 *  The timing fields ride along so warm runs can still report a
 *  meaningful serial-seconds estimate for the build. */
void
encodeBaseline(BinWriter &w, const BaselineCache::Entry &e)
{
    w.u32(pipe::kSnapshotFormatVersion);
    pipe::serializeSnapshot(w, e.stats);
    w.f64(e.seconds);
    w.f64(e.checkpointSeconds);
}

bool
decodeBaseline(BinReader &r, BaselineCache::Entry &e)
{
    if (r.u32() != pipe::kSnapshotFormatVersion)
        return false;
    pipe::deserializeSnapshot(r, e.stats);
    e.seconds = r.f64();
    e.checkpointSeconds = r.f64();
    return r.ok() && r.atEnd();
}

} // anonymous namespace

double
SuiteResult::geomeanSpeedup() const
{
    // An empty suite or a degenerate zero-IPC row has no defined
    // geomean. Report NaN (the JSON writer emits null) instead of
    // tripping geoMean's asserts mid-report.
    if (rows.empty())
        return nan;
    std::vector<double> base_ipc, vp_ipc;
    for (const auto &r : rows) {
        if (!(r.base.ipc() > 0.0) || !(r.withVp.ipc() > 0.0))
            return nan;
        base_ipc.push_back(r.base.ipc());
        vp_ipc.push_back(r.withVp.ipc());
    }
    return geoMean(vp_ipc) / geoMean(base_ipc) - 1.0;
}

double
SuiteResult::meanCoverage() const
{
    if (rows.empty())
        return nan;
    std::vector<double> xs;
    for (const auto &r : rows)
        xs.push_back(r.coverage());
    return arithMean(xs);
}

double
SuiteResult::meanAccuracy() const
{
    if (rows.empty())
        return nan;
    std::vector<double> xs;
    for (const auto &r : rows)
        xs.push_back(r.accuracy());
    return arithMean(xs);
}

SuiteRunner::SuiteRunner(std::vector<std::string> workload_names,
                         const RunConfig &run_config,
                         std::size_t jobs)
    : workloadNames(std::move(workload_names)), rc(run_config)
{
    setJobs(jobs);
}

void
SuiteRunner::setJobs(std::size_t n)
{
    jobCount = n ? n : ParallelExecutor::hardwareJobs();
}

BaselineCache::BaselineCache()
    : memo({"base:", encodeBaseline, decodeBaseline})
{
}

BaselineCache &
BaselineCache::instance()
{
    static BaselineCache c;
    return c;
}

BaselineCache::EntryPtr
BaselineCache::get(const std::string &workload, const RunConfig &rc)
{
    return memo.get(runKey(workload, rc), [&](Entry &e) {
        // Build the warmup checkpoint first so `seconds` measures
        // only the baseline's measurement region (the build cost is
        // reported separately as checkpointSeconds).
        if (rc.warmupInstrs)
            e.checkpointSeconds =
                CheckpointCache::instance().get(workload, rc)
                    ->buildSeconds;
        const auto t0 = Clock::now();
        pipe::NullPredictor none;
        if (rc.sampleK > 0) {
            const auto sr = runSampledWorkload(workload, &none, rc);
            e.stats = sr.stats;
            e.sampledSeconds = sr.hostSeconds;
        } else {
            e.stats = runWorkload(workload, &none, rc);
        }
        e.seconds = secondsSince(t0);
    });
}

const pipe::SimStats &
SuiteRunner::baseline(const std::string &workload)
{
    // The cache keeps the entry alive behind a shared_ptr until
    // clear(), so handing out a reference is safe for the lifetime
    // of any realistic run.
    return BaselineCache::instance().get(workload, rc)->stats;
}

void
SuiteRunner::ensureBaselines()
{
    // BaselineCache builds each key once, however many workers ask,
    // so the fan-out can simply request every workload; hits return
    // immediately.
    if (jobCount <= 1 || workloadNames.size() <= 1) {
        for (const auto &w : workloadNames)
            BaselineCache::instance().get(w, rc);
        return;
    }
    ParallelExecutor pool(std::min(jobCount, workloadNames.size()));
    // Affinity = workload index: cells touching the same trace and
    // checkpoint land on the same worker (warm caches), and stealing
    // keeps the pool busy when workloads are uneven.
    pool.parallelFor(
        workloadNames.size(),
        [&](std::size_t i) {
            BaselineCache::instance().get(workloadNames[i], rc);
        },
        [](std::size_t i) { return i; });
}

SuiteResult
SuiteRunner::run(const std::string &label,
                 const PredictorFactory &make_vp)
{
    const auto wall0 = Clock::now();

    SuiteResult out;
    out.label = label;
    out.rows.resize(workloadNames.size());

    ensureBaselines();

    auto runRow = [&](std::size_t i) {
        WorkloadResult &r = out.rows[i];
        r.workload = workloadNames[i];
        const auto tinfo = TraceCache::instance().info(
            r.workload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
        r.traceFormat = tinfo.format;
        r.traceInstructions = tinfo.trace->size();
        const auto base = BaselineCache::instance().get(r.workload, rc);
        r.base = base->stats;
        r.baseSeconds = base->seconds;
        r.checkpointSeconds = base->checkpointSeconds;
        r.sampledSeconds = base->sampledSeconds;
        const auto t0 = Clock::now();
        auto vp = make_vp();
        if (rc.sampleK > 0) {
            // Sampled row: go through the sampled driver directly so
            // the error bound and sampling metadata reach the report
            // (runWorkload() would discard them).
            const auto sr =
                runSampledWorkload(r.workload, vp.get(), rc);
            r.withVp = sr.stats;
            r.sampled = true;
            r.sampleError = sr.sampleError;
            r.sampleK = sr.sampleK;
            r.intervalLength = sr.intervalLen;
            r.checkpointSeconds = sr.checkpointSeconds;
            r.sampledSeconds += sr.hostSeconds;
        } else {
            r.withVp = runWorkload(r.workload, vp.get(), rc);
        }
        r.vpSeconds = secondsSince(t0);
        r.storageBits = vp->storageBits();
    };

    if (jobCount <= 1 || workloadNames.size() <= 1) {
        for (std::size_t i = 0; i < workloadNames.size(); ++i)
            runRow(i);
    } else {
        ParallelExecutor pool(
            std::min(jobCount, workloadNames.size()));
        // Same-workload affinity as ensureBaselines(): row i restores
        // workload i's checkpoint, so route it to worker i % jobs.
        pool.parallelFor(workloadNames.size(), runRow,
                         [](std::size_t i) { return i; });
    }

    // Suite-level storage mirrors the historical semantics: the last
    // row's predictor (all rows share one configuration).
    if (!out.rows.empty())
        out.storageBits = out.rows.back().storageBits;
    out.wallSeconds = secondsSince(wall0);

    if (observer)
        observer(out);
    return out;
}

} // namespace sim
} // namespace lvpsim
