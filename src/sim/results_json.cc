#include "sim/results_json.hh"

#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace lvpsim
{
namespace sim
{

namespace
{

constexpr std::uint64_t kSchemaVersion = 1;

double
numberOr(const JsonValue *v, double fallback)
{
    return v && v->isNumber() ? v->asDouble() : fallback;
}

/** Reads the optional count `key` of `obj` into `out` (left alone
 *  when absent). False when present but not a non-negative
 *  integer. */
bool
readCount(const JsonValue &obj, std::string_view key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    return !v || v->getU64(out);
}

/**
 * Derived metrics can be NaN or infinite (empty suite, zero-IPC or
 * zero-instruction row). JSON has no encoding for those, so clamp
 * them to an explicit null; readers fall back via numberOr().
 */
JsonValue
finiteOrNull(double x)
{
    return std::isfinite(x) ? JsonValue(x) : JsonValue();
}

using W = WorkloadResult;

// A stored workload-row field's JSON type name, writer and reader, by
// member type.
template <class T>
constexpr std::string_view kJsonType = "object";
template <>
constexpr std::string_view kJsonType<std::string> = "string";
template <>
constexpr std::string_view kJsonType<std::uint64_t> = "int";
template <>
constexpr std::string_view kJsonType<double> = "float";
template <>
constexpr std::string_view kJsonType<bool> = "bool";

JsonValue jsonOf(const std::string &s) { return JsonValue(s); }
JsonValue jsonOf(std::uint64_t v) { return JsonValue(v); }
JsonValue jsonOf(double v) { return finiteOrNull(v); }
JsonValue jsonOf(bool b) { return JsonValue(b); }
JsonValue jsonOf(const pipe::SimStats &s) { return toJson(s); }

/** False when `v` does not hold a T. A float may be null, which
 *  stands for a value JSON cannot hold and reads as 0. */
template <class T>
bool
readInto(const JsonValue &v, T &out)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        return v.getU64(out);
    } else if constexpr (std::is_same_v<T, pipe::SimStats>) {
        return simStatsFromJson(v, out);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (v.isString())
            out = v.asString();
        return v.isString();
    } else if constexpr (std::is_same_v<T, bool>) {
        if (v.kind() == JsonValue::Kind::Bool)
            out = v.asBool();
        return v.kind() == JsonValue::Kind::Bool;
    } else {
        out = numberOr(&v, 0.0);
        return v.isNumber() || v.isNull();
    }
}

/** A stored field. An absent optional field keeps the struct
 *  default, which is how files written before it existed read. */
template <auto M, bool Required = false>
constexpr RowField
field(std::string_view name, std::string_view meaning)
{
    using T = std::remove_cvref_t<decltype(W{}.*M)>;
    return {name, kJsonType<T>, meaning,
            [](const W &r) { return jsonOf(r.*M); },
            [](const JsonValue *v, W &r) {
                return v ? readInto(*v, r.*M) : !Required;
            }};
}

/** A metric recomputed from the stats: written, never read back. */
template <double (W::*F)() const>
constexpr RowField
derived(std::string_view name, std::string_view meaning)
{
    return {name, "float", meaning,
            [](const W &r) { return finiteOrNull((r.*F)()); }, nullptr};
}

constexpr RowField kRowFields[] = {
    field<&W::workload, true>(
        "workload",
        "trace spec: a kernel name (see `docs/workloads.md`), or "
        "`lvpt:<path>` / `cvp:<path>` for file-backed traces (see "
        "`docs/traces.md`)"),
    field<&W::traceFormat>(
        "trace_format",
        "trace backend that produced the stream: `\"synthetic\"`, "
        "`\"lvpt\"`, or `\"cvp\"`"),
    field<&W::traceInstructions>(
        "trace_instructions",
        "instructions in the (possibly truncated) trace actually "
        "simulated, warmup included"),
    field<&W::storageBits>("storage_bits",
                           "storage of this row's predictor instance"),
    derived<&W::speedup>("speedup", "`withVp.ipc / base.ipc - 1`"),
    derived<&W::coverage>(
        "coverage", "fraction of eligible loads with a used prediction"),
    derived<&W::accuracy>(
        "accuracy", "fraction of used predictions that were correct"),
    field<&W::base, true>("base",
                          "full `SimStats` of the no-VP baseline run"),
    field<&W::withVp, true>(
        "with_vp", "full `SimStats` of the with-predictor run"),
    field<&W::sampled>(
        "sampled",
        "`true` when this row's stats were extrapolated from "
        "representative intervals (`docs/sampling.md`); `false` for a "
        "full simulation"),
    field<&W::sampleError>(
        "sample_error",
        "confidence bound of the sampled extrapolation (max of the "
        "relative 95% CI on IPC and the absolute 95% CI on accuracy, "
        "plus a fixed modeling floor); 0 for full runs"),
    field<&W::sampleK>(
        "sample_k",
        "representative intervals actually simulated (k-means may "
        "merge clusters below the requested `--sample` k); 0 for full "
        "runs"),
    field<&W::intervalLength>(
        "interval_length",
        "interval length the sampled row used; 0 for full runs"),
    field<&W::baseSeconds>(
        "base_seconds", "baseline simulation wall clock — *timing field*"),
    field<&W::vpSeconds>(
        "vp_seconds", "with-VP simulation wall clock — *timing field*"),
    field<&W::checkpointSeconds>(
        "checkpoint_seconds",
        "one-time checkpoint build cost for this (workload, config) key "
        "— *timing field*. Warmup rows report the post-warmup "
        "checkpoint; sampled rows report the build of the plan's "
        "interval-checkpoint list; 0 when warmup and sampling are both "
        "off, or when the checkpoint was served from the disk store. "
        "Reported on every row of every suite run that shares the "
        "checkpoint; it is **not** additive across rows"),
};

} // anonymous namespace

std::span<const RowField>
workloadRowFields()
{
    return kRowFields;
}

JsonValue
toJson(const pipe::SimStats &s)
{
    JsonValue o = JsonValue::object();
    for (const pipe::CounterInfo &c : pipe::counters())
        o.set(c.name, JsonValue(c.value(s)));
    // For human readers and plotting scripts; ignored on re-parse.
    for (const pipe::DerivedMetric &d : pipe::kDerivedMetrics)
        o.set(std::string(d.name), finiteOrNull((s.*d.value)()));
    return o;
}

bool
simStatsFromJson(const JsonValue &v, pipe::SimStats &out)
{
    if (!v.isObject())
        return false;
    out = pipe::SimStats{};
    for (const pipe::CounterInfo &c : pipe::counters()) {
        const JsonValue *x = v.find(c.name);
        if (x && !x->getU64(c.value(out)))
            return false;
    }
    return true;
}

JsonValue
toJson(const WorkloadResult &r)
{
    JsonValue o = JsonValue::object();
    for (const RowField &f : kRowFields)
        o.set(std::string(f.name), f.get(r));
    return o;
}

bool
workloadResultFromJson(const JsonValue &v, WorkloadResult &out)
{
    if (!v.isObject())
        return false;
    out = WorkloadResult{};
    for (const RowField &f : kRowFields)
        if (f.read && !f.read(v.find(f.name), out))
            return false;
    return true;
}

JsonValue
toJson(const SuiteResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("label", JsonValue(r.label));
    o.set("storage_bits", JsonValue(r.storageBits));
    o.set("storage_kb", JsonValue(r.storageKB()));
    o.set("geomean_speedup", finiteOrNull(r.geomeanSpeedup()));
    o.set("mean_coverage", finiteOrNull(r.meanCoverage()));
    o.set("mean_accuracy", finiteOrNull(r.meanAccuracy()));
    JsonValue rows = JsonValue::array();
    for (const auto &row : r.rows)
        rows.push(toJson(row));
    o.set("workloads", std::move(rows));
    o.set("wall_seconds", JsonValue(r.wallSeconds));
    return o;
}

bool
suiteResultFromJson(const JsonValue &v, SuiteResult &out)
{
    if (!v.isObject())
        return false;
    out = SuiteResult{};
    const JsonValue *label = v.find("label");
    if (!label || !label->isString())
        return false;
    out.label = label->asString();
    if (!readCount(v, "storage_bits", out.storageBits))
        return false;
    const JsonValue *rows = v.find("workloads");
    if (!rows || !rows->isArray())
        return false;
    for (const auto &rv : rows->items()) {
        WorkloadResult r;
        if (!workloadResultFromJson(rv, r))
            return false;
        out.rows.push_back(std::move(r));
    }
    out.wallSeconds = numberOr(v.find("wall_seconds"), 0.0);
    return true;
}

JsonValue
resultsToJson(const std::vector<SuiteResult> &suites,
              const ReportMeta &meta)
{
    JsonValue o = JsonValue::object();
    o.set("schema_version", JsonValue(kSchemaVersion));
    o.set("tool", JsonValue("lvpsim"));
    JsonValue m = JsonValue::object();
    m.set("jobs", JsonValue(meta.jobs));
    m.set("instructions", JsonValue(meta.maxInstrs));
    m.set("warmup_instructions", JsonValue(meta.warmupInstrs));
    m.set("trace_seed", JsonValue(meta.traceSeed));
    m.set("sample_k", JsonValue(meta.sampleK));
    m.set("interval_length", JsonValue(meta.intervalLen));
    m.set("progress_instructions", JsonValue(meta.progressInstrs));
    m.set("suite", JsonValue(meta.suite));
    m.set("store_hits", JsonValue(meta.storeHits));
    m.set("store_misses", JsonValue(meta.storeMisses));
    m.set("store_seconds", JsonValue(meta.storeSeconds));
    o.set("meta", std::move(m));
    JsonValue arr = JsonValue::array();
    for (const auto &s : suites)
        arr.push(toJson(s));
    o.set("suites", std::move(arr));
    return o;
}

bool
resultsFromJson(const JsonValue &v, std::vector<SuiteResult> &suites,
                ReportMeta *meta)
{
    if (!v.isObject())
        return false;
    const JsonValue *ver = v.find("schema_version");
    std::uint64_t version = 0;
    if (!ver || !ver->getU64(version) || version != kSchemaVersion)
        return false;
    ReportMeta rm;
    if (const JsonValue *m = v.find("meta")) {
        if (!readCount(*m, "jobs", rm.jobs) ||
            !readCount(*m, "instructions", rm.maxInstrs) ||
            !readCount(*m, "warmup_instructions", rm.warmupInstrs) ||
            !readCount(*m, "trace_seed", rm.traceSeed) ||
            !readCount(*m, "sample_k", rm.sampleK) ||
            !readCount(*m, "interval_length", rm.intervalLen) ||
            !readCount(*m, "progress_instructions", rm.progressInstrs) ||
            !readCount(*m, "store_hits", rm.storeHits) ||
            !readCount(*m, "store_misses", rm.storeMisses))
            return false;
        if (const JsonValue *s = m->find("suite"))
            if (s->isString())
                rm.suite = s->asString();
        rm.storeSeconds = numberOr(m->find("store_seconds"), 0.0);
    }
    if (meta)
        *meta = rm;
    const JsonValue *arr = v.find("suites");
    if (!arr || !arr->isArray())
        return false;
    suites.clear();
    for (const auto &sv : arr->items()) {
        SuiteResult s;
        if (!suiteResultFromJson(sv, s))
            return false;
        suites.push_back(std::move(s));
    }
    return true;
}

bool
writeResultsFile(const std::string &path,
                 const std::vector<SuiteResult> &suites,
                 const ReportMeta &meta, std::string *err)
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = "cannot open '" + path + "' for writing";
        return false;
    }
    resultsToJson(suites, meta).dump(os, 2);
    os << "\n";
    if (!os) {
        if (err)
            *err = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

bool
readResultsFile(const std::string &path,
                std::vector<SuiteResult> &suites, ReportMeta *meta,
                std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string perr;
    JsonValue v = parseJson(buf.str(), &perr);
    if (v.isNull() && !perr.empty()) {
        if (err)
            *err = path + ": " + perr;
        return false;
    }
    if (!resultsFromJson(v, suites, meta)) {
        if (err)
            *err = path + ": not a valid lvpsim results document";
        return false;
    }
    return true;
}

} // namespace sim
} // namespace lvpsim
