/**
 * @file
 * Structured results: serialize SuiteResult / WorkloadResult /
 * SimStats to the JSON schema documented in docs/results_schema.md,
 * and parse such files back (round-trip is loss-free for every raw
 * counter; derived metrics are re-computed, never stored as truth).
 *
 * Field order is fixed and numbers are emitted deterministically, so
 * two runs of the same experiment produce byte-identical files except
 * for the timing fields — which is exactly what
 * tools/check_determinism.sh relies on.
 */

#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/sim_stats.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/simulator.hh"

namespace lvpsim
{
namespace sim
{

/** Run-level metadata recorded at the top of a results file. */
struct ReportMeta
{
    std::size_t jobs = 1;
    std::size_t maxInstrs = 0;
    std::size_t warmupInstrs = 0;
    std::uint64_t traceSeed = 0;
    /// Sampling parameters (docs/sampling.md); 0 = full simulation.
    std::size_t sampleK = 0;
    std::size_t intervalLen = 0;
    /// Progress-report interval (CLI --progress; reporting only,
    /// stripped by tools/check_determinism.sh).
    std::uint64_t progressInstrs = 0;
    std::string suite; ///< e.g. "full", "smoke", or a bench tag
    /// Checkpoint-store traffic for this run (sim/checkpoint_store.hh;
    /// all zero when the store is disabled). Environment-dependent, so
    /// stripped by tools/check_determinism.sh like the timing fields.
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    double storeSeconds = 0.0;
};

JsonValue toJson(const pipe::SimStats &s);
/** Restore raw counters from toJson() output; derived and unknown
 *  keys are ignored. False on a non-object or on a counter that is
 *  not a non-negative integer. */
bool simStatsFromJson(const JsonValue &v, pipe::SimStats &out);

/**
 * One field of a workload row. toJson(const WorkloadResult &) writes
 * the fields in workloadRowFields() order and workloadResultFromJson()
 * reads them back through the same list; the "Workload row" table of
 * docs/results_schema.md is generated from it
 * (tests/test_results_json.cc).
 */
struct RowField
{
    std::string_view name;
    std::string_view type; ///< JSON type: string, int, float, bool, object
    std::string_view meaning;
    JsonValue (*get)(const WorkloadResult &);
    /// Stores the field's value (nullptr when absent) into the row;
    /// false rejects the document. Null for derived fields, which the
    /// reader ignores.
    bool (*read)(const JsonValue *, WorkloadResult &);
};

std::span<const RowField> workloadRowFields();

JsonValue toJson(const WorkloadResult &r);
bool workloadResultFromJson(const JsonValue &v, WorkloadResult &out);

JsonValue toJson(const SuiteResult &r);
bool suiteResultFromJson(const JsonValue &v, SuiteResult &out);

/** The complete results document: meta + one entry per suite run. */
JsonValue resultsToJson(const std::vector<SuiteResult> &suites,
                        const ReportMeta &meta);
bool resultsFromJson(const JsonValue &v,
                     std::vector<SuiteResult> &suites,
                     ReportMeta *meta = nullptr);

/** Write the document to `path` (pretty-printed, trailing newline).
 *  False + `err` on I/O failure. */
bool writeResultsFile(const std::string &path,
                      const std::vector<SuiteResult> &suites,
                      const ReportMeta &meta,
                      std::string *err = nullptr);

/** Read and parse a results file. False + `err` on failure. */
bool readResultsFile(const std::string &path,
                     std::vector<SuiteResult> &suites,
                     ReportMeta *meta = nullptr,
                     std::string *err = nullptr);

} // namespace sim
} // namespace lvpsim

