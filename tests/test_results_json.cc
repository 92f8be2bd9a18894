/**
 * @file
 * The structured results layer: the minimal JSON document model
 * (parse/dump), SimStats serialization via pipe::counters(), the
 * SuiteResult file round-trip, and docs/results_schema.md, whose
 * "Stats object" and "Workload row" tables are generated from the
 * counter and row-field lists (ResultsSchemaDoc.TablesMatchTheCode).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/composite.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/results_json.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using sim::JsonValue;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(sim::parseJson("null").isNull());
    EXPECT_TRUE(sim::parseJson("true").asBool());
    EXPECT_FALSE(sim::parseJson("false").asBool());
    EXPECT_EQ(sim::parseJson("12345").asU64(), 12345u);
    EXPECT_DOUBLE_EQ(sim::parseJson("-2.5").asDouble(), -2.5);
    EXPECT_DOUBLE_EQ(sim::parseJson("1e3").asDouble(), 1000.0);
    EXPECT_EQ(sim::parseJson("\"hi\\nthere\"").asString(),
              "hi\nthere");
}

TEST(Json, ParsesNestedDocument)
{
    const char *doc = R"({
        "a": [1, 2, {"b": "c"}],
        "d": {"e": true, "f": null},
        "g": -0.125
    })";
    std::string err;
    JsonValue v = sim::parseJson(doc, &err);
    ASSERT_TRUE(v.isObject()) << err;
    const JsonValue *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    EXPECT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[2].find("b")->asString(), "c");
    EXPECT_TRUE(v.find("d")->find("e")->asBool());
    EXPECT_TRUE(v.find("d")->find("f")->isNull());
    EXPECT_DOUBLE_EQ(v.find("g")->asDouble(), -0.125);
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2",
          "\"unterminated", "{\"a\":1,}"}) {
        std::string err;
        JsonValue v = sim::parseJson(bad, &err);
        EXPECT_TRUE(v.isNull()) << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << "no error for: " << bad;
    }
}

TEST(Json, DumpParseRoundTripPreservesKindAndOrder)
{
    JsonValue o = JsonValue::object();
    o.set("int", JsonValue(std::uint64_t(18446744073709551615ull)));
    o.set("dbl", JsonValue(0.1234567890123456789));
    o.set("whole_dbl", JsonValue(5.0));
    o.set("str", JsonValue("a \"quoted\" line\n"));
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(std::uint64_t(1)));
    arr.push(JsonValue(true));
    o.set("arr", std::move(arr));

    JsonValue back = sim::parseJson(o.dump(2));
    ASSERT_TRUE(back.isObject());
    // Insertion order survives.
    EXPECT_EQ(back.members()[0].first, "int");
    EXPECT_EQ(back.members()[3].first, "str");
    // uint64 stays exact; doubles round-trip via max_digits10, and a
    // whole-valued double re-parses as a double (the ".0" marker).
    EXPECT_EQ(back.find("int")->asU64(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(back.find("dbl")->asDouble(),
                     0.1234567890123456789);
    EXPECT_EQ(back.find("whole_dbl")->kind(),
              JsonValue::Kind::Double);
    EXPECT_EQ(back.find("str")->asString(), "a \"quoted\" line\n");
    // And the re-dump is byte-identical (deterministic formatting).
    EXPECT_EQ(back.dump(2), o.dump(2));
}

namespace
{

pipe::SimStats
fabricatedStats(std::uint64_t salt)
{
    // Give every counter a distinct value so a swapped or dropped
    // field cannot cancel out.
    pipe::SimStats s;
    for (const pipe::CounterInfo &c : pipe::counters())
        c.value(s) = ++salt;
    return s;
}

} // anonymous namespace

TEST(ResultsJson, SimStatsRoundTripIsLossFree)
{
    const pipe::SimStats s = fabricatedStats(1000);
    pipe::SimStats back;
    ASSERT_TRUE(sim::simStatsFromJson(sim::toJson(s), back));
    EXPECT_TRUE(s == back);
}

TEST(ResultsJson, SetCounterRejectsUnknownNames)
{
    pipe::SimStats s;
    EXPECT_FALSE(pipe::setCounter(s, "no_such_counter", 1));
    EXPECT_FALSE(pipe::setCounter(s, "ipc", 1)); // derived, not raw
    EXPECT_TRUE(pipe::setCounter(s, "cycles", 42));
    EXPECT_EQ(s.cycles, 42u);
}

TEST(ResultsJson, SuiteResultFileRoundTrip)
{
    sim::SuiteResult suite;
    suite.label = "composite";
    suite.storageBits = 78336;
    suite.wallSeconds = 1.5;
    for (int i = 0; i < 3; ++i) {
        sim::WorkloadResult r;
        r.workload = "wl_" + std::to_string(i);
        r.base = fabricatedStats(100 * i);
        r.withVp = fabricatedStats(100 * i + 50);
        r.storageBits = 78336;
        r.baseSeconds = 0.25;
        r.vpSeconds = 0.5;
        suite.rows.push_back(std::move(r));
    }

    sim::ReportMeta meta;
    meta.jobs = 4;
    meta.maxInstrs = 150000;
    meta.traceSeed = 1;
    meta.suite = "unit";

    const std::string path =
        testing::TempDir() + "lvpsim_results_roundtrip.json";
    std::string err;
    ASSERT_TRUE(sim::writeResultsFile(path, {suite}, meta, &err))
        << err;

    std::vector<sim::SuiteResult> back;
    sim::ReportMeta backMeta;
    ASSERT_TRUE(sim::readResultsFile(path, back, &backMeta, &err))
        << err;
    std::remove(path.c_str());

    EXPECT_EQ(backMeta.jobs, 4u);
    EXPECT_EQ(backMeta.maxInstrs, 150000u);
    EXPECT_EQ(backMeta.traceSeed, 1u);
    EXPECT_EQ(backMeta.suite, "unit");

    ASSERT_EQ(back.size(), 1u);
    const auto &b = back[0];
    EXPECT_EQ(b.label, suite.label);
    EXPECT_EQ(b.storageBits, suite.storageBits);
    EXPECT_DOUBLE_EQ(b.wallSeconds, suite.wallSeconds);
    ASSERT_EQ(b.rows.size(), suite.rows.size());
    for (std::size_t i = 0; i < b.rows.size(); ++i) {
        EXPECT_EQ(b.rows[i].workload, suite.rows[i].workload);
        EXPECT_TRUE(b.rows[i].base == suite.rows[i].base);
        EXPECT_TRUE(b.rows[i].withVp == suite.rows[i].withVp);
        EXPECT_EQ(b.rows[i].storageBits, suite.rows[i].storageBits);
        EXPECT_DOUBLE_EQ(b.rows[i].baseSeconds,
                         suite.rows[i].baseSeconds);
        EXPECT_DOUBLE_EQ(b.rows[i].vpSeconds,
                         suite.rows[i].vpSeconds);
    }
    // Derived metrics recompute identically from restored counters.
    EXPECT_DOUBLE_EQ(b.geomeanSpeedup(), suite.geomeanSpeedup());
    EXPECT_DOUBLE_EQ(b.meanCoverage(), suite.meanCoverage());
}

TEST(ResultsJson, DocumentMatchesDocumentedSchema)
{
    // A real emitted document carries the documented top-level,
    // meta and suite fields (those tables are hand-written).
    sim::SuiteRunner runner({"memset_loop"},
                            sim::RunConfig{.maxInstrs = 5000}, 2);
    const auto res = runner.run("composite", [] {
        return std::make_unique<vp::CompositePredictor>(
            vp::CompositeConfig::homogeneous(256));
    });
    sim::ReportMeta meta;
    meta.jobs = 2;
    meta.maxInstrs = 5000;
    meta.traceSeed = 1;
    meta.suite = "schema-test";
    JsonValue doc = sim::resultsToJson({res}, meta);

    EXPECT_EQ(doc.find("schema_version")->asU64(), 1u);
    EXPECT_EQ(doc.find("tool")->asString(), "lvpsim");
    const JsonValue *m = doc.find("meta");
    ASSERT_TRUE(m);
    for (const char *k : {"jobs", "instructions", "trace_seed"})
        EXPECT_TRUE(m->find(k) && m->find(k)->isNumber()) << k;
    EXPECT_TRUE(m->find("suite")->isString());

    const JsonValue *suites = doc.find("suites");
    ASSERT_TRUE(suites && suites->isArray());
    const JsonValue &s = suites->items()[0];
    for (const char *k :
         {"label", "storage_bits", "storage_kb", "geomean_speedup",
          "mean_coverage", "mean_accuracy", "workloads",
          "wall_seconds"})
        EXPECT_TRUE(s.find(k)) << k;
    // The workload row and stats object are written by walking
    // sim::workloadRowFields() and pipe::counters(), whose doc tables
    // ResultsSchemaDoc.TablesMatchTheCode pins.
}

TEST(ResultsJson, CountFieldsFailClosed)
{
    // Negative, fractional, out-of-range and non-number values in a
    // count field reject the document; none is converted.
    sim::SuiteResult suite;
    suite.label = "s";
    suite.storageBits = 11;
    suite.rows.emplace_back();
    suite.rows.back().workload = "w";
    suite.rows.back().storageBits = 22;
    sim::ReportMeta meta;
    meta.jobs = 3;
    const std::string good = sim::resultsToJson({suite}, meta).dump(2);
    const auto accepted = [&](const std::string &key,
                              const std::string &value) {
        std::string text = good;
        const std::size_t at = text.find(key);
        EXPECT_NE(at, std::string::npos) << key;
        text.replace(at, key.size(), key.substr(0, key.find(':') + 2) +
                                         value);
        const JsonValue doc = sim::parseJson(text);
        std::vector<sim::SuiteResult> suites;
        sim::ReportMeta m;
        return sim::resultsFromJson(doc, suites, &m);
    };

    // The meta jobs count, the schema version, the suite's and the
    // row's storage bits, and a counter of the row's base stats, each
    // with a value the document accepts in its place.
    for (const auto &[key, valid] :
         {std::pair{"\"jobs\": 3", "7"}, {"\"schema_version\": 1", "1"},
          {"\"storage_bits\": 11", "7"}, {"\"storage_bits\": 22", "7"},
          {"\"cycles\": 0", "7"}}) {
        EXPECT_TRUE(accepted(key, valid)) << key;
        for (const char *bad : {"-1", "1e30", "2.5", "\"x\""})
            EXPECT_FALSE(accepted(key, bad)) << key << " = " << bad;
    }
}

TEST(ResultsJson, EmptySuiteSerializesToValidJson)
{
    // Regression: an empty suite's aggregates (geomean over zero
    // rows) used to abort inside geoMean; they must instead emit
    // explicit nulls and the document must stay parseable.
    sim::SuiteResult empty;
    empty.label = "empty";
    JsonValue doc = sim::resultsToJson({empty}, sim::ReportMeta{});
    std::ostringstream os;
    doc.dump(os, 2);

    std::string err;
    JsonValue back = sim::parseJson(os.str(), &err);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_TRUE(back.isObject());

    const JsonValue &s = back.find("suites")->items()[0];
    EXPECT_TRUE(s.find("geomean_speedup")->isNull());
    EXPECT_TRUE(s.find("mean_coverage")->isNull());
    EXPECT_TRUE(s.find("mean_accuracy")->isNull());

    std::vector<sim::SuiteResult> suites;
    EXPECT_TRUE(sim::resultsFromJson(back, suites, nullptr));
    ASSERT_EQ(suites.size(), 1u);
    EXPECT_TRUE(suites[0].rows.empty());
}

TEST(ResultsJson, DegenerateRowEmitsNullNotNanOrInf)
{
    // A zero-cycle row makes speedup 0/0 (NaN); JSON cannot encode
    // that, so the writer must clamp the derived metrics to null.
    sim::SuiteResult s;
    s.label = "degenerate";
    s.rows.emplace_back();
    s.rows.back().workload = "w";

    JsonValue doc = sim::toJson(s);
    EXPECT_TRUE(doc.find("geomean_speedup")->isNull());
    const JsonValue &row = doc.find("workloads")->items()[0];
    EXPECT_TRUE(row.find("speedup")->isNull());

    std::ostringstream os;
    doc.dump(os, 2);
    const std::string text = os.str();
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    std::string err;
    sim::parseJson(text, &err);
    EXPECT_TRUE(err.empty()) << err;
}

namespace
{

/** One Markdown table row per entry of `list`. */
template <class List, class Cells>
std::string
rows(const List &list, Cells cells)
{
    std::string t;
    for (const auto &e : list)
        t += "| `" + std::string(e.name) + "` | " + cells(e) + " |\n";
    return t;
}

/** Replaces what lies between `block`'s markers in `doc`. False when
 *  a marker is missing. */
bool
regenerate(std::string &doc, const std::string &block,
           const std::string &body)
{
    const std::string begin = "<!-- BEGIN GENERATED " + block + " -->\n";
    const std::size_t from = doc.find(begin);
    const std::size_t to =
        doc.find("<!-- END GENERATED " + block + " -->", from);
    if (from == std::string::npos || to == std::string::npos)
        return false;
    doc.replace(from + begin.size(), to - from - begin.size(), body);
    return true;
}

} // anonymous namespace

TEST(ResultsSchemaDoc, TablesMatchTheCode)
{
    const std::string path =
        std::string(LVPSIM_DOCS_DIR) + "/results_schema.md";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::ostringstream committed;
    committed << in.rdbuf();

    const std::string stats =
        "| field | unit | meaning |\n|---|---|---|\n" +
        rows(pipe::counters(),
             [](auto &c) {
                 return std::string(c.unit) + " | " + c.meaning;
             }) +
        rows(pipe::kDerivedMetrics, [](auto &d) {
            return std::string(d.unit) + " | derived: " +
                   std::string(d.meaning);
        });
    const std::string row =
        "| field | type | meaning |\n|---|---|---|\n" +
        rows(sim::workloadRowFields(), [](auto &f) {
            return std::string(f.type) + " | " +
                   (f.read ? "" : "derived: ") + std::string(f.meaning);
        });

    std::string generated = committed.str();
    ASSERT_TRUE(regenerate(generated, "stats", stats) &&
                regenerate(generated, "workload-row", row))
        << path << " lost a BEGIN/END GENERATED marker";
    if (generated == committed.str())
        return;
    const auto actual =
        std::filesystem::current_path() / "results_schema.actual.md";
    std::ofstream(actual) << generated;
    ADD_FAILURE() << path
                  << " differs from the tables generated from "
                     "pipe::counters(), pipe::kDerivedMetrics and "
                     "sim::workloadRowFields(). Edit those lists, not "
                     "the tables, then update the doc with:\n  cp "
                  << actual.string() << " " << path;
}
