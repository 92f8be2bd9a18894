/**
 * @file
 * Tests for the sim-layer odds and ends: env-var run scaling, table
 * printing, and SimStats derived metrics.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/sim_stats.hh"
#include "sim/options.hh"
#include "sim/tableio.hh"

using namespace lvpsim;
using namespace lvpsim::sim;

TEST(Options, InstrsDefaultWhenUnset)
{
    unsetenv("LVPSIM_INSTRS");
    EXPECT_EQ(instrsFromEnv(12345), 12345u);
}

TEST(Options, InstrsFromEnvironment)
{
    setenv("LVPSIM_INSTRS", "777", 1);
    EXPECT_EQ(instrsFromEnv(1), 777u);
    unsetenv("LVPSIM_INSTRS");
}

TEST(Options, InstrsIgnoresGarbage)
{
    setenv("LVPSIM_INSTRS", "not-a-number", 1);
    EXPECT_EQ(instrsFromEnv(42), 42u);
    setenv("LVPSIM_INSTRS", "-5", 1);
    EXPECT_EQ(instrsFromEnv(42), 42u);
    unsetenv("LVPSIM_INSTRS");
}

TEST(Options, SuiteSelection)
{
    setenv("LVPSIM_SUITE", "smoke", 1);
    const auto smoke = suiteFromEnv();
    unsetenv("LVPSIM_SUITE");
    const auto full = suiteFromEnv();
    EXPECT_LT(smoke.size(), full.size());
    EXPECT_EQ(smoke.size(), 8u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer_name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Header and two rows plus the rule line.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, CsvOutputIsGreppable)
{
    TextTable t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os, "mytag");
    EXPECT_NE(os.str().find("CSV,mytag,x,y"), std::string::npos);
    EXPECT_NE(os.str().find("CSV,mytag,1,2"), std::string::npos);
}

TEST(Formatting, Helpers)
{
    EXPECT_EQ(fmtPct(0.5, 0), "50%");
    EXPECT_EQ(fmtPct(0.1234), "12.34%");
    EXPECT_EQ(fmtF(1.5, 1), "1.5");
    EXPECT_EQ(fmtKB(9.6, 1), "9.6KB");
}

TEST(SimStats, DerivedMetrics)
{
    pipe::SimStats s;
    s.cycles = 100;
    s.instructions = 250;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
    s.eligibleLoads = 200;
    s.predictionsUsed = 50;
    s.predictionsCorrect = 49;
    EXPECT_DOUBLE_EQ(s.coverage(), 0.25);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.98);
}

TEST(SimStats, EdgeCasesDoNotDivideByZero)
{
    pipe::SimStats s;
    EXPECT_EQ(s.ipc(), 0.0);
    EXPECT_EQ(s.coverage(), 0.0);
    EXPECT_EQ(s.accuracy(), 1.0); // no used predictions = no errors
}

TEST(SimStats, DumpMentionsKeyFields)
{
    pipe::SimStats s;
    s.cycles = 10;
    s.instructions = 20;
    s.usedByComponent[0] = 5;
    std::ostringstream os;
    s.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cycles"), std::string::npos);
    EXPECT_NE(out.find("coverage"), std::string::npos);
    EXPECT_NE(out.find("used_by_component_0"), std::string::npos);
}

TEST(SimStats, EqualityComparesEveryCounter)
{
    // operator== is defaulted, so it means "bit-identical run" only
    // while every member is a forEachCounter counter: no member may
    // sit outside that list, and each counter must be able to break
    // equality.
    std::vector<std::string> names;
    pipe::forEachCounter(pipe::SimStats{},
                         [&](std::string_view name, std::uint64_t) {
                             names.emplace_back(name);
                         });
    EXPECT_EQ(sizeof(pipe::SimStats),
              names.size() * sizeof(std::uint64_t));
    for (const auto &name : names) {
        pipe::SimStats s;
        ASSERT_TRUE(pipe::setCounter(s, name, 1)) << name;
        EXPECT_FALSE(s == pipe::SimStats{}) << name;
    }
}
