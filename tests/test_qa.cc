/**
 * @file
 * The qa library itself: generator determinism and validity, the
 * property runner's seed discipline, and shrinking minimality. These
 * must be trustworthy before any property test built on them means
 * anything.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/check.hh"
#include "qa/generators.hh"
#include "qa/property.hh"
#include "qa/shrink.hh"

using namespace lvpsim;
using trace::MicroOp;
using trace::OpClass;

namespace
{

bool
sameTrace(const std::vector<MicroOp> &a, const std::vector<MicroOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a[i], &y = b[i];
        if (x.pc != y.pc || x.cls != y.cls || x.dst != y.dst ||
            x.src != y.src || x.memAddr() != y.memAddr() ||
            x.memSize != y.memSize || x.memValue != y.memValue ||
            x.exclusiveMem != y.exclusiveMem || x.taken != y.taken ||
            x.ctrlTarget() != y.ctrlTarget())
            return false;
    }
    return true;
}

} // anonymous namespace

TEST(QaGen, SameSeedSameTrace)
{
    qa::Gen a(42), b(42);
    EXPECT_TRUE(sameTrace(qa::genTrace(a), qa::genTrace(b)));
}

TEST(QaGen, DifferentSeedsDiffer)
{
    qa::Gen a(1), b(2);
    EXPECT_FALSE(sameTrace(qa::genTrace(a), qa::genTrace(b)));
}

TEST(QaGen, TracesAreValidByConstruction)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        qa::Gen g(qa::caseSeed(0xabc, seed));
        const auto t = qa::genTrace(g);
        ASSERT_GE(t.size(), 64u);
        ASSERT_LE(t.size(), 4096u);
        for (const MicroOp &op : t) {
            if (op.dst != invalidReg) {
                EXPECT_LT(op.dst, numArchRegs);
            }
            for (RegId s : op.src) {
                if (s != invalidReg) {
                    EXPECT_LT(s, numArchRegs);
                }
            }
            if (op.isLoad() || op.isStore()) {
                EXPECT_TRUE(op.memSize == 1 || op.memSize == 2 ||
                            op.memSize == 4 || op.memSize == 8);
                // Aligned to the access width.
                EXPECT_EQ(op.effAddr & (op.memSize - 1), 0u);
            } else {
                EXPECT_FALSE(op.exclusiveMem);
            }
            if (op.isBranch() && op.taken) {
                EXPECT_NE(op.target, 0u);
            }
            // Stores and control ops never write a register.
            if (op.isStore() || op.isBranch()) {
                EXPECT_EQ(op.dst, invalidReg);
            }
        }
    }
}

TEST(QaGen, TracesExerciseTheInterestingClasses)
{
    // Across a handful of seeds the generator must produce
    // predictable loads, stores, and taken branches - otherwise
    // differential fuzzing would silently test almost nothing.
    std::uint64_t loads = 0, stores = 0, takenBranches = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        qa::Gen g(qa::caseSeed(0xdef, seed));
        for (const MicroOp &op : qa::genTrace(g)) {
            loads += op.isPredictableLoad();
            stores += op.isStore();
            takenBranches += op.isBranch() && op.taken;
        }
    }
    EXPECT_GT(loads, 100u);
    EXPECT_GT(stores, 50u);
    EXPECT_GT(takenBranches, 50u);
}

TEST(QaGen, CoreConfigsAreBoundedAndRunnable)
{
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        qa::Gen g(qa::caseSeed(0x123, seed));
        const pipe::CoreConfig c = qa::genCoreConfig(g);
        EXPECT_GE(c.fetchWidth, 1u);
        EXPECT_GE(c.issueWidth, c.lsLanes + 1);
        EXPECT_GE(c.retireWidth, 1u);
        EXPECT_LE(c.robSize, 224u);
        EXPECT_GE(c.robSize, 16u);
        EXPECT_LE(c.iqSize, 97u);
        EXPECT_LE(c.ldqSize, 72u);
        EXPECT_LE(c.stqSize, 56u);
        EXPECT_GE(c.paqSize, 1u);
    }
}

TEST(QaGen, AddressStreamHasRequestedLength)
{
    qa::Gen g(7);
    EXPECT_EQ(qa::genAddressStream(g, 1000).size(), 1000u);
}

TEST(QaProperty, CaseSeedsAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(qa::caseSeed(99, i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(QaProperty, PassingPropertyRunsAllCases)
{
    const auto r =
        qa::forAllSeeds(25, 7, [](qa::Gen &) { return true; });
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.casesRun, 25u);
}

TEST(QaProperty, FailingSeedIsReportedAndReproducible)
{
    // Fail whenever the first draw is even: the reported seed must
    // re-trigger the same failure on its own.
    auto body = [](qa::Gen &g) { return g.u64() % 2 != 0; };
    const auto r = qa::forAllSeeds(100, 11, body);
    ASSERT_FALSE(r.ok);
    qa::Gen again(r.failingSeed);
    EXPECT_FALSE(body(again));
}

TEST(QaProperty, ThrowingPropertyCountsAsFailureWithMessage)
{
    const auto r = qa::forAllSeeds(3, 5, [](qa::Gen &) -> bool {
        throw std::runtime_error("kaboom");
    });
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.message, "kaboom");
    EXPECT_NE(r.describe().find("kaboom"), std::string::npos);
}

TEST(QaShrink, ShrinksToMinimalCounterexample)
{
    // 1000 ops, three of which are "poison". The property "fewer
    // than three poison ops" must shrink to exactly those three.
    std::vector<MicroOp> big(1000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i].pc = 0x1000 + i * 4;
    for (std::size_t i : {17u, 400u, 993u})
        big[i].pc = 0xdead;

    auto holds = [](const std::vector<MicroOp> &t) {
        std::size_t poison = 0;
        for (const MicroOp &op : t)
            poison += op.pc == 0xdead;
        return poison < 3;
    };
    ASSERT_FALSE(holds(big));

    qa::ShrinkStats stats;
    const auto minimal = qa::shrinkTrace(big, holds, &stats);
    ASSERT_EQ(minimal.size(), 3u);
    for (const MicroOp &op : minimal)
        EXPECT_EQ(op.pc, 0xdeadu);
    EXPECT_FALSE(holds(minimal));
    EXPECT_EQ(stats.originalOps, 1000u);
    EXPECT_EQ(stats.finalOps, 3u);

    // Deterministic: shrinking again yields the same result.
    const auto again = qa::shrinkTrace(big, holds);
    EXPECT_TRUE(sameTrace(minimal, again));
}

TEST(QaShrink, CheckTracePropertyShrinksGeneratedFailure)
{
    // "Traces are shorter than 200 ops" fails for most seeds (the
    // generator draws 64..4096); the shrunk counterexample must sit
    // exactly at the boundary.
    const auto r = qa::checkTraceProperty(
        20, 31,
        [](const std::vector<MicroOp> &t) { return t.size() < 200; });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.minimal.size(), 200u);
    EXPECT_NE(r.describe().find("shrunk"), std::string::npos);
}

TEST(QaCheck, MacroCompilesInBothModes)
{
    // LVPSIM_CHECK must be usable as a statement whether or not the
    // checks are compiled in; when enabled, a true condition is
    // silent.
    LVPSIM_CHECK(1 + 1 == 2, "arithmetic holds");
    SUCCEED();
}
