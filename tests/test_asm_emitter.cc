#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "trace/asm_emitter.hh"

using namespace lvpsim;
using namespace lvpsim::trace;

namespace
{

constexpr RegId r1 = 1, r2 = 2, r3 = 3;

} // anonymous namespace

TEST(AsmEmitter, SiteAssignsStablePcs)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    const Addr pc1 = a.pcOf("alpha");
    const Addr pc2 = a.pcOf("beta");
    EXPECT_NE(pc1, pc2);
    EXPECT_EQ(a.pcOf("alpha"), pc1);
    EXPECT_EQ(pc1 % 4, 0u);
}

TEST(AsmEmitter, SamePcAcrossDynamicInstances)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("x", r1, 1);
    a.imm("x", r1, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].pc, out[1].pc);
}

TEST(AsmEmitter, AluComputesValues)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("a", r1, 10);
    a.imm("b", r2, 32);
    a.add("c", r3, r1, r2);
    EXPECT_EQ(a.reg(r3), 42u);
    a.sub("d", r3, r2, r1);
    EXPECT_EQ(a.reg(r3), 22u);
    a.mul("e", r3, r1, r2);
    EXPECT_EQ(a.reg(r3), 320u);
    a.div("f", r3, r2, r1);
    EXPECT_EQ(a.reg(r3), 3u);
    a.xorOp("g", r3, r1, r1);
    EXPECT_EQ(a.reg(r3), 0u);
    a.shl("h", r3, r1, 2);
    EXPECT_EQ(a.reg(r3), 40u);
    a.shr("i", r3, r1, 1);
    EXPECT_EQ(a.reg(r3), 5u);
}

TEST(AsmEmitter, DivideByZeroYieldsZero)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("a", r1, 10);
    a.imm("z", r2, 0);
    a.div("d", r3, r1, r2);
    EXPECT_EQ(a.reg(r3), 0u);
}

TEST(AsmEmitter, LoadReturnsStoredValue)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("base", r1, 0x10000);
    a.imm("val", r2, 0xabcd);
    a.store("st", r2, r1, 8, 8);
    const Value v = a.load("ld", r3, r1, 8, 8);
    EXPECT_EQ(v, 0xabcdull);
    EXPECT_EQ(a.reg(r3), 0xabcdull);
    // The emitted load op carries the same value and address.
    const MicroOp &ld = out.back();
    EXPECT_EQ(ld.cls, OpClass::Load);
    EXPECT_EQ(ld.memValue, 0xabcdull);
    EXPECT_EQ(ld.effAddr, 0x10008ull);
    EXPECT_EQ(ld.memSize, 8);
}

TEST(AsmEmitter, IndexedAddressing)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("base", r1, 0x20000);
    a.imm("idx", r2, 0x30);
    a.load("ld", r3, r1, 8, 4, r2);
    EXPECT_EQ(out.back().effAddr, 0x20038ull);
    // Both registers are recorded as sources.
    EXPECT_EQ(out.back().src[0], r1);
    EXPECT_EQ(out.back().src[1], r2);
}

TEST(AsmEmitter, ExclusiveLoadsFlagged)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.imm("base", r1, 0x30000);
    a.loadExclusive("ldx", r2, r1, 0, 8);
    EXPECT_TRUE(out.back().exclusiveMem);
    EXPECT_FALSE(out.back().isPredictableLoad());
    a.load("ld", r2, r1, 0, 8);
    EXPECT_TRUE(out.back().isPredictableLoad());
}

TEST(AsmEmitter, BranchDirectionsAndTargets)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    const Addr target = a.pcOf("top");
    a.branch("br", true, "top");
    EXPECT_TRUE(out.back().taken);
    EXPECT_EQ(out.back().target, target);
    a.branch("br", false, "top");
    EXPECT_FALSE(out.back().taken);
    EXPECT_EQ(out.back().target, out.back().pc + 4);
}

TEST(AsmEmitter, CallRetPairing)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.call("c1", "fn");
    const Addr ret_target = out.back().pc + 4;
    a.nop("fn");
    a.ret("r1s");
    EXPECT_EQ(out.back().cls, OpClass::Ret);
    EXPECT_EQ(out.back().target, ret_target);
}

TEST(AsmEmitter, NestedCallsUnwindInOrder)
{
    std::vector<MicroOp> out;
    Asm a(out, 100, 1);
    a.call("c1", "f1");
    const Addr ret1 = out.back().pc + 4;
    a.call("c2", "f2");
    const Addr ret2 = out.back().pc + 4;
    a.ret("ra");
    EXPECT_EQ(out.back().target, ret2);
    a.ret("rb");
    EXPECT_EQ(out.back().target, ret1);
}

TEST(AsmEmitter, StopsAtMaxOps)
{
    std::vector<MicroOp> out;
    Asm a(out, 5, 1);
    for (int i = 0; i < 20; ++i)
        a.nop("n");
    EXPECT_EQ(out.size(), 5u);
    EXPECT_TRUE(a.done());
}

TEST(AsmEmitter, DeterministicRngFromSeed)
{
    std::vector<MicroOp> o1, o2;
    Asm a1(o1, 10, 99), a2(o2, 10, 99);
    EXPECT_EQ(a1.rng().next(), a2.rng().next());
}

TEST(AsmEmitter, IndirectBranchRecordsTarget)
{
    std::vector<MicroOp> out;
    Asm a(out, 10, 1);
    const Addr h = a.pcOf("handler3");
    a.indirect("dispatch", h, r1);
    EXPECT_EQ(out.back().cls, OpClass::IndirBr);
    EXPECT_EQ(out.back().target, h);
    EXPECT_TRUE(out.back().taken);
}

TEST(AsmEmitter, StoreRecordsDataAndAddressDeps)
{
    std::vector<MicroOp> out;
    Asm a(out, 10, 1);
    a.imm("b", r1, 0x40000);
    a.imm("v", r2, 7);
    a.store("st", r2, r1, 0, 4);
    const MicroOp &st = out.back();
    EXPECT_EQ(st.cls, OpClass::Store);
    EXPECT_EQ(st.src[0], r1);
    EXPECT_EQ(st.src[1], r2);
    EXPECT_EQ(st.memValue, 7u);
}

TEST(AsmEmitter, SameLabelTextIsOneSiteWhateverItsStorage)
{
    std::vector<MicroOp> out;
    Asm a(out, 10, 1);
    const Addr fromLiteral = a.pcOf("call_17");
    const std::string owned = "call_17";
    const std::string prefix = "call_";
    EXPECT_EQ(a.pcOf(owned), fromLiteral);
    EXPECT_EQ(a.pcOf(prefix + std::to_string(17)), fromLiteral);
    EXPECT_EQ(a.pcOf(std::string_view("call_17xyz", 7)), fromLiteral);
    // Labels of every length class (tail loads of 1-3, 4-7 and 8
    // bytes, and whole words before them) keep their identity too.
    for (const char *label : {"a", "ab", "abc", "abcd", "abcdefg",
                              "abcdefgh", "abcdefghi",
                              "abcdefghijklmnopq"}) {
        const Addr pc = a.pcOf(label);
        EXPECT_EQ(a.pcOf(std::string(label)), pc) << label;
    }
}

TEST(AsmEmitter, PcsFollowFirstUseOrder)
{
    std::vector<MicroOp> out;
    Asm a(out, 10, 1);
    const char *const order[] = {"zeta", "alpha", "mid", "", "alpha2"};
    for (std::size_t i = 0; i < std::size(order); ++i)
        EXPECT_EQ(a.pcOf(order[i]), Asm::codeBase + 4 * i) << order[i];
    // Re-use hands out nothing new; a branch target is a first use.
    EXPECT_EQ(a.pcOf("alpha"), Asm::codeBase + 4);
    a.branch("br", true, "target");
    EXPECT_EQ(out.back().pc, Asm::codeBase + 4 * 5);
    EXPECT_EQ(out.back().target, Asm::codeBase + 4 * 6);
}

TEST(AsmEmitter, DistinctLabelsGetDistinctPcs)
{
    std::vector<MicroOp> out;
    Asm a(out, 10, 1);
    // i's digits with (i mod 13) 'x's inserted in the middle: 1000
    // distinct labels of 1 to 15 bytes, many a single byte apart
    // (e.g. "104" and "1x4"), which stress the content hash and the
    // intern table's probing.
    std::vector<std::string> labels;
    for (unsigned i = 0; i < 1000; ++i) {
        std::string label = std::to_string(i);
        label.insert(label.size() / 2, std::string(i % 13, 'x'));
        labels.push_back(label);
    }
    for (std::size_t i = 0; i < labels.size(); ++i)
        ASSERT_EQ(a.pcOf(labels[i]), Asm::codeBase + 4 * i) << labels[i];
    for (std::size_t i = 0; i < labels.size(); ++i)
        ASSERT_EQ(a.pcOf(labels[i]), Asm::codeBase + 4 * i) << labels[i];
}
