/**
 * @file
 * Legacy-kernel equivalence gate for the kernel-spec DSL (`ctest -L
 * differential`): a handful of the hand-written suite kernels are
 * re-expressed as KernelSpecs, and each pair must produce a
 * byte-identical MicroOp stream — same PCs, op classes, registers,
 * addresses, values, branch targets — across seeds and trace
 * lengths, including mid-iteration truncation points. This pins the
 * DSL's emission contract (register roles, prologue re-emission,
 * site first-use order, init RNG draw order) to the kernels the
 * paper results were produced with.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "trace/kernel_spec.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using trace::MicroOp;

namespace
{

/** name -> spec re-expression of the legacy kernel. */
struct Pair
{
    const char *legacy;
    const char *spec;
};

const Pair kPairs[] = {
    {"const_table",
     "[base=0x30000000]const(),const(v=0x1111,glue=xor),"
     "const(v=0x1222),const(v=0x1333,glue=xor),const(v=0x1444),"
     "const(v=0x1555,glue=xor),const(v=0x1666),const(v=0x1777)"},
    {"stream_sum",
     "[iters=32768,base=0x20000000]"
     "stride(wset=32768,fill=rng,glue=fadd)"},
    {"pointer_chase", "[base=0x40000000]chase(order=shuffle)"},
};

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.pc == b.pc && a.cls == b.cls && a.dst == b.dst &&
           a.src == b.src && a.memAddr() == b.memAddr() &&
           a.memSize == b.memSize && a.memValue == b.memValue &&
           a.exclusiveMem == b.exclusiveMem && a.taken == b.taken &&
           a.ctrlTarget() == b.ctrlTarget();
}

class SpecEquivalence
    : public testing::TestWithParam<std::tuple<Pair, std::uint64_t>>
{};

TEST_P(SpecEquivalence, ByteIdenticalStream)
{
    const Pair &p = std::get<0>(GetParam());
    const std::uint64_t seed = std::get<1>(GetParam());

    std::string err;
    const trace::KernelSpec ks = trace::parseKernelSpec(p.spec, &err);
    ASSERT_TRUE(err.empty()) << p.spec << ": " << err;
    const trace::SpecKernel spec(ks);
    const auto &legacy =
        trace::WorkloadRegistry::instance().find(p.legacy);

    // Full length plus truncation points that cut prologues and
    // iterations mid-way (70001 lands inside an iteration for all
    // three kernels).
    for (std::size_t len : {std::size_t(50000), std::size_t(70001),
                            std::size_t(7), std::size_t(1)}) {
        const auto want = legacy.make()->generate(len, seed);
        const auto got = spec.generate(len, seed);
        ASSERT_EQ(want.size(), got.size())
            << p.legacy << " len=" << len;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameOp(want[i], got[i]))
                << p.legacy << " len=" << len << " op " << i
                << ": pc 0x" << std::hex << want[i].pc << " vs 0x"
                << got[i].pc;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LegacyKernels, SpecEquivalence,
    testing::Combine(testing::ValuesIn(kPairs),
                     testing::Values(std::uint64_t(1),
                                     std::uint64_t(42))),
    [](const testing::TestParamInfo<SpecEquivalence::ParamType> &i) {
        return std::string(std::get<0>(i.param).legacy) + "_seed" +
               std::to_string(std::get<1>(i.param));
    });

} // anonymous namespace
