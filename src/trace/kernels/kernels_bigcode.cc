/**
 * @file
 * Large-code-footprint kernels: hundreds of distinct static load
 * sites (gcc/perl-like). These put genuine capacity pressure on the
 * predictor tables, which is the regime where the paper's smart
 * training and heterogeneous sizing pay off (Sections V-C, V-D).
 */

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "trace/kernels/register.hh"
#include "trace/synth_kernel.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

constexpr RegId r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6;

/**
 * Site labels "<prefix><i>" for every i < count, one row per i. Built
 * once per trace, so the emit loops below concatenate no strings.
 */
template <std::size_t K>
std::vector<std::array<std::string, K>>
labelRows(const std::array<const char *, K> &prefixes, unsigned count)
{
    std::vector<std::array<std::string, K>> rows(count);
    for (unsigned i = 0; i < count; ++i)
        for (std::size_t k = 0; k < K; ++k)
            rows[i][k] = prefixes[k] + std::to_string(i);
    return rows;
}

/**
 * 64 small "functions" called in random order. Each has three
 * distinct static loads:
 *   - a constant global (Pattern-1, LVP),
 *   - its private walk cursor (a stride-1 *value* sequence - EVES's
 *     E-Stride territory, opaque to the composite's components), and
 *   - the data word at the cursor (strided address, SAP).
 * With 64 x 3 load sites plus call/return traffic, small predictor
 * tables are oversubscribed several times over.
 */
class BigCodeKernel : public SynthKernel
{
  public:
    BigCodeKernel() : SynthKernel("big_code") {}

  protected:
    static constexpr unsigned numFuncs = 64;
    static constexpr Addr globalsBase = 0x80000000;
    static constexpr Addr cursorsBase = 0x80010000;
    static constexpr Addr arraysBase = 0x80100000;
    static constexpr std::size_t arrayLen = 4096; ///< 8B elements

    void
    init(Asm &a) const override
    {
        for (unsigned f = 0; f < numFuncs; ++f) {
            a.mem().write(globalsBase + f * 8, 0x60a1 + f * 0x11,
                          8);
            const Addr arr = arraysBase + Addr(f) * arrayLen * 8;
            a.mem().write(cursorsBase + f * 8, arr, 8);
            for (std::size_t i = 0; i < arrayLen; ++i)
                a.mem().write(arr + i * 8, mix64(arr + i * 8) | 1,
                              8);
        }
    }

    void
    body(Asm &a) const override
    {
        enum
        {
            Call, Fn, Gb, Ldc, Cb, Ldu, Ldd, Sum, Mix, Wrap, Adv, Stu, Ret
        };
        const auto labels = labelRows<13>(
            {"call_", "fn_", "gb_", "ldc_", "cb_", "ldu_", "ldd_", "sum_",
             "mix_", "wrap_", "adv_", "stu_", "ret_"},
            numFuncs);
        a.imm("acc", r5, 0);
        while (!a.done()) {
            const unsigned f = unsigned(a.rng().below(numFuncs));
            const auto &n = labels[f];
            a.call(n[Call], n[Fn]);
            a.nop(n[Fn]);
            // Constant global (P1).
            a.imm(n[Gb], r1, globalsBase + f * 8);
            a.load(n[Ldc], r2, r1, 0, 8);
            // Private cursor: value strides by 8 every visit.
            a.imm(n[Cb], r3, cursorsBase + f * 8);
            Value cur = a.load(n[Ldu], r4, r3, 0, 8);
            // Data at the cursor (strided address per site).
            a.load(n[Ldd], r6, r4, 0, 8);
            a.add(n[Sum], r5, r5, r6);
            a.add(n[Mix], r5, r5, r2);
            // Advance (wrap at the array end).
            const Addr arr =
                arraysBase + Addr(f) * arrayLen * 8;
            if (cur + 8 >= arr + arrayLen * 8)
                a.imm(n[Wrap], r4, arr);
            else
                a.addi(n[Adv], r4, r4, 8);
            a.store(n[Stu], r4, r3, 0, 8);
            a.ret(n[Ret]);
        }
    }
};

/**
 * A deep call tree over 32 distinct leaf routines, each reloading its
 * own spilled state (perlbench-like). Exercises the RAS and adds
 * another ~100 static loads of mostly Pattern-1/Pattern-3 flavour.
 */
class CallTreeKernel : public SynthKernel
{
  public:
    CallTreeKernel() : SynthKernel("call_tree") {}

  protected:
    static constexpr unsigned numLeaves = 32;
    static constexpr Addr stateBase = 0x81000000;

    void
    init(Asm &a) const override
    {
        for (unsigned l = 0; l < numLeaves; ++l) {
            a.mem().write(stateBase + l * 32, 0x5a11 + l * 7, 8);
            a.mem().write(stateBase + l * 32 + 8, l, 8);
            a.mem().write(stateBase + l * 32 + 16,
                          (l * 37) % 100, 8);
        }
    }

    void
    body(Asm &a) const override
    {
        enum { Call, Leaf, Sb, LdA, LdB, LdC, S1, S2, S3, Ret };
        const auto labels = labelRows<10>(
            {"call_", "leaf_", "sb_", "ld_a_", "ld_b_", "ld_c_", "s1_",
             "s2_", "s3_", "ret_"},
            numLeaves);
        a.imm("acc", r5, 0);
        while (!a.done()) {
            // A biased random walk picks 4 leaves per round.
            for (int hop = 0; hop < 4 && !a.done(); ++hop) {
                const unsigned l = unsigned(
                    a.rng().bernoulli(0.6)
                        ? a.rng().below(4)      // hot leaves
                        : a.rng().below(numLeaves));
                const auto &n = labels[l];
                a.call(n[Call], n[Leaf]);
                a.nop(n[Leaf]);
                a.imm(n[Sb], r1, stateBase + l * 32);
                a.load(n[LdA], r2, r1, 0, 8);
                a.load(n[LdB], r3, r1, 8, 8);
                a.load(n[LdC], r4, r1, 16, 8);
                a.add(n[S1], r5, r5, r2);
                a.add(n[S2], r5, r5, r3);
                a.add(n[S3], r5, r5, r4);
                a.ret(n[Ret]);
            }
            a.branch("round", true, "acc", r5);
        }
    }
};

} // anonymous namespace

void
registerBigCodeKernels(WorkloadRegistry &reg)
{
    reg.add("big_code",
            "64 functions x 3 load sites, random calls (capacity)",
            [] { return std::make_unique<BigCodeKernel>(); });
    reg.add("call_tree",
            "32 leaves x 3 state loads, biased call walk (P1/RAS)",
            [] { return std::make_unique<CallTreeKernel>(); });
}

} // namespace trace
} // namespace lvpsim
