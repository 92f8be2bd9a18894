/**
 * @file
 * The dynamic instruction record exchanged between the trace layer and
 * the pipeline model.
 *
 * lvpsim is trace driven: synthetic kernels execute functionally inside
 * the trace layer (over a real memory image) and emit one MicroOp per
 * dynamic instruction. The pipeline then models timing only, so a value
 * misprediction can never corrupt architectural state — it costs a
 * flush, which is exactly the recovery model the paper assumes.
 */

#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/types.hh"

namespace lvpsim
{
namespace trace
{

/** Coarse operation classes; the pipeline maps these to lane/latency. */
enum class OpClass : std::uint8_t
{
    IntAlu,   ///< 1-cycle integer op
    IntMul,   ///< 3-cycle multiply
    IntDiv,   ///< 12-cycle divide (unpipelined)
    FpAlu,    ///< 4-cycle floating point
    Load,     ///< memory read (LS lane)
    Store,    ///< memory write (LS lane)
    Branch,   ///< conditional direct branch
    Call,     ///< direct call (pushes RAS)
    Ret,      ///< return (pops RAS, indirect)
    IndirBr,  ///< other indirect branch (ITTAGE)
    Barrier,  ///< memory ordering instruction
    Nop
};

constexpr bool
isMemRef(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

constexpr bool
isControl(OpClass c)
{
    return c == OpClass::Branch || c == OpClass::Call ||
           c == OpClass::Ret || c == OpClass::IndirBr;
}

/** One dynamic instruction. */
struct MicroOp
{
    // 32 bytes: every layer streams whole traces of these, so size is
    // bandwidth. Wide fields first, then the narrow ones.
    Addr pc = 0;

    /**
     * One slot for the op's address: memory ops own `effAddr`,
     * control ops own `target`, and no op is both. Code that does not
     * know the class reads memAddr()/ctrlTarget() instead. Both
     * members are `Addr`, so a control op whose target was never set
     * reads the slot's initial 0 (GCC and Clang define union reads
     * through the other member).
     */
    union
    {
        Addr effAddr = 0;          ///< Load/Store only
        Addr target;               ///< control only: next PC followed
    };
    Value memValue = 0;            ///< value loaded or stored

    RegId dst = invalidReg;
    std::array<RegId, 3> src{invalidReg, invalidReg, invalidReg};

    OpClass cls = OpClass::Nop;
    std::uint8_t memSize = 0;      ///< access width in bytes (1/2/4/8)
    bool exclusiveMem = false;     ///< atomic/exclusive: never predicted
    bool taken = false;

    /** Effective address of a memory op; 0 for every other class. */
    Addr memAddr() const { return isMemRef(cls) ? effAddr : 0; }
    /** Next PC of a control op; 0 for every other class. */
    Addr ctrlTarget() const { return isControl(cls) ? target : 0; }

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isBranch() const { return isControl(cls); }

    /**
     * Loads eligible for value/address prediction. The paper excludes
     * memory ordering instructions and atomic/exclusive accesses
     * (Section III-A).
     */
    bool
    isPredictableLoad() const
    {
        return isLoad() && !exclusiveMem;
    }

    unsigned
    numSrcs() const
    {
        unsigned n = 0;
        for (RegId r : src)
            n += (r != invalidReg) ? 1 : 0;
        return n;
    }
};

static_assert(sizeof(MicroOp) == 32,
              "MicroOp: one shared address slot, 8-bit registers");
static_assert(std::is_trivially_copyable_v<MicroOp>,
              "traces are copied and streamed as plain bytes");

} // namespace trace
} // namespace lvpsim

