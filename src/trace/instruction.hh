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
    // Wide fields first, then narrow ones, so the struct packs into
    // 48 bytes: every layer streams whole traces of these, so size is
    // bandwidth.
    Addr pc = 0;

    /// Memory reference fields (Load/Store only).
    Addr effAddr = 0;
    Value memValue = 0;            ///< value loaded or stored

    /// Control fields (Branch/Call/Ret/IndirBr only).
    Addr target = 0;               ///< next PC actually followed

    RegId dst = invalidReg;
    std::array<RegId, 3> src{invalidReg, invalidReg, invalidReg};

    OpClass cls = OpClass::Nop;
    std::uint8_t memSize = 0;      ///< access width in bytes (1/2/4/8)
    bool exclusiveMem = false;     ///< atomic/exclusive: never predicted
    bool taken = false;

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

static_assert(sizeof(MicroOp) == 48, "keep MicroOp's wide fields first");

} // namespace trace
} // namespace lvpsim

