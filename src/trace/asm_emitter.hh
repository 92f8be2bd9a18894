/**
 * @file
 * The kernel "assembler": a small DSL synthetic kernels use to emit a
 * dynamic MicroOp stream while executing functionally.
 *
 * Each emit call names a static *site* by a std::string_view label; all
 * dynamic instances emitted from the same site share a PC, exactly like
 * dynamic instances of one static instruction. Sites are interned by
 * label content (a literal, a std::string and a freshly concatenated
 * string with the same text are one site), and PCs are handed out in
 * first-use order, so a kernel's PCs depend only on the order in which
 * it first names its sites. The intern table is an open-addressing map
 * over a 64-bit content hash that keeps each interned label, so two
 * labels whose hashes collide fail loudly instead of sharing a PC; an
 * emit call copies no string. Register values and memory are
 * tracked functionally, so the emitted trace is dataflow- and
 * memory-consistent: every load's memValue is what the program actually
 * stored there.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "trace/instruction.hh"
#include "trace/memory_image.hh"

namespace lvpsim
{
namespace trace
{

class Asm
{
  public:
    /** Default code base for synthetic kernels. */
    static constexpr Addr codeBase = 0x400000;

    Asm(std::vector<MicroOp> &out, std::size_t max_ops,
        std::uint64_t seed);

    /** True once max_ops have been emitted; kernels poll this in loops. */
    bool done() const { return buf.size() >= maxOps; }
    std::size_t emitted() const { return buf.size(); }

    /** The PC assigned to a static site (stable per unique name). */
    Addr pcOf(std::string_view site);

    // ------------------------------------------------------------------
    // Integer / FP computation. Values are computed from the tracked
    // register file so downstream dataflow is genuine.
    // ------------------------------------------------------------------
    void imm(std::string_view site, RegId dst, Value v);
    void add(std::string_view site, RegId dst, RegId a, RegId b);
    void addi(std::string_view site, RegId dst, RegId a,
              std::int64_t val);
    void sub(std::string_view site, RegId dst, RegId a, RegId b);
    void mul(std::string_view site, RegId dst, RegId a, RegId b);
    void div(std::string_view site, RegId dst, RegId a, RegId b);
    void andOp(std::string_view site, RegId dst, RegId a, RegId b);
    void xorOp(std::string_view site, RegId dst, RegId a, RegId b);
    void shl(std::string_view site, RegId dst, RegId a, unsigned sh);
    void shr(std::string_view site, RegId dst, RegId a, unsigned sh);
    /** FP-latency op; integer add semantics (values are opaque here). */
    void fadd(std::string_view site, RegId dst, RegId a, RegId b);
    void fmul(std::string_view site, RegId dst, RegId a, RegId b);
    void nop(std::string_view site);

    // ------------------------------------------------------------------
    // Memory. effAddr = regs[addr_reg] + offset (+ regs[index_reg]).
    // ------------------------------------------------------------------
    /** Emit a load; returns (and writes to dst) the loaded value. */
    Value load(std::string_view site, RegId dst, RegId addr_reg,
               std::int64_t offset, unsigned size,
               RegId index_reg = invalidReg);
    void store(std::string_view site, RegId data_reg, RegId addr_reg,
               std::int64_t offset, unsigned size,
               RegId index_reg = invalidReg);
    /** Exclusive/atomic load: never value-predicted (Section III-A). */
    Value loadExclusive(std::string_view site, RegId dst,
                        RegId addr_reg, std::int64_t offset,
                        unsigned size);
    void storeExclusive(std::string_view site, RegId data_reg,
                        RegId addr_reg, std::int64_t offset,
                        unsigned size);
    void barrier(std::string_view site);

    // ------------------------------------------------------------------
    // Control flow. Directions/targets are recorded for the branch
    // predictors; the trace follows the actual outcome.
    // ------------------------------------------------------------------
    void branch(std::string_view site, bool taken,
                std::string_view target_site,
                RegId cond_reg = invalidReg);
    void call(std::string_view site, std::string_view target_site);
    void ret(std::string_view site);
    /** Indirect branch whose target varies (drives ITTAGE). */
    void indirect(std::string_view site, Addr target,
                  RegId target_reg = invalidReg);

    // ------------------------------------------------------------------
    // Kernel-side helpers.
    // ------------------------------------------------------------------
    Value reg(RegId r) const { return regs.at(r); }
    MemoryImage &mem() { return image; }
    Xoshiro256 &rng() { return rngState; }

  private:
    /** pcOf's slow path: a label's first use gets the next PC. */
    Addr internSite(std::uint64_t hash, std::string_view site);
    void push(MicroOp op);
    MicroOp make(std::string_view site, OpClass cls);

    std::vector<MicroOp> &buf;
    std::size_t maxOps;
    MemoryImage image;
    Xoshiro256 rngState;
    std::array<Value, numArchRegs> regs{};
    /** The content hash is already mixed; FlatMap uses it as is. */
    struct PreHashed
    {
        std::uint64_t operator()(std::uint64_t h) const { return h; }
    };
    /** Label content hash -> site index (index into siteNames). */
    FlatMap<std::uint64_t, unsigned, PreHashed> sites;
    /** Interned labels in first-use order; site i has PC codeBase+4i. */
    std::vector<std::string> siteNames;
    std::vector<Addr> callStack;
};

} // namespace trace
} // namespace lvpsim

