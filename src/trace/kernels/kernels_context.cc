/**
 * @file
 * Context-correlated kernels: loads whose value/address is predictable
 * only when the path history is taken into account (the paper's
 * Pattern-3, CVP/CAP territory), plus the phase-alternating kernel that
 * exercises accuracy monitoring and table fusion.
 */

#include <memory>
#include <string>
#include <vector>

#include "trace/kernels/register.hh"
#include "trace/synth_kernel.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

constexpr RegId r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6, r7 = 7,
                r8 = 8, r9 = 9;

/**
 * Bytecode interpreter dispatch loop (perl/JS-like). The opcode load
 * strides through a short program that repeats, the dispatch is an
 * indirect branch (ITTAGE), and each handler's operand load is
 * context-predictable: the handler sequence is encoded in the path
 * history.
 */
class InterpDispatchKernel : public SynthKernel
{
  public:
    InterpDispatchKernel() : SynthKernel("interp_dispatch") {}

  protected:
    static constexpr Addr progBase = 0x60000000;
    static constexpr Addr constPool = 0x60010000;
    static constexpr Addr stackBase = 0x60020000;
    static constexpr std::size_t progLen = 96;
    static constexpr unsigned numOps = 8;

    void
    init(Asm &a) const override
    {
        // A fixed random "program" that the interpreter loops over.
        for (std::size_t i = 0; i < progLen; ++i)
            a.mem().write(progBase + i, a.rng().below(numOps), 1);
        for (unsigned i = 0; i < numOps; ++i)
            a.mem().write(constPool + i * 8, 0xc0de + i * 0x101, 8);
    }

    void
    body(Asm &a) const override
    {
        std::vector<std::string> handlers;
        for (unsigned op = 0; op < numOps; ++op) {
            const std::string os = std::to_string(op);
            handlers.push_back("h" + os);
        }
        a.imm("vpc0", r1, progBase);
        a.imm("sp", r2, stackBase);
        a.imm("acc", r3, 0);
        std::size_t vpc = 0;
        std::uint64_t sp = 0;
        while (!a.done()) {
            // Fetch the opcode (strided byte load, wraps at progLen).
            Value opc = a.load("ld_opc", r4, r1, 0, 1);
            // Dispatch through a jump table (indirect branch).
            const std::string &handler = handlers.at(opc);
            a.indirect("dispatch", a.pcOf(handler), r4);
            a.nop(handler);
            switch (opc & 3) {
              case 0:
                // push constant: constant-pool load (P1 per handler).
                a.imm("cpoff", r5, opc * 8);
                a.imm("cpb", r6, constPool);
                a.load("ld_const", r7, r6, 0, 8, r5);
                a.store("st_push", r7, r2, std::int64_t(sp) * 8, 8);
                sp = (sp + 1) % 16;
                break;
              case 1:
                // binary op: two stack reloads (P3: program position
                // is in the history via the dispatch targets).
                if (sp >= 2) {
                    a.load("ld_s0", r7, r2,
                           std::int64_t(sp - 1) * 8, 8);
                    a.load("ld_s1", r8, r2,
                           std::int64_t(sp - 2) * 8, 8);
                    a.add("vadd", r9, r7, r8);
                    a.store("st_res", r9, r2,
                            std::int64_t(sp - 2) * 8, 8);
                    sp -= 1;
                } else {
                    a.addi("uflow", r3, r3, 1);
                }
                break;
              case 2:
                // accumulate top of stack.
                if (sp >= 1) {
                    a.load("ld_top", r7, r2,
                           std::int64_t(sp - 1) * 8, 8);
                    a.add("acc2", r3, r3, r7);
                } else {
                    a.addi("uflow2", r3, r3, 1);
                }
                break;
              default:
                // bump a counter global.
                a.imm("gp", r5, constPool + 0x800);
                a.load("ld_ctr", r6, r5, 0, 8);
                a.addi("cinc", r6, r6, 1);
                a.store("st_ctr", r6, r5, 0, 8);
                break;
            }
            vpc = (vpc + 1) % progLen;
            if (vpc == 0) {
                a.imm("vwrap", r1, progBase);
                a.branch("br_wrap", true, "ld_opc", r1);
            } else {
                a.addi("vinc", r1, r1, 1);
                a.branch("br_next", true, "ld_opc", r1);
            }
        }
    }
};

/**
 * Polymorphic object property access (JS/V8-like): objects carry a
 * shape pointer; the shape determines a field offset. Object type
 * correlates with the preceding type-check branch, so the offset and
 * field loads are context-predictable.
 */
class ObjectGraphKernel : public SynthKernel
{
  public:
    ObjectGraphKernel() : SynthKernel("object_graph") {}

  protected:
    static constexpr Addr shapeBase = 0x61000000;
    static constexpr Addr objBase = 0x61010000;
    static constexpr std::size_t numShapes = 4;
    static constexpr std::size_t numObjs = 128;
    static constexpr unsigned objSize = 64;

    void
    init(Asm &a) const override
    {
        for (std::size_t s = 0; s < numShapes; ++s) {
            a.mem().write(shapeBase + s * 16, 8 + s * 8, 8); // offset
            a.mem().write(shapeBase + s * 16 + 8, s, 8);     // kind
        }
        for (std::size_t o = 0; o < numObjs; ++o) {
            // Object sequence has structure: shapes repeat in runs.
            const std::size_t s = (o / 16) % numShapes;
            a.mem().write(objBase + o * objSize,
                          shapeBase + s * 16, 8);
            for (unsigned f = 1; f < 6; ++f)
                a.mem().write(objBase + o * objSize + f * 8,
                              0xf1e1d + o * 0x10 + f, 8);
        }
    }

    void
    body(Asm &a) const override
    {
        std::vector<std::string> icLoads;
        for (std::size_t kind = 0; kind < numShapes; ++kind) {
            const std::string ks = std::to_string(kind);
            icLoads.push_back("ic_ld" + ks);
        }
        a.imm("acc", r5, 0);
        while (!a.done()) {
            // Random object visits (heap objects are not laid out in
            // walk order): the object pointer itself is unpredictable;
            // the shape-dependent loads are the context-predictable
            // part.
            const std::size_t o = a.rng().below(numObjs);
            a.imm("po", r1, objBase + o * objSize);
            Value shape = a.load("ld_shape", r2, r1, 0, 8);
            // Inline-cache style shape checks: a chain of compare
            // branches puts the shape into the path history.
            const std::size_t kind = (shape - shapeBase) / 16;
            a.branch("ic0", kind == 0, "slow0", r2);
            if (kind != 0)
                a.branch("ic1", kind == 1, "slow1", r2);
            if (kind > 1)
                a.branch("ic2", kind == 2, "slow2", r2);
            a.nop(kind == 0 ? "slow0" : kind == 1 ? "slow1" : "slow2");
            // Per-shape descriptor probe from a shape-specific site:
            // puts the shape into the load path history, so CAP can
            // separate the contexts like CVP does.
            a.imm("psk", r7, shape);
            a.load(icLoads.at(kind), r8, r7, 8, 8);
            // Offset load from the shape (P3), then the field itself.
            a.imm("ps", r3, shape);
            Value off = a.load("ld_off", r4, r3, 0, 8);
            a.load("ld_field", r6, r1, 0, 8, r4);
            a.add("sum", r5, r5, r6);
            (void)off;
            a.branch("br", true, "po", r1);
        }
    }
};

/**
 * A[B[i]] gather where B holds a short repeating index pattern and the
 * B value steers a branch: the A-load address correlates with history.
 */
class IndirectIndexKernel : public SynthKernel
{
  public:
    IndirectIndexKernel() : SynthKernel("indirect_index") {}

  protected:
    static constexpr Addr aBase = 0x62000000;
    static constexpr Addr bBase = 0x62100000;
    static constexpr std::size_t bLen = 8192;
    static constexpr std::size_t aLen = 64;
    static constexpr std::size_t period = 12;

    void
    init(Asm &a) const override
    {
        // B repeats a fixed 12-entry index pattern.
        std::vector<std::uint32_t> pat(period);
        for (auto &p : pat)
            p = a.rng().below(aLen);
        for (std::size_t i = 0; i < bLen; ++i)
            a.mem().write(bBase + i * 4, pat[i % period], 4);
        for (std::size_t i = 0; i < aLen; ++i)
            a.mem().write(aBase + i * 8, 0xa11ce + i * 0x21, 8);
    }

    void
    body(Asm &a) const override
    {
        a.imm("pb", r1, bBase);
        a.imm("acc", r2, 0);
        for (std::size_t i = 0; i < bLen && !a.done(); ++i) {
            Value idx = a.load("ld_b", r3, r1, 0, 4);
            // The index value steers a branch, exposing it to history.
            a.branch("br_idx", idx >= aLen / 2, "high", r3);
            a.nop(idx >= aLen / 2 ? "high" : "low");
            a.shl("aoff", r4, r3, 3);
            a.imm("ab", r5, aBase);
            a.load("ld_a", r6, r5, 0, 8, r4);
            a.add("sum", r2, r2, r6);
            a.addi("pbi", r1, r1, 4);
            a.branch("br", i + 1 < bLen, "ld_b", r1);
        }
    }
};

/** Substring scan with an inner pattern-compare loop (perlbmk-like). */
class StringSearchKernel : public SynthKernel
{
  public:
    StringSearchKernel() : SynthKernel("string_search") {}

  protected:
    static constexpr Addr textBase = 0x63000000;
    static constexpr Addr patBase = 0x63100000;
    static constexpr std::size_t textLen = 48 * 1024;
    static constexpr std::size_t patLen = 6;

    void
    init(Asm &a) const override
    {
        static const char pat[] = "needle";
        for (std::size_t i = 0; i < patLen; ++i)
            a.mem().write(patBase + i, std::uint8_t(pat[i]), 1);
        for (std::size_t i = 0; i < textLen; ++i) {
            std::uint8_t b = std::uint8_t(0x61 + a.rng().below(26));
            a.mem().write(textBase + i, b, 1);
        }
        // Plant some needles.
        for (unsigned k = 0; k < 64; ++k) {
            const std::size_t pos = a.rng().below(textLen - patLen);
            for (std::size_t i = 0; i < patLen; ++i)
                a.mem().write(textBase + pos + i,
                              std::uint8_t(pat[i]), 1);
        }
    }

    void
    body(Asm &a) const override
    {
        a.imm("pt", r1, textBase);
        a.imm("pp", r2, patBase);
        a.imm("hits", r3, 0);
        const Value first = a.mem().read(patBase, 1);
        for (std::size_t i = 0; i + patLen < textLen && !a.done();
             ++i) {
            Value c = a.load("ld_c", r4, r1, 0, 1);
            a.branch("br_c", c == first, "inner", r4);
            if (c == first) {
                a.nop("inner");
                // Compare the remaining pattern bytes: the pattern
                // loads always return the same values (P1/P3).
                bool match = true;
                for (std::size_t k = 1; k < patLen && match; ++k) {
                    Value pv = a.load("ld_p", r5, r2,
                                      std::int64_t(k), 1);
                    Value tv = a.load("ld_t", r6, r1,
                                      std::int64_t(k), 1);
                    match = (pv == tv);
                    a.branch("br_k", match && k + 1 < patLen, "ld_p",
                             r6);
                }
                if (match)
                    a.addi("hit", r3, r3, 1);
            }
            a.addi("pti", r1, r1, 1);
            a.branch("br", true, "ld_c", r1);
        }
    }
};

/**
 * Phase alternator: ~40K instructions of highly LVP-predictable work,
 * then ~40K of hostile work where stale confident entries mispredict.
 * Exercises M-AM/PC-AM silencing and table fusion's epoch adaptation.
 */
class PhaseMixerKernel : public SynthKernel
{
  public:
    PhaseMixerKernel() : SynthKernel("phase_mixer") {}

  protected:
    static constexpr Addr cBase = 0x64000000;
    static constexpr Addr hBase = 0x64100000;
    static constexpr std::size_t hSlots = 1 << 12;

    void
    init(Asm &a) const override
    {
        for (unsigned i = 0; i < 4; ++i)
            a.mem().write(cBase + i * 8, 0x5eed + i, 8);
        for (std::size_t i = 0; i < hSlots; ++i)
            a.mem().write(hBase + i * 8, a.rng().next(), 8);
    }

    void
    body(Asm &a) const override
    {
        a.imm("pc1", r1, cBase);
        a.imm("ph", r2, hBase);
        a.imm("acc", r3, 0);
        while (!a.done()) {
            // Predictable phase: constant reloads.
            for (unsigned i = 0; i < 8000 && !a.done(); ++i) {
                a.load("ld_k0", r4, r1, 0, 8);
                a.load("ld_k1", r5, r1, 8, 8);
                a.add("s1", r3, r3, r4);
                a.add("s2", r3, r3, r5);
                a.branch("brp", i + 1 < 8000, "ld_k0", r3);
            }
            // Hostile phase: the same static loads now see random
            // addresses/values (function pointer swap, say).
            for (unsigned i = 0; i < 8000 && !a.done(); ++i) {
                a.imm("roff", r6, a.rng().below(hSlots) * 8);
                a.load("ld_k0", r4, r2, 0, 8, r6);
                a.imm("roff2", r6, a.rng().below(hSlots) * 8);
                a.load("ld_k1", r5, r2, 0, 8, r6);
                a.add("h1", r3, r3, r4);
                a.add("h2", r3, r3, r5);
                a.branch("brh", i + 1 < 8000, "roff", r3);
            }
        }
    }
};

} // anonymous namespace

void
registerContextKernels(WorkloadRegistry &reg)
{
    reg.add("interp_dispatch",
            "bytecode interpreter dispatch (P3, ITTAGE)",
            [] { return std::make_unique<InterpDispatchKernel>(); });
    reg.add("object_graph", "polymorphic property access (P3)",
            [] { return std::make_unique<ObjectGraphKernel>(); });
    reg.add("indirect_index", "A[B[i]] gather, periodic B (P2+P3)",
            [] { return std::make_unique<IndirectIndexKernel>(); });
    reg.add("string_search", "substring scan with compare loop (P1/P2)",
            [] { return std::make_unique<StringSearchKernel>(); });
    reg.add("phase_mixer", "alternating friendly/hostile phases (AM)",
            [] { return std::make_unique<PhaseMixerKernel>(); });
}

} // namespace trace
} // namespace lvpsim
