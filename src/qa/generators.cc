#include "qa/generators.hh"

#include <algorithm>

namespace lvpsim
{
namespace qa
{

using trace::MicroOp;
using trace::OpClass;

std::uint64_t
Gen::interestingValue()
{
    switch (below(6)) {
      case 0: return below(16);                    // small
      case 1: return ~std::uint64_t(0);            // all ones
      case 2: {                                    // power of two
        const unsigned k = unsigned(below(64));
        return std::uint64_t(1) << k;
      }
      case 3: {                                    // 2^k - 1 / 2^k + 1
        const unsigned k = unsigned(below(63)) + 1;
        const std::uint64_t p = std::uint64_t(1) << k;
        return chance(0.5) ? p - 1 : p + 1;
      }
      case 4: return std::uint64_t(-std::int64_t(below(16)));
      default: return u64();                       // random word
    }
}

namespace
{

/** Per-static-PC behaviour for addresses and values. */
struct PcPlan
{
    Addr pc = 0;
    OpClass cls = OpClass::IntAlu;
    RegId dst = invalidReg;
    std::array<RegId, 3> src{invalidReg, invalidReg, invalidReg};

    // Memory behaviour (Load/Store).
    unsigned addrMode = 0;   ///< 0 const, 1 stride, 2 random, 3 period
    Addr baseAddr = 0;
    std::int64_t stride = 0;
    unsigned period = 1;
    std::uint8_t memSize = 8;
    bool exclusive = false;

    // Value behaviour (Load): 0 const, 1 stride, 2 random, 3 period.
    unsigned valueMode = 0;
    Value baseValue = 0;
    std::int64_t valueStride = 0;

    // Control behaviour (Branch): taken probability.
    double takenProb = 0.5;
    Addr target = 0;

    // Dynamic state while emitting.
    std::uint64_t occurrences = 0;
};

OpClass
drawClass(Gen &g, const TraceGenConfig &cfg)
{
    const double total = 1.0;
    double x = double(g.below(1u << 20)) / double(1u << 20) * total;
    if ((x -= cfg.loadWeight) < 0)
        return OpClass::Load;
    if ((x -= cfg.storeWeight) < 0)
        return OpClass::Store;
    if ((x -= cfg.branchWeight) < 0) {
        // Mostly conditional branches; sprinkle the other control
        // classes so RAS/ITTAGE paths run too. Calls and returns are
        // emitted unpaired - the RAS tolerates (and the pipeline
        // must tolerate) arbitrary call/return sequences.
        switch (g.below(8)) {
          case 0: return OpClass::Call;
          case 1: return OpClass::Ret;
          case 2: return OpClass::IndirBr;
          default: return OpClass::Branch;
        }
    }
    switch (g.below(10)) {
      case 0: return OpClass::IntMul;
      case 1: return OpClass::IntDiv;
      case 2: return OpClass::FpAlu;
      case 3: return OpClass::Nop;
      case 4: return OpClass::Barrier;
      default: return OpClass::IntAlu;
    }
}

PcPlan
makePlan(Gen &g, const TraceGenConfig &cfg, unsigned idx)
{
    PcPlan p;
    p.cls = drawClass(g, cfg);
    p.pc = 0x400000 + Addr(idx) * 4;
    // Occasionally alias two static slots onto one PC to stress
    // per-PC structures (inflight counts, predictor tags).
    if (idx > 0 && g.chance(0.05))
        p.pc = 0x400000 + g.below(idx) * 4;

    if (p.cls != OpClass::Store && p.cls != OpClass::Barrier &&
        p.cls != OpClass::Nop && !trace::isControl(p.cls))
        p.dst = RegId(g.below(numArchRegs));
    for (auto &s : p.src)
        if (g.chance(0.55))
            s = RegId(g.below(numArchRegs));

    if (p.cls == OpClass::Load || p.cls == OpClass::Store) {
        static const std::uint8_t sizes[4] = {1, 2, 4, 8};
        p.memSize = sizes[g.below(4)];
        p.addrMode = unsigned(g.below(4));
        // Addresses within a few disjoint 1 MiB regions, aligned to
        // the access size so fuzzed traces look like compiler output.
        p.baseAddr = (0x10000000 + g.below(8) * 0x100000 +
                      g.below(0x100000)) &
                     ~Addr(p.memSize - 1);
        p.stride = std::int64_t(g.range(0, 64)) - 32;
        p.stride *= p.memSize;
        p.period = unsigned(g.range(1, 8));
        p.exclusive =
            p.cls == OpClass::Load && g.chance(cfg.exclusiveFrac);

        p.valueMode = unsigned(g.below(4));
        p.baseValue = g.interestingValue();
        p.valueStride = std::int64_t(g.range(0, 8)) - 4;
    } else if (trace::isControl(p.cls)) {
        p.takenProb = g.chance(0.3) ? (g.chance(0.5) ? 0.0 : 1.0)
                                    : g.rng().uniform();
        p.target = 0x400000 + g.below(4096) * 4;
    }
    return p;
}

Addr
nextAddr(Gen &g, PcPlan &p)
{
    switch (p.addrMode) {
      case 0: return p.baseAddr;
      case 1:
        // Unsigned, so the stride wraps instead of overflowing.
        return (p.baseAddr + p.occurrences * Addr(p.stride)) &
               ~Addr(p.memSize - 1);
      case 2:
        return (p.baseAddr + g.below(0x40000) * p.memSize) &
               ~Addr(p.memSize - 1);
      default:
        return p.baseAddr +
               Addr(p.occurrences % p.period) * p.memSize;
    }
}

Value
nextValue(Gen &g, PcPlan &p)
{
    switch (p.valueMode) {
      case 0: return p.baseValue;
      case 1:
        return p.baseValue + p.occurrences * Value(p.valueStride);
      case 2: return g.interestingValue();
      default: return p.baseValue + (p.occurrences % p.period);
    }
}

} // anonymous namespace

std::vector<MicroOp>
genTrace(Gen &g, const TraceGenConfig &cfg)
{
    const std::size_t n = g.range(cfg.minOps, cfg.maxOps);
    std::vector<PcPlan> plans;
    plans.reserve(cfg.staticPcs);
    for (unsigned i = 0; i < cfg.staticPcs; ++i)
        plans.push_back(makePlan(g, cfg, i));

    std::vector<MicroOp> ops;
    ops.reserve(n);
    while (ops.size() < n) {
        PcPlan &p = plans[g.below(plans.size())];
        MicroOp op;
        op.pc = p.pc;
        op.cls = p.cls;
        op.dst = p.dst;
        op.src = p.src;
        if (op.isLoad() || op.isStore()) {
            op.effAddr = nextAddr(g, p);
            op.memSize = p.memSize;
            op.memValue = nextValue(g, p);
            op.exclusiveMem = p.exclusive;
        } else if (op.isBranch()) {
            op.taken = g.chance(p.takenProb) ||
                       p.cls != OpClass::Branch;
            op.target = op.taken ? p.target : op.pc + 4;
        }
        ++p.occurrences;
        ops.push_back(op);
    }
    return ops;
}

std::vector<Addr>
genAddressStream(Gen &g, std::size_t n)
{
    std::vector<Addr> out;
    out.reserve(n);
    Addr cursor = 0x20000000 + g.below(0x1000000);
    const std::int64_t stride = (std::int64_t(g.range(0, 64)) - 32) * 8;
    while (out.size() < n) {
        switch (g.below(4)) {
          case 0: // sequential burst
            for (unsigned i = 0; i < 8 && out.size() < n; ++i)
                out.push_back(cursor += 8);
            break;
          case 1: // strided burst
            for (unsigned i = 0; i < 8 && out.size() < n; ++i)
                out.push_back(cursor += stride);
            break;
          case 2: // pointer-chase-like jump
            cursor = 0x20000000 + (cursor * 0x9e3779b97f4a7c15ull >>
                                   40);
            out.push_back(cursor);
            break;
          default: // uniform random
            out.push_back(0x20000000 + g.below(0x1000000));
            break;
        }
    }
    return out;
}

pipe::CoreConfig
genCoreConfig(Gen &g)
{
    pipe::CoreConfig c;
    // Bounded variations around Table III: small enough to stress
    // queue-full paths, never degenerate (every width >= 1, LS lanes
    // <= issue width, queues sized so dispatch can always progress).
    c.fetchWidth = unsigned(g.range(1, 6));
    c.lsLanes = unsigned(g.range(1, 3));
    c.issueWidth = unsigned(g.range(c.lsLanes + 1, 10));
    c.retireWidth = unsigned(g.range(1, 10));
    c.robSize = unsigned(g.range(16, 224));
    c.iqSize = unsigned(g.range(8, 97));
    c.ldqSize = unsigned(g.range(4, 72));
    c.stqSize = unsigned(g.range(4, 56));
    c.paqSize = unsigned(g.range(1, 16));
    c.fetchToExecute = Cycle(g.range(2, 13));
    c.seed = g.u64();
    return c;
}

} // namespace qa
} // namespace lvpsim
