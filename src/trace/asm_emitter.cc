#include "trace/asm_emitter.hh"

#include <cstring>

#include "common/logging.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

template <typename T>
std::uint64_t
loadAt(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/**
 * The last (up to) eight bytes of a label that is @p n bytes long,
 * read with fixed-size, possibly overlapping loads; together with the
 * whole words before it (bytes [8i, 8i+8) while 8i+8 < n) it covers
 * every byte, so for a given length the words determine the label.
 */
std::uint64_t
lastWord(const char *p, std::size_t n)
{
    if (n >= 8)
        return loadAt<std::uint64_t>(p + n - 8);
    if (n >= 4)
        return loadAt<std::uint32_t>(p) |
               loadAt<std::uint32_t>(p + n - 4) << 32;
    if (n > 0)
        return std::uint64_t(std::uint8_t(p[0])) |
               std::uint64_t(std::uint8_t(p[n / 2])) << 8 |
               std::uint64_t(std::uint8_t(p[n - 1])) << 16;
    return 0;
}

/** Fold a 64x64-bit product's halves together: every bit of @p a and
 *  @p b reaches the low bits, which FlatMap indexes by. */
std::uint64_t
foldMul(std::uint64_t a, std::uint64_t b)
{
    const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
    return std::uint64_t(p) ^ std::uint64_t(p >> 64);
}

/**
 * 64-bit content hash of a site label: one multiply per word. The
 * length is mixed before the first word goes in; xoring it in raw
 * would let it cancel against the first byte ("ab" and "`bb").
 */
std::uint64_t
labelHash(std::string_view label)
{
    constexpr std::uint64_t k = 0x9e3779b97f4a7c15ull;
    const char *p = label.data();
    const std::size_t n = label.size();
    std::uint64_t h = foldMul(n, k);
    for (std::size_t i = 0; i + 8 < n; i += 8)
        h = foldMul(h ^ loadAt<std::uint64_t>(p + i), k);
    return foldMul(h ^ lastWord(p, n), k);
}

/**
 * Label equality over the same words labelHash reads: inline
 * fixed-size compares instead of a variable-length memcmp call on
 * every emitted op.
 */
bool
sameLabel(std::string_view a, std::string_view b)
{
    const std::size_t n = a.size();
    if (b.size() != n)
        return false;
    for (std::size_t i = 0; i + 8 < n; i += 8)
        if (loadAt<std::uint64_t>(a.data() + i) !=
            loadAt<std::uint64_t>(b.data() + i))
            return false;
    return lastWord(a.data(), n) == lastWord(b.data(), n);
}

} // anonymous namespace

Asm::Asm(std::vector<MicroOp> &out, std::size_t max_ops,
         std::uint64_t seed)
    : buf(out), maxOps(max_ops), rngState(seed)
{
    buf.reserve(max_ops);
    callStack.reserve(64); // deeper nesting than any kernel emits
}

Addr
Asm::pcOf(std::string_view site)
{
    const std::uint64_t h = labelHash(site);
    const auto it = sites.find(h);
    if (it == sites.end() || !sameLabel(siteNames[it->second], site))
        return internSite(h, site);
    return codeBase + Addr(it->second) * 4;
}

Addr
Asm::internSite(std::uint64_t hash, std::string_view site)
{
    const auto [it, inserted] =
        sites.emplace(hash, unsigned(siteNames.size()));
    if (!inserted)
        lvp_panic("site labels '%s' and '%.*s' share a content hash",
                  siteNames[it->second].c_str(), int(site.size()),
                  site.data());
    siteNames.emplace_back(site);
    return codeBase + Addr(it->second) * 4;
}

void
Asm::push(MicroOp op)
{
    if (buf.size() < maxOps)
        buf.push_back(op);
}

MicroOp
Asm::make(std::string_view site, OpClass cls)
{
    MicroOp op;
    op.pc = pcOf(site);
    op.cls = cls;
    return op;
}

void
Asm::imm(std::string_view site, RegId dst, Value v)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    regs[dst] = v;
    push(op);
}

void
Asm::add(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] + regs[b];
    push(op);
}

void
Asm::addi(std::string_view site, RegId dst, RegId a, std::int64_t val)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, invalidReg, invalidReg};
    regs[dst] = regs[a] + static_cast<Value>(val);
    push(op);
}

void
Asm::sub(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] - regs[b];
    push(op);
}

void
Asm::mul(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntMul);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] * regs[b];
    push(op);
}

void
Asm::div(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntDiv);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[b] ? regs[a] / regs[b] : 0;
    push(op);
}

void
Asm::andOp(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] & regs[b];
    push(op);
}

void
Asm::xorOp(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] ^ regs[b];
    push(op);
}

void
Asm::shl(std::string_view site, RegId dst, RegId a, unsigned sh)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, invalidReg, invalidReg};
    regs[dst] = sh >= 64 ? 0 : (regs[a] << sh);
    push(op);
}

void
Asm::shr(std::string_view site, RegId dst, RegId a, unsigned sh)
{
    MicroOp op = make(site, OpClass::IntAlu);
    op.dst = dst;
    op.src = {a, invalidReg, invalidReg};
    regs[dst] = sh >= 64 ? 0 : (regs[a] >> sh);
    push(op);
}

void
Asm::fadd(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::FpAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] + regs[b];
    push(op);
}

void
Asm::fmul(std::string_view site, RegId dst, RegId a, RegId b)
{
    MicroOp op = make(site, OpClass::FpAlu);
    op.dst = dst;
    op.src = {a, b, invalidReg};
    regs[dst] = regs[a] * regs[b];
    push(op);
}

void
Asm::nop(std::string_view site)
{
    push(make(site, OpClass::Nop));
}

Value
Asm::load(std::string_view site, RegId dst, RegId addr_reg,
          std::int64_t offset, unsigned size, RegId index_reg)
{
    MicroOp op = make(site, OpClass::Load);
    op.dst = dst;
    op.src = {addr_reg, index_reg, invalidReg};
    Addr ea = regs[addr_reg] + static_cast<Addr>(offset);
    if (index_reg != invalidReg)
        ea += regs[index_reg];
    op.effAddr = ea;
    op.memSize = static_cast<std::uint8_t>(size);
    op.memValue = image.read(ea, size);
    regs[dst] = op.memValue;
    push(op);
    return op.memValue;
}

void
Asm::store(std::string_view site, RegId data_reg, RegId addr_reg,
           std::int64_t offset, unsigned size, RegId index_reg)
{
    MicroOp op = make(site, OpClass::Store);
    op.src = {addr_reg, data_reg, index_reg};
    Addr ea = regs[addr_reg] + static_cast<Addr>(offset);
    if (index_reg != invalidReg)
        ea += regs[index_reg];
    op.effAddr = ea;
    op.memSize = static_cast<std::uint8_t>(size);
    op.memValue = regs[data_reg];
    image.write(ea, op.memValue, size);
    push(op);
}

Value
Asm::loadExclusive(std::string_view site, RegId dst, RegId addr_reg,
                   std::int64_t offset, unsigned size)
{
    MicroOp op = make(site, OpClass::Load);
    op.dst = dst;
    op.src = {addr_reg, invalidReg, invalidReg};
    op.exclusiveMem = true;
    Addr ea = regs[addr_reg] + static_cast<Addr>(offset);
    op.effAddr = ea;
    op.memSize = static_cast<std::uint8_t>(size);
    op.memValue = image.read(ea, size);
    regs[dst] = op.memValue;
    push(op);
    return op.memValue;
}

void
Asm::storeExclusive(std::string_view site, RegId data_reg,
                    RegId addr_reg, std::int64_t offset, unsigned size)
{
    MicroOp op = make(site, OpClass::Store);
    op.src = {addr_reg, data_reg, invalidReg};
    op.exclusiveMem = true;
    Addr ea = regs[addr_reg] + static_cast<Addr>(offset);
    op.effAddr = ea;
    op.memSize = static_cast<std::uint8_t>(size);
    op.memValue = regs[data_reg];
    image.write(ea, op.memValue, size);
    push(op);
}

void
Asm::barrier(std::string_view site)
{
    push(make(site, OpClass::Barrier));
}

void
Asm::branch(std::string_view site, bool taken,
            std::string_view target_site, RegId cond_reg)
{
    MicroOp op = make(site, OpClass::Branch);
    op.src = {cond_reg, invalidReg, invalidReg};
    op.taken = taken;
    op.target = taken ? pcOf(target_site) : op.pc + 4;
    push(op);
}

void
Asm::call(std::string_view site, std::string_view target_site)
{
    MicroOp op = make(site, OpClass::Call);
    op.taken = true;
    op.target = pcOf(target_site);
    callStack.push_back(op.pc + 4);
    push(op);
}

void
Asm::ret(std::string_view site)
{
    MicroOp op = make(site, OpClass::Ret);
    op.taken = true;
    if (!callStack.empty()) {
        op.target = callStack.back();
        callStack.pop_back();
    } else {
        op.target = codeBase;
    }
    push(op);
}

void
Asm::indirect(std::string_view site, Addr target, RegId target_reg)
{
    MicroOp op = make(site, OpClass::IndirBr);
    op.src = {target_reg, invalidReg, invalidReg};
    op.taken = true;
    op.target = target;
    push(op);
}

} // namespace trace
} // namespace lvpsim
