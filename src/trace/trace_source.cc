#include "trace/trace_source.hh"

#include <sstream>

#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
    return h;
}

/**
 * A register as hashTrace mixes it. Register ids were 16 bits wide
 * when trace identities were first keyed, so "no register" keeps
 * mixing as 0xffff and existing store keys stay valid.
 */
std::uint64_t
regHashValue(RegId r)
{
    return r == invalidReg ? 0xffff : r;
}

} // anonymous namespace

std::uint64_t
hashTrace(const std::vector<MicroOp> &ops)
{
    // Hash canonical field values, never raw struct bytes: padding
    // would make the hash compiler-dependent.
    std::uint64_t h = fnvMix(fnvOffset, ops.size());
    for (const MicroOp &op : ops) {
        h = fnvMix(h, op.pc);
        h = fnvMix(h, std::uint64_t(op.cls));
        h = fnvMix(h, regHashValue(op.dst));
        for (RegId s : op.src)
            h = fnvMix(h, regHashValue(s));
        h = fnvMix(h, op.memAddr());
        h = fnvMix(h, op.memSize);
        h = fnvMix(h, op.memValue);
        h = fnvMix(h, (op.exclusiveMem ? 2u : 0u) |
                          (op.taken ? 1u : 0u));
        h = fnvMix(h, op.ctrlTarget());
    }
    return h;
}

std::string
debugString(const MicroOp &op)
{
    std::ostringstream os;
    os << std::hex;
    os << "pc=0x" << op.pc;
    os << std::dec << " cls=" << unsigned(op.cls) << " dst=";
    if (op.dst == invalidReg)
        os << "-";
    else
        os << unsigned(op.dst);
    os << " src=";
    for (std::size_t i = 0; i < op.src.size(); ++i) {
        if (i)
            os << ",";
        if (op.src[i] == invalidReg)
            os << "-";
        else
            os << unsigned(op.src[i]);
    }
    os << " ea=0x" << std::hex << op.memAddr();
    os << std::dec << " sz=" << unsigned(op.memSize);
    os << " val=0x" << std::hex << op.memValue;
    os << std::dec << " excl=" << (op.exclusiveMem ? 1 : 0);
    os << " taken=" << (op.taken ? 1 : 0);
    os << " tgt=0x" << std::hex << op.ctrlTarget();
    return os.str();
}

SyntheticSource::SyntheticSource(const std::string &workload,
                                 std::size_t max_ops,
                                 std::uint64_t trace_seed)
    : BufferedTraceSource(workload), maxOps(max_ops), seed(trace_seed)
{
    ops = generateWorkload(workload, max_ops, trace_seed);
}

std::string
SyntheticSource::identity() const
{
    // (kernel, budget, seed) fully determines the stream; no content
    // hash needed (and none wanted: the cheap identity keeps the
    // sweep caches' key computation trivial).
    return "synth:" + name() + "#" + std::to_string(maxOps) + "#" +
           std::to_string(seed);
}

std::unique_ptr<RecordedSource>
RecordedSource::open(const std::string &path, std::string *error)
{
    // Cannot use make_unique: the constructor is private.
    std::unique_ptr<RecordedSource> src(new RecordedSource(path));
    if (!loadTraceFile(path, src->ops, error))
        return nullptr;
    src->contentHash = hashTrace(src->ops);
    return src;
}

std::string
RecordedSource::identity() const
{
    // The path alone is not an identity (the file can be rewritten);
    // the content hash is.
    return "lvpt:" + name() + "#" +
           std::to_string(instructionCount()) + "#" +
           std::to_string(contentHash);
}

std::vector<MicroOp>
materialize(TraceSource &src, std::size_t max_ops)
{
    std::vector<MicroOp> out;
    if (max_ops)
        out.reserve(std::min(max_ops, src.instructionCount()));
    else
        out.reserve(src.instructionCount());
    MicroOp op;
    while ((!max_ops || out.size() < max_ops) && src.next(op))
        out.push_back(op);
    return out;
}

std::size_t
recordTrace(TraceSource &src, const std::string &path,
            std::size_t max_ops, std::string *error)
{
    const std::vector<MicroOp> ops = materialize(src, max_ops);
    if (!saveTraceFile(path, ops)) {
        if (error)
            *error = "cannot write trace file '" + path + "'";
        return 0;
    }
    return ops.size();
}

} // namespace trace
} // namespace lvpsim
