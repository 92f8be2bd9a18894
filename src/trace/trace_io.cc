#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace lvpsim
{
namespace trace
{

namespace
{

constexpr char magic[4] = {'L', 'V', 'P', 'T'};

/** On-disk record: fixed 40 bytes, little endian. */
struct Record
{
    std::uint64_t pc;
    std::uint64_t effAddr;
    std::uint64_t memValue;
    std::uint64_t target;
    std::uint8_t cls;
    std::uint8_t dst;      // 0xff = none
    std::uint8_t src[3];   // 0xff = none
    std::uint8_t memSize;
    std::uint8_t flags;    // bit0 taken, bit1 exclusive
    std::uint8_t pad;
};

static_assert(sizeof(Record) == 40, "trace record layout changed");

// The record's register sentinel is the in-memory one, so register
// ids copy straight across.
static_assert(invalidReg == 0xff, "record register sentinel changed");

Record
pack(const MicroOp &op)
{
    Record r{};
    r.pc = op.pc;
    r.effAddr = op.memAddr();
    r.memValue = op.memValue;
    r.target = op.ctrlTarget();
    r.cls = std::uint8_t(op.cls);
    r.dst = op.dst;
    for (int i = 0; i < 3; ++i)
        r.src[i] = op.src[i];
    r.memSize = op.memSize;
    r.flags = (op.taken ? 1 : 0) | (op.exclusiveMem ? 2 : 0);
    return r;
}

/**
 * Why @p r cannot become a MicroOp, or nullptr if it can. An op has
 * one address slot, so a record may carry an effective address only
 * on a memory class and a target only on a control class.
 */
const char *
corruptRecord(const Record &r)
{
    if (r.cls > std::uint8_t(OpClass::Nop))
        return "corrupt record (bad op class)";
    if (r.effAddr != 0 && !isMemRef(OpClass(r.cls)))
        return "corrupt record (effective address on a non-memory op)";
    if (r.target != 0 && !isControl(OpClass(r.cls)))
        return "corrupt record (target on a non-control op)";
    return nullptr;
}

MicroOp
unpack(const Record &r)
{
    MicroOp op;
    op.pc = r.pc;
    op.cls = OpClass(r.cls);
    if (isMemRef(op.cls))
        op.effAddr = r.effAddr;
    else if (isControl(op.cls))
        op.target = r.target;
    op.memValue = r.memValue;
    op.dst = r.dst;
    for (int i = 0; i < 3; ++i)
        op.src[i] = r.src[i];
    op.memSize = r.memSize;
    op.taken = (r.flags & 1) != 0;
    op.exclusiveMem = (r.flags & 2) != 0;
    return op;
}

/// The header count is untrusted, so at most this many records are
/// reserved up front; the vector grows past it as records arrive.
constexpr std::uint64_t maxReserve = 1u << 16;

} // anonymous namespace

bool
writeTrace(std::ostream &os, const std::vector<MicroOp> &ops)
{
    os.write(magic, 4);
    const std::uint32_t version = traceFormatVersion;
    const std::uint64_t count = ops.size();
    os.write(reinterpret_cast<const char *>(&version),
             sizeof(version));
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const auto &op : ops) {
        const Record r = pack(op);
        os.write(reinterpret_cast<const char *>(&r), sizeof(r));
    }
    return bool(os);
}

bool
readTrace(std::istream &is, std::vector<MicroOp> &ops,
          std::string *error)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    char m[4];
    is.read(m, 4);
    if (!is || std::memcmp(m, magic, 4) != 0)
        return fail("bad magic (not an LVPT trace)");
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        return fail("truncated header");
    if (version != traceFormatVersion)
        return fail("unsupported trace version");
    ops.clear();
    ops.reserve(std::min(count, maxReserve));
    for (std::uint64_t i = 0; i < count; ++i) {
        Record r;
        is.read(reinterpret_cast<char *>(&r), sizeof(r));
        if (!is)
            return fail("truncated record stream");
        if (const char *why = corruptRecord(r))
            return fail(why);
        ops.push_back(unpack(r));
    }
    return true;
}

bool
saveTraceFile(const std::string &path,
              const std::vector<MicroOp> &ops)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(os, ops);
}

bool
loadTraceFile(const std::string &path, std::vector<MicroOp> &ops,
              std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open file";
        return false;
    }
    return readTrace(is, ops, error);
}

} // namespace trace
} // namespace lvpsim
