#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "trace/trace_io.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using namespace lvpsim::trace;

namespace
{

bool
opsEqual(const MicroOp &a, const MicroOp &b)
{
    return a.pc == b.pc && a.cls == b.cls && a.dst == b.dst &&
           a.src == b.src && a.memAddr() == b.memAddr() &&
           a.memSize == b.memSize && a.memValue == b.memValue &&
           a.exclusiveMem == b.exclusiveMem && a.taken == b.taken &&
           a.ctrlTarget() == b.ctrlTarget();
}

/** A bare `.lvpt` header claiming @p count records. */
std::string
headerOnly(std::uint64_t count)
{
    std::string h = "LVPT";
    const std::uint32_t version = traceFormatVersion;
    h.append(reinterpret_cast<const char *>(&version), sizeof(version));
    h.append(reinterpret_cast<const char *>(&count), sizeof(count));
    return h;
}

/** `.lvpt` bytes of @p op with the 8-byte field at @p offset (within
 *  the record) overwritten by @p v. */
std::string
patchedRecord(const MicroOp &op, std::size_t offset, std::uint64_t v)
{
    std::stringstream ss;
    EXPECT_TRUE(writeTrace(ss, {op}));
    std::string data = ss.str();
    std::memcpy(&data[16 + offset], &v, sizeof(v));
    return data;
}

} // anonymous namespace

TEST(TraceIo, RoundTripsAWorkloadTrace)
{
    const auto ops = generateWorkload("memset_loop", 5000, 1);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(ss, ops));
    std::vector<MicroOp> back;
    std::string err;
    ASSERT_TRUE(readTrace(ss, back, &err)) << err;
    ASSERT_EQ(back.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        ASSERT_TRUE(opsEqual(ops[i], back[i])) << "op " << i;
}

TEST(TraceIo, RoundTripsEveryOpClass)
{
    // interp_dispatch exercises loads, stores, branches, calls and
    // indirect branches; stack_spill adds call/ret.
    for (const char *w : {"interp_dispatch", "stack_spill"}) {
        const auto ops = generateWorkload(w, 3000, 1);
        std::stringstream ss;
        ASSERT_TRUE(writeTrace(ss, ops));
        std::vector<MicroOp> back;
        ASSERT_TRUE(readTrace(ss, back));
        ASSERT_EQ(back.size(), ops.size()) << w;
        for (std::size_t i = 0; i < ops.size(); ++i)
            ASSERT_TRUE(opsEqual(ops[i], back[i])) << w;
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(ss, {}));
    std::vector<MicroOp> back{MicroOp{}};
    ASSERT_TRUE(readTrace(ss, back));
    EXPECT_TRUE(back.empty());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss("NOPE....");
    std::vector<MicroOp> back;
    std::string err;
    EXPECT_FALSE(readTrace(ss, back, &err));
    EXPECT_NE(err.find("magic"), std::string::npos);
}

TEST(TraceIo, RejectsTruncatedStream)
{
    const auto ops = generateWorkload("memset_loop", 100, 1);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(ss, ops));
    std::string data = ss.str();
    data.resize(data.size() / 2); // chop it
    std::stringstream cut(data);
    std::vector<MicroOp> back;
    std::string err;
    EXPECT_FALSE(readTrace(cut, back, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos);
}

TEST(TraceIo, RejectsWrongVersion)
{
    const auto ops = generateWorkload("memset_loop", 10, 1);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(ss, ops));
    std::string data = ss.str();
    data[4] = 99; // bump version field
    std::stringstream bad(data);
    std::vector<MicroOp> back;
    std::string err;
    EXPECT_FALSE(readTrace(bad, back, &err));
    EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(TraceIo, FileRoundTrip)
{
    const auto ops = generateWorkload("const_table", 2000, 7);
    const std::string path = "/tmp/lvpsim_test_trace.lvpt";
    ASSERT_TRUE(saveTraceFile(path, ops));
    std::vector<MicroOp> back;
    std::string err;
    ASSERT_TRUE(loadTraceFile(path, back, &err)) << err;
    EXPECT_EQ(back.size(), ops.size());
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFailsCleanly)
{
    std::vector<MicroOp> back;
    std::string err;
    EXPECT_FALSE(loadTraceFile("/nonexistent/nope.lvpt", back, &err));
    EXPECT_FALSE(err.empty());
}

TEST(TraceIo, RejectsInflatedRecordCount)
{
    // The header count is untrusted: a short stream claiming billions
    // of records must fail closed without trying to hold them.
    for (const std::uint64_t count : {1ull << 32, 1ull << 52}) {
        std::stringstream ss(headerOnly(count));
        std::vector<MicroOp> back;
        std::string err;
        bool ok = true;
        EXPECT_NO_THROW(ok = readTrace(ss, back, &err)) << count;
        EXPECT_FALSE(ok) << count;
        EXPECT_NE(err.find("truncated"), std::string::npos) << err;
        EXPECT_LE(back.capacity(), std::size_t(1) << 16) << count;
    }
}

TEST(TraceIo, RejectsAddressOnNonMemoryRecord)
{
    // An op has one address slot: effAddr belongs to memory classes.
    MicroOp alu;
    alu.pc = 0x4000;
    alu.cls = OpClass::IntAlu;
    alu.dst = 1;
    std::stringstream good(patchedRecord(alu, 8, 0));
    std::vector<MicroOp> back;
    ASSERT_TRUE(readTrace(good, back));

    std::stringstream bad(patchedRecord(alu, 8, 0x10000));
    std::string err;
    EXPECT_FALSE(readTrace(bad, back, &err));
    EXPECT_NE(err.find("corrupt record"), std::string::npos) << err;
    EXPECT_NE(err.find("non-memory"), std::string::npos) << err;
}

TEST(TraceIo, RejectsTargetOnNonControlRecord)
{
    // ...and target belongs to control classes.
    MicroOp load;
    load.pc = 0x4000;
    load.cls = OpClass::Load;
    load.dst = 1;
    load.effAddr = 0x10000;
    load.memSize = 8;
    std::stringstream good(patchedRecord(load, 24, 0));
    std::vector<MicroOp> back;
    ASSERT_TRUE(readTrace(good, back));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].effAddr, 0x10000u);

    std::stringstream bad(patchedRecord(load, 24, 0x4004));
    std::string err;
    EXPECT_FALSE(readTrace(bad, back, &err));
    EXPECT_NE(err.find("corrupt record"), std::string::npos) << err;
    EXPECT_NE(err.find("non-control"), std::string::npos) << err;
}
