/**
 * @file
 * Property: trace file I/O is a lossless, canonical round trip. For
 * fuzzed traces across 100 seeds, write -> read -> write must be
 * byte-identical (so the on-disk encoding is a function of the trace
 * alone), and the re-read ops must equal the originals field by
 * field.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "qa/generators.hh"
#include "qa/property.hh"
#include "trace/cvp_trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace lvpsim;
using trace::MicroOp;

namespace
{

bool
sameOps(const std::vector<MicroOp> &a, const std::vector<MicroOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a[i], &y = b[i];
        if (x.pc != y.pc || x.cls != y.cls || x.dst != y.dst ||
            x.src != y.src || x.memAddr() != y.memAddr() ||
            x.memSize != y.memSize || x.memValue != y.memValue ||
            x.exclusiveMem != y.exclusiveMem || x.taken != y.taken ||
            x.ctrlTarget() != y.ctrlTarget())
            return false;
    }
    return true;
}

} // anonymous namespace

TEST(TraceRoundTripFuzz, WriteReadWriteIsByteIdentical)
{
    const auto r = qa::forAllSeeds(100, 0xf00d, [](qa::Gen &g) {
        const auto ops = qa::genTrace(g);

        std::ostringstream first;
        if (!trace::writeTrace(first, ops))
            throw std::runtime_error("first write failed");

        std::istringstream in(first.str());
        std::vector<MicroOp> back;
        std::string err;
        if (!trace::readTrace(in, back, &err))
            throw std::runtime_error("read failed: " + err);
        if (!sameOps(ops, back))
            throw std::runtime_error("ops changed across round trip");

        std::ostringstream second;
        if (!trace::writeTrace(second, back))
            throw std::runtime_error("second write failed");
        return first.str() == second.str();
    });
    EXPECT_TRUE(r.ok) << r.describe();
    EXPECT_EQ(r.casesRun, 100u);
}

TEST(TraceRoundTripFuzz, RecordReplayThroughTraceSource)
{
    // The recorder/RecordedSource pair: any fuzzed trace written via
    // recordTrace() replays bit-identically (and with an unchanged
    // content hash) through the TraceSource interface.
    const auto r = qa::forAllSeeds(40, 0x5eed, [](qa::Gen &g) {
        const auto ops = qa::genTrace(g);
        const std::string path = testing::TempDir() +
                                 "fuzz_roundtrip_" +
                                 std::to_string(g.seed()) + ".lvpt";

        std::ostringstream os;
        if (!trace::writeTrace(os, ops))
            throw std::runtime_error("write failed");
        {
            std::ofstream f(path, std::ios::binary);
            f << os.str();
        }
        std::string err;
        auto src = trace::RecordedSource::open(path, &err);
        std::remove(path.c_str());
        if (!src)
            throw std::runtime_error("open failed: " + err);
        if (src->instructionCount() != ops.size())
            return false;
        if (!sameOps(ops, src->instructions()))
            return false;
        return trace::hashTrace(src->instructions()) ==
               trace::hashTrace(ops);
    });
    EXPECT_TRUE(r.ok) << r.describe();
    EXPECT_EQ(r.casesRun, 40u);
}

TEST(CvpRoundTripFuzz, ReadBackEqualsProjection)
{
    // CVP-1 export/import: for fuzzed traces, write -> read equals
    // cvpProjection() field by field, and the projection is a fixed
    // point (round-tripping it again is byte-identical).
    const auto r = qa::forAllSeeds(60, 0xc0de, [](qa::Gen &g) {
        const auto ops = qa::genTrace(g);

        std::ostringstream first;
        if (!trace::writeCvpTrace(first, ops))
            throw std::runtime_error("first write failed");

        std::istringstream in(first.str());
        std::vector<MicroOp> back;
        std::string err;
        if (!trace::readCvpTrace(in, back, &err))
            throw std::runtime_error("read failed: " + err);
        if (back.size() != ops.size())
            return false;
        std::vector<MicroOp> projected;
        projected.reserve(ops.size());
        for (const MicroOp &op : ops)
            projected.push_back(trace::cvpProjection(op));
        if (!sameOps(projected, back))
            return false;

        std::ostringstream second;
        if (!trace::writeCvpTrace(second, back))
            throw std::runtime_error("second write failed");
        std::istringstream in2(second.str());
        std::vector<MicroOp> again;
        if (!trace::readCvpTrace(in2, again, &err))
            throw std::runtime_error("re-read failed: " + err);
        if (!sameOps(back, again))
            return false;
        std::ostringstream third;
        if (!trace::writeCvpTrace(third, again))
            throw std::runtime_error("third write failed");
        return second.str() == third.str();
    });
    EXPECT_TRUE(r.ok) << r.describe();
    EXPECT_EQ(r.casesRun, 60u);
}

TEST(TraceRoundTripFuzz, EmptyTraceRoundTrips)
{
    std::ostringstream os;
    ASSERT_TRUE(trace::writeTrace(os, {}));
    std::istringstream is(os.str());
    std::vector<MicroOp> back{MicroOp{}}; // must be replaced
    std::string err;
    ASSERT_TRUE(trace::readTrace(is, back, &err)) << err;
    EXPECT_TRUE(back.empty());
}
