/**
 * @file
 * TraceSource contract tests: the synthetic backend is bit-identical
 * to the historical generateWorkload() path, reset() replays the
 * exact stream, the recorder/RecordedSource pair round-trips, and
 * trace specs parse/print consistently.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/trace_source.hh"
#include "trace/trace_spec.hh"
#include "trace/workloads.hh"

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
        if (trace::debugString(a[i]) != trace::debugString(b[i]))
            return false;
    }
    return true;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

} // anonymous namespace

TEST(TraceSource, SyntheticMatchesGenerateWorkload)
{
    trace::SyntheticSource src("memset_loop", 2000, 1);
    const auto direct = trace::generateWorkload("memset_loop", 2000, 1);
    EXPECT_TRUE(sameOps(src.instructions(), direct));
    EXPECT_EQ(src.instructionCount(), direct.size());
    EXPECT_EQ(src.name(), "memset_loop");
    EXPECT_STREQ(src.format(), "synthetic");
    EXPECT_EQ(src.identity(), "synth:memset_loop#2000#1");
}

TEST(TraceSource, ResetReplaysIdenticalStream)
{
    trace::SyntheticSource src("pointer_chase", 500, 7);
    const auto first = trace::materialize(src);
    EXPECT_EQ(first.size(), src.instructionCount());

    MicroOp op;
    EXPECT_FALSE(src.next(op)); // drained

    src.reset();
    const auto second = trace::materialize(src);
    EXPECT_TRUE(sameOps(first, second));
}

TEST(TraceSource, MaterializeHonorsBudget)
{
    trace::SyntheticSource src("stream_sum", 1000, 1);
    const auto head = trace::materialize(src, 100);
    ASSERT_EQ(head.size(), 100u);
    src.reset();
    const auto all = trace::materialize(src);
    ASSERT_GE(all.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(trace::debugString(head[i]),
                  trace::debugString(all[i]));
}

TEST(TraceSource, RecordReplayRoundTrip)
{
    const std::string path = tempPath("roundtrip.lvpt");
    trace::SyntheticSource src("hash_probe", 800, 3);

    std::string err;
    const std::size_t written = trace::recordTrace(src, path, 0, &err);
    ASSERT_EQ(written, src.instructionCount()) << err;

    auto replay = trace::RecordedSource::open(path, &err);
    ASSERT_NE(replay, nullptr) << err;
    EXPECT_STREQ(replay->format(), "lvpt");
    EXPECT_EQ(replay->instructionCount(), src.instructionCount());
    EXPECT_TRUE(sameOps(replay->instructions(), src.instructions()));
    EXPECT_EQ(trace::hashTrace(replay->instructions()),
              trace::hashTrace(src.instructions()));
    // Identity embeds the content hash: a distinct trace written to
    // the same path must get a distinct identity.
    const std::string id1 = replay->identity();
    trace::SyntheticSource other("stream_sum", 800, 3);
    ASSERT_GT(trace::recordTrace(other, path), 0u);
    auto replay2 = trace::RecordedSource::open(path, &err);
    ASSERT_NE(replay2, nullptr) << err;
    EXPECT_NE(replay2->identity(), id1);
    std::remove(path.c_str());
}

TEST(TraceSource, OpenMissingFileFailsCleanly)
{
    std::string err;
    auto src = trace::RecordedSource::open(
        tempPath("does_not_exist.lvpt"), &err);
    EXPECT_EQ(src, nullptr);
    EXPECT_FALSE(err.empty());
}

TEST(TraceSpec, ParseAndPrint)
{
    const auto bare = trace::parseTraceSpec("memset_loop");
    EXPECT_EQ(bare.kind, trace::TraceKind::Synthetic);
    EXPECT_EQ(bare.name, "memset_loop");
    EXPECT_EQ(trace::traceSpecString(bare), "memset_loop");

    const auto synth = trace::parseTraceSpec("synth:memset_loop");
    EXPECT_EQ(synth.kind, trace::TraceKind::Synthetic);
    EXPECT_EQ(synth.name, "memset_loop");

    const auto lvpt = trace::parseTraceSpec("lvpt:/tmp/a.lvpt");
    EXPECT_EQ(lvpt.kind, trace::TraceKind::Lvpt);
    EXPECT_EQ(lvpt.name, "/tmp/a.lvpt");
    EXPECT_EQ(trace::traceSpecString(lvpt), "lvpt:/tmp/a.lvpt");

    const auto cvp = trace::parseTraceSpec("cvp:/tmp/b.cvp.gz");
    EXPECT_EQ(cvp.kind, trace::TraceKind::Cvp);
    EXPECT_EQ(cvp.name, "/tmp/b.cvp.gz");
    EXPECT_EQ(trace::traceSpecString(cvp), "cvp:/tmp/b.cvp.gz");
}

TEST(TraceSpec, OpenSyntheticViaFactory)
{
    std::string err;
    auto src = trace::openTraceSource(
        trace::parseTraceSpec("memset_loop"), 300, 1, &err);
    ASSERT_NE(src, nullptr) << err;
    EXPECT_STREQ(src->format(), "synthetic");
    EXPECT_EQ(src->instructionCount(), 300u);
}

TEST(TraceSource, DebugStringIsStable)
{
    MicroOp op;
    op.pc = 0x4000;
    op.cls = trace::OpClass::Load;
    op.dst = 3;
    op.src = {1, invalidReg, invalidReg};
    op.effAddr = 0x10000;
    op.memSize = 8;
    op.memValue = 0x2a;
    EXPECT_EQ(trace::debugString(op),
              "pc=0x4000 cls=4 dst=3 src=1,-,- ea=0x10000 sz=8 "
              "val=0x2a excl=0 taken=0 tgt=0x0");

    MicroOp branch;
    branch.pc = 0x4010;
    branch.cls = trace::OpClass::Branch;
    branch.src = {5, 63, invalidReg};
    branch.taken = true;
    branch.target = 0x3ff0;
    EXPECT_EQ(trace::debugString(branch),
              "pc=0x4010 cls=6 dst=- src=5,63,- ea=0x0 sz=0 val=0x0 "
              "excl=0 taken=1 tgt=0x3ff0");

    // No destination register.
    MicroOp store;
    store.pc = 0x4020;
    store.cls = trace::OpClass::Store;
    store.src = {2, 4, 7};
    store.effAddr = 0x20008;
    store.memSize = 4;
    store.memValue = 0xdeadbeef;
    store.exclusiveMem = true;
    EXPECT_EQ(trace::debugString(store),
              "pc=0x4020 cls=5 dst=- src=2,4,7 ea=0x20008 sz=4 "
              "val=0xdeadbeef excl=1 taken=0 tgt=0x0");
}
