/**
 * @file
 * Pinned trace identity and formats.
 *
 * `hashTrace` keys recorded and CVP-1 trace identities, and through
 * them disk-store entries; `.lvpt` bytes are an archival format; the
 * differential commit hash is what the qa gates compare
 * (`TraceSource.DebugStringIsStable` pins `debugString`). Every value
 * below is a literal, so a change to the in-memory MicroOp layout (or
 * to any reader of it) that moved one of them fails here instead of
 * silently re-keying stores or breaking archived traces.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/composite.hh"
#include "pipeline/core_config.hh"
#include "qa/differential.hh"
#include "trace/cvp_trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using trace::MicroOp;

namespace
{

const char *const cvpFixture =
    LVPSIM_TEST_DATA_DIR "/mini_pointer_chase.cvp";

/** FNV-1a over the `.lvpt` bytes writeTrace produces for @p ops. */
std::uint64_t
lvptBytesHash(const std::vector<MicroOp> &ops)
{
    std::ostringstream os;
    EXPECT_TRUE(trace::writeTrace(os, ops));
    const std::string bytes = os.str();
    return qa::fnv1a(qa::fnv1aInit, bytes.data(), bytes.size());
}

struct PinnedTrace
{
    const char *name;       ///< kernel name or `synth:` spec
    std::uint64_t traceHash; ///< hashTrace
    std::uint64_t lvptHash;  ///< FNV-1a over writeTrace bytes
};

void
expectPinned(const PinnedTrace &want, const std::vector<MicroOp> &ops)
{
    EXPECT_EQ(trace::hashTrace(ops), want.traceHash)
        << want.name << ": hashTrace moved (store keys re-key)";
    EXPECT_EQ(lvptBytesHash(ops), want.lvptHash)
        << want.name << ": .lvpt bytes moved";
}

} // anonymous namespace

TEST(TraceIdentity, KernelAndSpecTracesArePinned)
{
    const PinnedTrace pinned[] = {
        {"pointer_chase", 0xcaf44e1293224f01ull, 0xb13814ecb015986bull},
        {"branchy_mix", 0xb5d4b55f87610b51ull, 0x509d4f1673170c14ull},
        {"big_code", 0x238d6efdaf5fa5c5ull, 0x0e8ba023b75fa39dull},
        {"[iters=100]stride(wset=400),const(v=0x42)",
         0x0fe572e2f92a8fb1ull, 0xf47f0bf5520c1c81ull},
    };
    for (const PinnedTrace &p : pinned)
        expectPinned(p, trace::generateWorkload(p.name, 20000, 1));
}

TEST(TraceIdentity, CvpFixtureIsPinned)
{
    std::vector<MicroOp> ops;
    std::string err;
    ASSERT_TRUE(trace::loadCvpTraceFile(cvpFixture, ops, &err)) << err;
    expectPinned({"mini_pointer_chase.cvp", 0x7752f16eefc37e7dull,
                  0x2f9dacdd119c266eull}, ops);
}

TEST(TraceIdentity, DifferentialCommitHashIsPinned)
{
    const auto ops = trace::generateWorkload("pointer_chase", 5000, 1);
    const auto res = qa::runDifferential(
        pipe::CoreConfig{}, vp::CompositeConfig::homogeneous(256), ops);
    ASSERT_TRUE(res.ok()) << res.failureReport();
    EXPECT_EQ(res.base.commitHash, 5533709539331484881ull);
    EXPECT_EQ(res.composite.commitHash, res.base.commitHash);
    EXPECT_EQ(res.oracle.commitHash, res.base.commitHash);
}
