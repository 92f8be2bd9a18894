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

#include <iterator>
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
    // Every registered kernel, so a change to the synthesis layer
    // (the Asm emitter, the memory image, a kernel body) is proven
    // bit-exact kernel by kernel, plus one `synth:` spec.
    const PinnedTrace kernels[] = {
        {"memset_loop", 0x9130cd61f3aedca0ull, 0x6d15e7792f467865ull},
        {"stream_sum", 0x724aaf47ee3bc8e2ull, 0xae4f0b4fb8f9f486ull},
        {"stride_gather", 0xf4876527df2e8ea4ull, 0x15bd33a49577ad33ull},
        {"matrix_tile", 0xfb967c52ab537a7eull, 0xb9bb4eb609629b02ull},
        {"stencil2d", 0x2977761b278813f0ull, 0x0829a512c814215full},
        {"sparse_spmv", 0x9e3844be9b96ee75ull, 0x44ca747d90d6fa2eull},
        {"lut_dsp", 0x77f5dca2af5063f6ull, 0x7066eeba158d31e7ull},
        {"const_table", 0x9e7fc929461f8685ull, 0x372d41b03a729a7full},
        {"global_flags", 0x115f1904b34ddfafull, 0x890dee5db4d97589ull},
        {"producer_consumer", 0xaa2dc61b8c8556d9ull, 0x5d5278fc2abb2c20ull},
        {"stack_spill", 0x425c24245e310e18ull, 0x5966bcf8b19ba251ull},
        {"pointer_chase", 0xcaf44e1293224f01ull, 0xb13814ecb015986bull},
        {"binary_tree", 0x34416e46c783ed46ull, 0xc719caace78d766full},
        {"hash_probe", 0xfbb46832f9b64397ull, 0xd808e097d0e7aaa6ull},
        {"histogram", 0x0a84dfdccfcb5e0eull, 0xc412f03788b90a29ull},
        {"sort_qsort", 0x31f1145270953e9full, 0x875437e0ac2fc7d4ull},
        {"crc_stream", 0x36c706af83937b0full, 0x108eb8e025a6380dull},
        {"cold_misses", 0x9ade4dd995bed36eull, 0x970af8b57fdf56a2ull},
        {"branchy_mix", 0xb5d4b55f87610b51ull, 0x509d4f1673170c14ull},
        {"interp_dispatch", 0xade57d857f2c67cbull, 0x8097ceb22a5f2bdeull},
        {"object_graph", 0xb49ed666723727aeull, 0x0c840bdd158c8c6bull},
        {"indirect_index", 0x6ca39fd303ec6c86ull, 0xb393b1be67641f97ull},
        {"string_search", 0xb7b6bceb0c7a80f6ull, 0x5f606b5bd002683dull},
        {"phase_mixer", 0x7b298839395ba6ceull, 0x7781735fdc666b71ull},
        {"big_code", 0x238d6efdaf5fa5c5ull, 0x0e8ba023b75fa39dull},
        {"call_tree", 0xa12d892d100e8b08ull, 0x2d93eb6db9ada16bull},
        {"packet_proc", 0x7456e8d837fb3f9bull, 0x25dbe1046212a73dull},
        {"log_scan", 0x86e9639e192ff996ull, 0x0c7ea8264a6d99d5ull},
    };
    const std::vector<std::string> names = trace::allWorkloadNames();
    ASSERT_EQ(names.size(), std::size(kernels))
        << "a kernel was added or removed: pin its trace here";
    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(names[i], kernels[i].name) << "registry order moved";
        expectPinned(kernels[i],
                     trace::generateWorkload(names[i], 20000, 1));
    }
    const PinnedTrace spec = {"[iters=100]stride(wset=400),const(v=0x42)",
                              0x0fe572e2f92a8fb1ull, 0xf47f0bf5520c1c81ull};
    expectPinned(spec, trace::generateWorkload(spec.name, 20000, 1));
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
