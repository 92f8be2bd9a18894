/**
 * @file
 * Binary snapshot serialization (pipeline/snapshot_io.hh): a
 * post-warmup Core::Snapshot must survive an encode/decode round trip
 * byte-exactly, a restored core must resume identically to one that
 * never left memory, and every truncated payload must decode to a
 * clean failure (never a crash or a silently short snapshot).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "core/lvp_interface.hh"
#include "pipeline/core.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/simulator.hh"

using namespace lvpsim;

namespace
{

constexpr std::size_t kWarmup = 6000;
constexpr std::size_t kMeasure = 3000;

sim::RunConfig
warmRc()
{
    sim::RunConfig rc;
    rc.maxInstrs = kMeasure;
    rc.warmupInstrs = kWarmup;
    return rc;
}

/** Warm a fresh core on `workload` and capture its snapshot. */
pipe::Core::Snapshot
warmSnapshot(const std::string &workload)
{
    const auto rc = warmRc();
    auto ops = sim::TraceCache::instance().get(
        workload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
    pipe::Core core(rc.core, *ops, nullptr);
    core.warmup(rc.warmupInstrs);
    pipe::Core::Snapshot s;
    core.saveState(s);
    return s;
}

std::vector<std::uint8_t>
encode(const pipe::Core::Snapshot &s)
{
    BinWriter w;
    pipe::serializeSnapshot(w, s);
    return w.take();
}

} // anonymous namespace

TEST(SnapshotIo, RoundTripReencodesToIdenticalBytes)
{
    // Byte-stable round trip over real post-warmup state (populated
    // caches, branch histories, in-flight-free pipeline): decode then
    // re-encode must reproduce the exact input bytes, proving no
    // field is dropped, reordered, or widened on either side.
    for (const char *w : {"stream_sum", "pointer_chase"}) {
        const auto bytes = encode(warmSnapshot(w));
        ASSERT_FALSE(bytes.empty());

        BinReader r(bytes);
        pipe::Core::Snapshot decoded;
        pipe::deserializeSnapshot(r, decoded);
        ASSERT_TRUE(r.ok()) << w;
        ASSERT_TRUE(r.atEnd()) << w;

        EXPECT_EQ(encode(decoded), bytes)
            << w << ": re-encode diverged from the original bytes";
    }
}

TEST(SnapshotIo, RestoredCoreResumesBitIdentically)
{
    const auto rc = warmRc();
    const char *workload = "hash_probe";
    auto ops = sim::TraceCache::instance().get(
        workload, rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);

    // Reference: warm up and measure in one life.
    pipe::NullPredictor refVp;
    pipe::Core ref(rc.core, *ops, &refVp);
    ref.warmup(rc.warmupInstrs);
    const auto refStats = ref.run();

    // Under test: the warmup state crosses a serialize/deserialize
    // boundary before the measured region runs.
    pipe::Core warm(rc.core, *ops, nullptr);
    warm.warmup(rc.warmupInstrs);
    pipe::Core::Snapshot snap;
    warm.saveState(snap);

    const auto bytes = encode(snap);
    BinReader r(bytes);
    pipe::Core::Snapshot decoded;
    pipe::deserializeSnapshot(r, decoded);
    ASSERT_TRUE(r.ok() && r.atEnd());

    pipe::NullPredictor vp;
    pipe::Core restored(rc.core, *ops, &vp);
    restored.restoreState(decoded);
    EXPECT_TRUE(restored.run() == refStats);
}

TEST(SnapshotIo, EveryTruncationFailsCleanly)
{
    const auto bytes = encode(warmSnapshot("stream_sum"));
    ASSERT_GT(bytes.size(), 64u);

    auto decodeAt = [&](std::size_t len) {
        BinReader r(bytes.data(), len);
        pipe::Core::Snapshot s;
        pipe::deserializeSnapshot(r, s);
        return r.ok() && r.atEnd();
    };

    // A CheckpointStore load accepts a payload only when decode
    // succeeds AND consumes every byte, so "clean failure" here means
    // !(ok && atEnd). Cover every prefix near both ends and a stride
    // through the middle — the interesting failure modes are length
    // prefixes promising more elements than remain.
    for (std::size_t len = 0; len < 64; ++len)
        EXPECT_FALSE(decodeAt(len)) << "prefix " << len;
    for (std::size_t len = bytes.size() - 64; len < bytes.size();
         ++len)
        EXPECT_FALSE(decodeAt(len)) << "prefix " << len;
    for (std::size_t len = 64; len < bytes.size() - 64; len += 97)
        EXPECT_FALSE(decodeAt(len)) << "prefix " << len;

    EXPECT_TRUE(decodeAt(bytes.size()));
}

TEST(SnapshotIo, TrailingGarbageIsRejectedByAtEnd)
{
    auto bytes = encode(warmSnapshot("stream_sum"));
    bytes.push_back(0);
    BinReader r(bytes);
    pipe::Core::Snapshot s;
    pipe::deserializeSnapshot(r, s);
    EXPECT_FALSE(r.ok() && r.atEnd());
}

TEST(SnapshotIo, EncodedBytesMatchPinnedFormat)
{
    // The on-disk format is pinned: kSnapshotFormatVersion stays put
    // only while these hashes do. A change here means stale store
    // entries would decode as garbage, so bump the version (and these
    // constants) together.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"stream_sum", 0xaf5a9e26cd749e07ull},
        {"pointer_chase", 0x69258ff1faa36ed8ull},
    };
    for (const auto &[w, hash] : pinned) {
        const auto bytes = encode(warmSnapshot(w));
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), hash)
            << w << ": snapshot bytes moved (0x" << std::hex
            << fnv1a64(bytes.data(), bytes.size()) << ")";
    }
}
