/**
 * @file
 * Binary snapshot serialization (pipeline/snapshot_io.hh): a
 * post-warmup Core::Snapshot must survive an encode/decode round trip
 * byte-exactly, a restored core must resume identically to one that
 * never left memory, and every truncated payload must decode to a
 * clean failure (never a crash or a silently short snapshot), and a
 * snapshot that decodes but does not fit the core must be a store
 * miss. BinReader itself is checked against a byte-at-a-time
 * reference over random buffers and read sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/binio.hh"
#include "common/mmap_file.hh"
#include "common/random.hh"
#include "core/lvp_interface.hh"
#include "pipeline/core.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"
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

TEST(SnapshotIo, SavedSnapshotIsUnchangedByLaterSimulation)
{
    // A saved snapshot shares its unchanged cache chunks with the
    // core and with the snapshots saved before it (copy-on-write).
    // Nothing the core does afterwards -- functional fast-forward,
    // detailed simulation, restoring another checkpoint and running
    // on from it -- may reach a saved one: each must re-encode to the
    // bytes it had right after its save.
    const auto rc = warmRc();
    auto ops = sim::TraceCache::instance().get(
        "pointer_chase", rc.maxInstrs + rc.warmupInstrs, rc.traceSeed);
    pipe::NullPredictor vp;
    pipe::Core core(rc.core, *ops, &vp);

    core.functionalWarmup(2000);
    pipe::Core::Snapshot first;
    core.saveState(first);
    const auto firstBytes = encode(first);

    core.functionalWarmup(2000);
    pipe::Core::Snapshot second;
    core.saveState(second);
    const auto secondBytes = encode(second);
    EXPECT_NE(secondBytes, firstBytes);

    core.run(1500);
    core.drain();
    core.restoreState(first);
    core.functionalWarmup(3000);
    core.run(1000);
    core.drain();
    core.restoreState(second);
    core.functionalWarmup(2000);
    core.run(2000);
    core.drain();

    EXPECT_EQ(encode(first), firstBytes);
    EXPECT_EQ(encode(second), secondBytes);
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

TEST(SnapshotIo, BinWriterAppendsLittleEndianWords)
{
    BinWriter w;
    w.u8(0x01);
    w.u16(0x0302);
    w.u32(0x07060504u);
    w.u64(0x0f0e0d0c0b0a0908ull);
    w.i64(-2);
    const std::vector<std::uint8_t> want = {
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
        0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0xfe, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff,
    };
    EXPECT_EQ(w.buffer(), want);
    BinReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0x01u);
    EXPECT_EQ(r.u16(), 0x0302u);
    EXPECT_EQ(r.u32(), 0x07060504u);
    EXPECT_EQ(r.u64(), 0x0f0e0d0c0b0a0908ull);
    EXPECT_EQ(r.i64(), -2);
    EXPECT_TRUE(r.ok() && r.atEnd());
}

namespace
{

/**
 * BinReader's contract, a byte at a time: a read that does not fit
 * fails (sticky), returns zero and consumes nothing; later reads that
 * fit still succeed.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : base(data), len(size)
    {
    }

    std::uint64_t
    le(std::size_t width)
    {
        if (len - pos < width) {
            failed = true;
            return 0;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i)
            v |= std::uint64_t(base[pos + i]) << (8 * i);
        pos += width;
        return v;
    }

    bool
    b()
    {
        const std::uint64_t v = le(1);
        if (v > 1)
            failed = true;
        return v == 1;
    }

    bool
    bytes(std::uint8_t *out, std::size_t n)
    {
        if (len - pos < n) {
            failed = true;
            return false;
        }
        for (std::size_t i = 0; i < n; ++i)
            out[i] = base[pos + i];
        pos += n;
        return true;
    }

    std::string
    str()
    {
        const std::uint64_t n = le(8);
        if (failed || n > len - pos) {
            failed = true;
            return {};
        }
        std::string s;
        for (std::size_t i = 0; i < n; ++i)
            s.push_back(char(base[pos + i]));
        pos += n;
        return s;
    }

    std::size_t
    count(std::size_t minBytes)
    {
        const std::uint64_t n = le(8);
        if (failed || n > (len - pos) / minBytes) {
            failed = true;
            return 0;
        }
        return std::size_t(n);
    }

    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
};

} // anonymous namespace

TEST(SnapshotIo, BinReaderMatchesByteReference)
{
    // Random buffers (heap blocks of exactly their size, so a read
    // past the end trips AddressSanitizer) and random read sequences
    // that run into and past the end: BinReader must agree with the
    // byte-wise reference on every value, ok() and remaining().
    Xoshiro256 rng(0x5eed);
    for (int round = 0; round < 3000; ++round) {
        const std::size_t n = rng.next() % 48;
        std::unique_ptr<std::uint8_t[]> buf(new std::uint8_t[n]);
        for (std::size_t i = 0; i < n; ++i) {
            // Mostly small bytes, so bools, string lengths and counts
            // are often valid.
            const std::uint64_t x = rng.next();
            buf[i] = std::uint8_t(x % 4 == 0 ? x >> 8 : (x >> 8) % 3);
        }
        BinReader r(buf.get(), n);
        ByteReader ref(buf.get(), n);
        for (int step = 0; step < 12; ++step) {
            const unsigned op = unsigned(rng.next() % 12);
            const std::size_t k = rng.next() % 10;
            SCOPED_TRACE(::testing::Message()
                         << "round " << round << " step " << step
                         << " op " << op << " k " << k);
            switch (op) {
              case 0: ASSERT_EQ(r.u8(), ref.le(1)); break;
              case 1: ASSERT_EQ(r.u16(), ref.le(2)); break;
              case 2: ASSERT_EQ(r.u32(), ref.le(4)); break;
              case 3: ASSERT_EQ(r.u64(), ref.le(8)); break;
              case 4: ASSERT_EQ(r.i8(), std::int8_t(ref.le(1))); break;
              case 5: ASSERT_EQ(r.i64(), std::int64_t(ref.le(8))); break;
              case 6: ASSERT_EQ(r.b(), ref.b()); break;
              case 7: {
                const double d = r.f64();
                std::uint64_t bits;
                std::memcpy(&bits, &d, sizeof bits);
                ASSERT_EQ(bits, ref.le(8));
                break;
              }
              case 8: {
                std::uint8_t got[16] = {}, want[16] = {};
                ASSERT_EQ(r.bytes(got, k), ref.bytes(want, k));
                ASSERT_EQ(std::memcmp(got, want, sizeof got), 0);
                break;
              }
              case 9: ASSERT_EQ(r.str(), ref.str()); break;
              case 10: ASSERT_EQ(r.count(k + 1), ref.count(k + 1)); break;
              default: {
                const std::uint8_t *p = r.take(k);
                std::uint8_t want[16] = {};
                const bool fits = ref.bytes(want, k);
                ASSERT_EQ(p != nullptr, fits);
                if (fits) {
                    ASSERT_EQ(p, buf.get() + ref.pos - k);
                }
                break;
              }
            }
            ASSERT_EQ(r.ok(), !ref.failed);
            ASSERT_EQ(r.remaining(), n - ref.pos);
            ASSERT_EQ(r.offset(), ref.pos);
        }
    }
}

TEST(SnapshotIo, BinReaderWordsStraddlingTheEndFailClosed)
{
    // Every word width at every position that leaves it short: the
    // read fails, returns 0 and consumes nothing, and a byte read
    // that still fits afterwards succeeds.
    for (std::size_t width : {2u, 4u, 8u}) {
        for (std::size_t have = 0; have < width; ++have) {
            std::unique_ptr<std::uint8_t[]> buf(new std::uint8_t[have]);
            for (std::size_t i = 0; i < have; ++i)
                buf[i] = std::uint8_t(0xa0 + i);
            BinReader r(buf.get(), have);
            const std::uint64_t v = width == 2   ? r.u16()
                                    : width == 4 ? r.u32()
                                                 : r.u64();
            EXPECT_EQ(v, 0u) << width << "/" << have;
            EXPECT_FALSE(r.ok()) << width << "/" << have;
            EXPECT_EQ(r.remaining(), have) << width << "/" << have;
            if (have > 0) {
                EXPECT_EQ(r.u8(), 0xa0u);
                EXPECT_FALSE(r.ok()) << "failure must stay sticky";
            }
        }
    }
}

TEST(SnapshotIo, CacheLineBoolAboveOneIsRejected)
{
    // The snapshot opens with the L1I's lines, a count and then
    // (valid, dirty, tag, lastUse) = 18 bytes per line; they decode a
    // chunk at a time, and a bool byte above 1 must still fail the
    // stream, wherever in a chunk it sits.
    const auto bytes = encode(warmSnapshot("stream_sum"));
    BinReader head(bytes);
    const std::uint64_t lines = head.u64();
    ASSERT_EQ(lines, 1024u);
    for (const std::size_t line : {std::size_t(0), std::size_t(127),
                                   std::size_t(128), std::size_t(1023)}) {
        for (const std::size_t field : {0u, 1u}) {
            auto bad = bytes;
            bad[8 + 18 * line + field] = 2;
            BinReader r(bad);
            pipe::Core::Snapshot s;
            pipe::deserializeSnapshot(r, s);
            EXPECT_FALSE(r.ok()) << "line " << line << " field " << field;
        }
    }
}

TEST(SnapshotIo, BinWriterReserveGrowsGeometrically)
{
    // encodeIntervals reserves once per checkpoint: an exact reserve
    // each time would copy the whole list per checkpoint.
    BinWriter w;
    const std::uint8_t *data = nullptr;
    int reallocations = 0;
    for (int part = 0; part < 64; ++part) {
        w.reserve(w.size() + 1000);
        if (w.buffer().data() != data) {
            data = w.buffer().data();
            ++reallocations;
        }
        for (int i = 0; i < 125; ++i)
            w.u64(std::uint64_t(part));
    }
    EXPECT_EQ(w.size(), 64u * 1000u);
    EXPECT_LE(reallocations, 8);
}

TEST(SnapshotIo, EncodeSizesItsBufferUpFront)
{
    // serializeSnapshot counts the encoding before writing it, so the
    // buffer is allocated once at its final size, after any bytes
    // already in it.
    const auto snap = warmSnapshot("stream_sum");
    BinWriter w;
    w.u32(0xfeedu);
    pipe::serializeSnapshot(w, snap);
    EXPECT_EQ(w.buffer().capacity(), w.size());
    const auto alone = encode(snap);
    EXPECT_EQ(w.size(), 4 + alone.size());
    EXPECT_TRUE(std::equal(alone.begin(), alone.end(),
                           w.buffer().begin() + 4));
}

TEST(SnapshotIo, MismatchedShapeIsRejected)
{
    // A store entry can decode cleanly (ok && atEnd, every part
    // wellFormed) and still not fit the core it is restored into:
    // the core indexes its tables by mask, so an empty or short
    // vector, a smaller history ring or a fold longer than the ring
    // would be read out of bounds or divide by zero. Each such entry
    // must be a store miss, on the warmup path and on the sampled
    // path's interval checkpoints: the run rebuilds the checkpoint
    // and gets exactly the result of a run without a store.
    using Snapshot = pipe::Core::Snapshot;
    const std::pair<const char *, std::function<void(Snapshot &)>>
        mutations[] = {
            {"empty prefetcher table",
             [](Snapshot &s) { s.memory.pf.table.clear(); }},
            {"empty RAS",
             [](Snapshot &s) {
                 s.ras.entries.clear();
                 s.ras.top = 0;
                 s.ras.count = 0;
             }},
            {"empty memdep table",
             [](Snapshot &s) { s.memdep.waitBits.clear(); }},
            {"short L1D",
             [](Snapshot &s) { s.memory.dcache.lines.resize(8); }},
            {"short TLB", [](Snapshot &s) { s.memory.dtlb.sets.resize(2); }},
            {"short TAGE table",
             [](Snapshot &s) { s.tage.tables[0].resize(16); }},
            {"fold longer than the ring",
             [](Snapshot &s) {
                 s.tage.foldIdx.back() = branch::FoldedHistory(5000, 10);
             }},
            {"smaller history ring",
             [](Snapshot &s) { s.tage.ring = branch::HistoryRing(64); }},
        };

    // Per process: ctest also runs this test inside `store_suite`.
    const std::string dir = "/tmp/lvpsim_snapshot_shape_gtest_" +
                            std::to_string(getpid());
    auto wipe = [&] {
        for (const DirEntry &e : listDir(dir))
            removeFile(dir + "/" + e.name);
        removeFile(dir);
    };
    wipe();
    ASSERT_TRUE(makeDirs(dir));
    auto &store = sim::CheckpointStore::instance();
    auto &ckpts = sim::CheckpointCache::instance();
    const char *workload = "hash_probe";

    // Warmup path: CheckpointCache::get under runWorkload.
    auto rc = warmRc();
    rc.traceSeed = 211;
    store.configure("", 0);
    ckpts.clear();
    const Snapshot good = ckpts.get(workload, rc)->core;
    pipe::NullPredictor vp0;
    const pipe::SimStats want = sim::runWorkload(workload, &vp0, rc);
    const std::string warmKey = "ckpt:" + sim::runKey(workload, rc);

    // Sampled path: a two-checkpoint interval list, the last one
    // restored and run.
    sim::RunConfig rcIv;
    rcIv.maxInstrs = kWarmup + kMeasure;
    rcIv.traceSeed = 212;
    const std::vector<std::uint64_t> idx{kWarmup / 2, kWarmup};
    const auto ivOps = sim::TraceCache::instance().get(
        workload, rcIv.maxInstrs, rcIv.traceSeed);
    auto runInterval = [&] {
        const auto ck = ckpts.getIntervals(workload, rcIv, idx);
        pipe::NullPredictor vp;
        pipe::Core core(rcIv.core, *ivOps, &vp);
        core.restoreState(ck.back()->core);
        return core.run(kMeasure);
    };
    ckpts.clear();
    const pipe::SimStats wantIv = runInterval();
    std::vector<Snapshot> goodIv;
    for (const auto &ck : ckpts.getIntervals(workload, rcIv, idx))
        goodIv.push_back(ck->core);
    const std::string ivKey = "ckpt:" + sim::runKey(workload, rcIv) +
                              "#intervals." + std::to_string(idx[0]) +
                              "." + std::to_string(idx[1]);

    const auto writeCheckpoint = [](BinWriter &w, const Snapshot &s,
                                    std::uint64_t warmup) {
        w.u32(pipe::kSnapshotFormatVersion);
        pipe::serializeSnapshot(w, s);
        w.u64(warmup);
    };
    auto publish = [&](const std::string &key, const Snapshot &s,
                       std::uint64_t warmup) {
        store.publish(key,
                      [&](BinWriter &w) { writeCheckpoint(w, s, warmup); });
    };
    auto publishList = [&](const std::vector<Snapshot> &list,
                           const std::vector<std::uint64_t> &warmups) {
        store.publish(ivKey, [&](BinWriter &w) {
            w.u64(list.size());
            for (std::size_t i = 0; i < list.size(); ++i)
                writeCheckpoint(w, list[i], warmups[i]);
        });
    };

    for (const auto &[what, mutate] : mutations) {
        Snapshot bad = good;
        mutate(bad);
        // The codec alone accepts the entry; only its shape is off.
        const auto bytes = encode(bad);
        BinReader r(bytes);
        Snapshot decoded;
        pipe::deserializeSnapshot(r, decoded);
        EXPECT_TRUE(r.ok() && r.atEnd()) << what;

        std::vector<Snapshot> badIv = goodIv;
        for (Snapshot &s : badIv)
            mutate(s);

        store.configure(dir, 0);
        publish(warmKey, bad, rc.warmupInstrs);
        publishList(badIv, idx);
        ckpts.clear();
        const auto gen0 = ckpts.generations();
        pipe::NullPredictor vp;
        EXPECT_TRUE(sim::runWorkload(workload, &vp, rc) == want) << what;
        EXPECT_TRUE(runInterval() == wantIv) << what;
        EXPECT_EQ(ckpts.generations() - gen0, 2u)
            << what << ": a misshapen entry was served";
        store.configure("", 0);
    }

    // List-level forgeries: every checkpoint fits the core, but the
    // list is not the one that was asked for.
    const std::pair<const char *, std::function<void()>> forgeries[] = {
        {"one checkpoint short",
         [&] { publishList({goodIv[0]}, {idx[0]}); }},
        {"first warmup off by one",
         [&] { publishList(goodIv, {idx[0] + 1, idx[1]}); }},
    };
    for (const auto &[what, forge] : forgeries) {
        store.configure(dir, 0);
        forge();
        ckpts.clear();
        const auto gen0 = ckpts.generations();
        EXPECT_TRUE(runInterval() == wantIv) << what;
        EXPECT_EQ(ckpts.generations() - gen0, 1u)
            << what << ": the forged list was served";
        store.configure("", 0);
    }
    ckpts.clear();
    wipe();
}

TEST(SnapshotIo, ShapeIsGeometryNotContents)
{
    // A warmed core (full caches, live maps) and a fresh one of the
    // same config have one shape; the store compares against it.
    const auto rc = warmRc();
    const std::vector<trace::MicroOp> noCode;
    pipe::Core::Snapshot fresh;
    pipe::Core(rc.core, noCode, nullptr).saveState(fresh);
    const auto shape = pipe::snapshotShape(fresh);
    EXPECT_EQ(pipe::snapshotShape(warmSnapshot("hash_probe")), shape);
    EXPECT_EQ(pipe::snapshotShape(warmSnapshot("call_tree")), shape);

    pipe::CoreConfig small = rc.core;
    small.rasDepth = 8;
    pipe::Core::Snapshot other;
    pipe::Core(small, noCode, nullptr).saveState(other);
    EXPECT_NE(pipe::snapshotShape(other), shape);
}
