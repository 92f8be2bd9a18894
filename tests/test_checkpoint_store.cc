/**
 * @file
 * The persistent checkpoint store (sim/checkpoint_store.hh):
 * corruption robustness (version bumps, truncation, flipped bytes,
 * foreign keys are all misses, never crashes, and get rebuilt), the
 * payload checksum (pinned values, single-byte and length
 * sensitivity), LRU trimming, claim timeouts, and the L1/L2
 * layering — CheckpointCache, BaselineCache and PlanCache must serve
 * from disk across an in-memory clear() without re-simulating,
 * bit-identically to the inline build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/binio.hh"
#include "common/mmap_file.hh"
#include "common/random.hh"
#include "core/composite.hh"
#include "core/lvp_interface.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"
#include "sim/experiment.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"

using namespace lvpsim;

namespace
{

std::vector<std::pair<std::string, std::uint64_t>>
flat(const pipe::SimStats &s)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            out.emplace_back(std::string(name), v);
        });
    return out;
}

/** Per-test scratch directory, wiped on entry and exit. */
class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        // Per process too: ctest runs each test alone and again
        // inside the `store_suite` binary run, possibly at once.
        dir = std::string("/tmp/lvpsim_store_gtest_") + info->name() +
              "_" + std::to_string(getpid());
        wipe();
        ASSERT_TRUE(makeDirs(dir));
    }

    void TearDown() override
    {
        // Never leave the process-wide store pointed at a dead dir.
        sim::CheckpointStore::instance().configure("", 0);
        wipe();
    }

    void wipe()
    {
        for (const DirEntry &e : listDir(dir))
            removeFile(dir + "/" + e.name);
        removeFile(dir);
    }

    std::vector<DirEntry> entries() const { return listDir(dir); }

    std::string dir;
};

/** Publish `payload` under `key` and return the entry's path. */
std::string
publishBytes(sim::CheckpointStore &store, const std::string &key,
             const std::vector<std::uint8_t> &payload)
{
    store.publish(key, [&](BinWriter &w) {
        w.bytes(payload.data(), payload.size());
    });
    return store.entryPath(key);
}

/** tryLoad that captures the raw payload bytes on success. */
bool
loadBytes(sim::CheckpointStore &store, const std::string &key,
          std::vector<std::uint8_t> *out = nullptr)
{
    return store.tryLoad(key, [&](BinReader &r) {
        std::vector<std::uint8_t> got(r.remaining());
        r.bytes(got.data(), got.size());
        if (!r.ok() || !r.atEnd())
            return false;
        if (out)
            *out = std::move(got);
        return true;
    });
}

void
rewriteFile(const std::string &path,
            const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             std::streamsize(bytes.size()));
    ASSERT_TRUE(os.good());
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    MappedFile mf = MappedFile::open(path);
    std::vector<std::uint8_t> out(mf.size());
    if (mf.valid())
        std::copy(mf.data(), mf.data() + mf.size(), out.begin());
    return out;
}

const std::vector<std::uint8_t> kPayload = {1, 2, 3, 4, 5,
                                            6, 7, 8, 9};

} // anonymous namespace

TEST_F(StoreTest, DisabledStoreIsInertButBuilds)
{
    sim::CheckpointStore store; // default: no directory
    EXPECT_FALSE(store.enabled());
    EXPECT_EQ(store.entryPath("k"), "");
    EXPECT_FALSE(loadBytes(store, "k"));

    bool built = false;
    store.fetchOrBuild(
        "k", [](BinReader &) { return true; },
        [&](BinWriter &) { built = true; });
    EXPECT_TRUE(built) << "disabled store must still run the build";
}

TEST_F(StoreTest, PublishThenLoadRoundTrips)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    ASSERT_TRUE(store.enabled());

    publishBytes(store, "some:key", kPayload);
    std::vector<std::uint8_t> got;
    EXPECT_TRUE(loadBytes(store, "some:key", &got));
    EXPECT_EQ(got, kPayload);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);
    EXPECT_GE(store.seconds(), 0.0);
}

TEST_F(StoreTest, VersionBumpIsMiss)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto path = publishBytes(store, "k", kPayload);

    // The format version is the u32 right after the magic; a bumped
    // store format must invalidate, not misparse, old entries.
    auto bytes = readFile(path);
    ASSERT_GT(bytes.size(), 8u);
    bytes[4] ^= 0xff;
    rewriteFile(path, bytes);
    EXPECT_FALSE(loadBytes(store, "k"));
    EXPECT_EQ(store.misses(), 1u);
}

TEST_F(StoreTest, EveryTruncationIsMiss)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto path = publishBytes(store, "k", kPayload);
    const auto bytes = readFile(path);
    ASSERT_GT(bytes.size(), kPayload.size());

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        rewriteFile(path,
                    {bytes.begin(), bytes.begin() + long(len)});
        EXPECT_FALSE(loadBytes(store, "k")) << "prefix " << len;
    }
    rewriteFile(path, bytes);
    EXPECT_TRUE(loadBytes(store, "k"));
}

TEST_F(StoreTest, AnyFlippedByteIsMiss)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto path = publishBytes(store, "k", kPayload);
    const auto bytes = readFile(path);

    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto bad = bytes;
        bad[i] ^= 0x01;
        rewriteFile(path, bad);
        EXPECT_FALSE(loadBytes(store, "k")) << "byte " << i;
    }
    rewriteFile(path, bytes);
    EXPECT_TRUE(loadBytes(store, "k"));
}

namespace
{

/** The payload the checksum tests store: 31 whole 32-byte stripes
 *  of four 8-byte lanes, then a 13-byte tail (one word, five bytes). */
std::vector<std::uint8_t>
stripedPayload()
{
    std::vector<std::uint8_t> p(31 * 32 + 13);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = std::uint8_t(i * 131 + 7);
    return p;
}

/**
 * Publish @p payload under @p key, apply @p damage to the entry file
 * (given the file bytes and where the payload starts in them), then
 * fetch the key: true when the damaged entry read as a miss, the
 * build ran once and republished an entry that now loads intact. The
 * fetch's decoder accepts any payload, so only the store's own
 * header and checksum checks can make the damage a miss.
 */
bool
missedAndRebuilt(
    sim::CheckpointStore &store, const std::string &key,
    const std::vector<std::uint8_t> &payload,
    const std::function<void(std::vector<std::uint8_t> &, std::size_t)>
        &damage)
{
    const auto path = publishBytes(store, key, payload);
    auto bytes = readFile(path);
    const std::size_t start = bytes.size() - payload.size();
    damage(bytes, start);
    rewriteFile(path, bytes);

    const std::uint64_t misses0 = store.misses();
    int builds = 0;
    store.fetchOrBuild(
        key,
        [](BinReader &r) { return r.take(r.remaining()) != nullptr; },
        [&](BinWriter &w) {
            ++builds;
            w.bytes(payload.data(), payload.size());
        });
    std::vector<std::uint8_t> reloaded;
    return builds == 1 && store.misses() == misses0 + 1 &&
           loadBytes(store, key, &reloaded) && reloaded == payload;
}

/** Overwrite the header's payload length (the u64 after the key). */
void
setPayloadLength(std::vector<std::uint8_t> &file, const std::string &key,
                 std::uint64_t len)
{
    const std::size_t at = 4 + 4 + 8 + key.size();
    for (std::size_t i = 0; i < 8; ++i)
        file[at + i] = std::uint8_t(len >> (8 * i));
}

} // anonymous namespace

TEST(StoreChecksum, PinnedValues)
{
    // checksum64 is part of the store's file format: a change to it
    // must come with a kStoreFormatVersion bump and new values here.
    std::vector<std::uint8_t> data(4101);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 131 + 7);
    const std::pair<std::size_t, std::uint64_t> pinned[] = {
        {0, 0xef46db3751d8e999ull},
        {1, 0xa96c7f0ce858bbb7ull},
        {7, 0x5efffab35c445121ull},
        {8, 0x994b676b71ce94ddull},
        {31, 0xea8e3be57aeba66full},
        {32, 0x525961e09e5c0b97ull},
        {33, 0x69fcb2c0485d90fbull},
        {4101, 0x26fae60c15b50b2full},
    };
    for (const auto &[len, want] : pinned) {
        const std::uint64_t got = checksum64(data.data(), len);
        EXPECT_EQ(got, want) << "length " << len << ": 0x" << std::hex
                             << got;
    }
}

TEST(StoreChecksum, EverySingleByteAndLengthChangeCounts)
{
    Xoshiro256 rng(42);
    for (const std::size_t n :
         {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 200u}) {
        std::vector<std::uint8_t> data(n + 1);
        for (auto &b : data)
            b = std::uint8_t(rng.next());
        const std::uint64_t base = checksum64(data.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
                data[i] ^= mask;
                EXPECT_NE(checksum64(data.data(), n), base)
                    << "length " << n << " byte " << i;
                data[i] ^= mask;
            }
        }
        if (n > 0) {
            EXPECT_NE(checksum64(data.data(), n - 1), base) << n;
        }
        for (const std::uint8_t extra : {0x00, 0x5a}) {
            data[n] = extra;
            EXPECT_NE(checksum64(data.data(), n + 1), base) << n;
        }
    }
    // Zero runs differ only in length.
    const std::vector<std::uint8_t> zeros(300, 0);
    std::vector<std::uint64_t> sums;
    for (std::size_t n = 0; n <= zeros.size(); ++n)
        sums.push_back(checksum64(zeros.data(), n));
    std::sort(sums.begin(), sums.end());
    EXPECT_EQ(std::adjacent_find(sums.begin(), sums.end()), sums.end());
}

TEST_F(StoreTest, DamagedPayloadIsMissAndRebuilt)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto payload = stripedPayload();
    // First and last byte, both sides of every lane boundary of the
    // first stripe and of a middle one, the last stripe's end, the
    // tail word and the tail bytes.
    const std::size_t offsets[] = {0,   7,   8,   15,  16,  23,  24,
                                   31,  32,  511, 512, 991, 992, 999,
                                   1000, 1002, payload.size() - 1};
    for (const std::size_t at : offsets) {
        EXPECT_TRUE(missedAndRebuilt(
            store, "flip", payload,
            [&](std::vector<std::uint8_t> &f, std::size_t start) {
                f[start + at] ^= 0x01;
            }))
            << "payload byte " << at;
    }
}

TEST_F(StoreTest, ResizedPayloadIsMissAndRebuilt)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto payload = stripedPayload();
    const std::string key = "resize";
    // The file alone shortened or lengthened by a byte, and the same
    // with the header's length made to agree, so that only the
    // checksum can tell.
    for (const bool fixLength : {false, true}) {
        EXPECT_TRUE(missedAndRebuilt(
            store, key, payload,
            [&](std::vector<std::uint8_t> &f, std::size_t) {
                f.pop_back();
                if (fixLength)
                    setPayloadLength(f, key, payload.size() - 1);
            }))
            << "truncated, length fixed " << fixLength;
        EXPECT_TRUE(missedAndRebuilt(
            store, key, payload,
            [&](std::vector<std::uint8_t> &f, std::size_t) {
                f.push_back(0);
                if (fixLength)
                    setPayloadLength(f, key, payload.size() + 1);
            }))
            << "extended, length fixed " << fixLength;
    }
}

TEST_F(StoreTest, FormatVersionOneEntryIsMissAndRebuilt)
{
    // Entries written before checksum64 say version 1; whatever their
    // checksum, they must be rebuilt, not trusted.
    static_assert(sim::kStoreFormatVersion == 2);
    sim::CheckpointStore store;
    store.configure(dir, 0);
    EXPECT_TRUE(missedAndRebuilt(
        store, "v1", stripedPayload(),
        [](std::vector<std::uint8_t> &f, std::size_t) {
            f[4] = 1;
            f[5] = f[6] = f[7] = 0;
        }));
}

TEST_F(StoreTest, EntryServedUnderForeignKeyIsMiss)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto path = publishBytes(store, "key-a", kPayload);

    // A (hypothetical) filename-hash collision must be caught by the
    // full key string stored in the header: serve key-a's bytes at
    // key-b's path and the load must reject them.
    const auto bytes = readFile(path);
    rewriteFile(store.entryPath("key-b"), bytes);
    EXPECT_FALSE(loadBytes(store, "key-b"));
    EXPECT_TRUE(loadBytes(store, "key-a"));
}

TEST_F(StoreTest, LruTrimKeepsStoreUnderBudget)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);
    const auto path = publishBytes(store, "probe", kPayload);
    const std::uint64_t entryBytes =
        std::uint64_t(readFile(path).size());
    removeFile(path);

    // Budget for two entries (the keys share a payload size).
    sim::CheckpointStore budgeted;
    budgeted.configure(dir, 2 * entryBytes + 1);
    publishBytes(budgeted, "k1", kPayload);
    publishBytes(budgeted, "k2", kPayload);
    publishBytes(budgeted, "k3", kPayload);

    std::uint64_t total = 0;
    for (const DirEntry &e : entries())
        total += e.sizeBytes;
    EXPECT_LE(total, 2 * entryBytes + 1);
    EXPECT_LE(entries().size(), 2u);
    EXPECT_GE(entries().size(), 1u);
}

TEST_F(StoreTest, FetchOrBuildIsBuildOnceAcrossInstances)
{
    sim::CheckpointStore first;
    first.configure(dir, 0);
    int builds = 0;
    const auto decode = [](BinReader &r) {
        return r.u32() == 42 && r.ok() && r.atEnd();
    };
    const auto build = [&](BinWriter &w) {
        ++builds;
        w.u32(42);
    };
    first.fetchOrBuild("shared", decode, build);
    EXPECT_EQ(builds, 1);

    // A second store over the same directory — a stand-in for a
    // second process — must hit the published entry, not rebuild.
    sim::CheckpointStore second;
    second.configure(dir, 0);
    second.fetchOrBuild("shared", decode, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(second.hits(), 1u);
}

TEST_F(StoreTest, UnresolvableClaimDegradesToLocalBuild)
{
    sim::CheckpointStore store;
    store.configure(dir, 0);

    // Park a live claim on the key with no owner ever publishing.
    // With a short poll budget the loser must fall back to building
    // locally (duplicate work, never a wedge) and still publish.
    ClaimFile claim =
        ClaimFile::tryAcquire(store.entryPath("k") + ".building");
    ASSERT_TRUE(claim.owned());
    setenv("LVPSIM_STORE_CLAIM_TIMEOUT_MS", "50", 1);
    bool built = false;
    store.fetchOrBuild(
        "k", [](BinReader &r) { return r.u32() == 7 && r.atEnd(); },
        [&](BinWriter &w) {
            built = true;
            w.u32(7);
        });
    unsetenv("LVPSIM_STORE_CLAIM_TIMEOUT_MS");
    EXPECT_TRUE(built);
    EXPECT_TRUE(store.tryLoad("k", [](BinReader &r) {
        return r.u32() == 7 && r.atEnd();
    }));
}

TEST_F(StoreTest, ResolveDirPrecedence)
{
    setenv("LVPSIM_STORE", "/tmp/env-store", 1);
    EXPECT_EQ(sim::CheckpointStore::resolveDir("/cli"), "/cli");
    EXPECT_EQ(sim::CheckpointStore::resolveDir("off"), "");
    EXPECT_EQ(sim::CheckpointStore::resolveDir(""),
              "/tmp/env-store");
    setenv("LVPSIM_STORE", "none", 1);
    EXPECT_EQ(sim::CheckpointStore::resolveDir(""), "");
    unsetenv("LVPSIM_STORE");
    const char *home = std::getenv("HOME");
    if (home && *home) {
        EXPECT_EQ(sim::CheckpointStore::resolveDir(""),
                  std::string(home) + "/.cache/lvpsim");
    }
}

namespace
{

sim::RunConfig
warmRc(std::uint64_t seed)
{
    sim::RunConfig rc;
    rc.maxInstrs = 3000;
    rc.warmupInstrs = 5000;
    rc.traceSeed = seed; // distinct seed => distinct cache keys
    return rc;
}

} // anonymous namespace

TEST_F(StoreTest, CheckpointCacheServesFromDiskAcrossClear)
{
    auto &store = sim::CheckpointStore::instance();
    store.configure(dir, 0);
    auto &cache = sim::CheckpointCache::instance();
    cache.clear();

    const auto rc = warmRc(101);
    const auto gen0 = cache.generations();
    const auto built = cache.get("stream_sum", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u);

    cache.clear(); // drop L1; the disk entry must satisfy the re-get
    const auto restored = cache.get("stream_sum", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u)
        << "disk hit re-simulated the warmup";
    EXPECT_EQ(restored->warmupInstrs, built->warmupInstrs);

    // The restored snapshot is bit-identical to the built one.
    BinWriter a, b;
    pipe::serializeSnapshot(a, built->core);
    pipe::serializeSnapshot(b, restored->core);
    EXPECT_EQ(a.buffer(), b.buffer());
}

TEST_F(StoreTest, BaselineCacheServesFromDiskAcrossClear)
{
    auto &store = sim::CheckpointStore::instance();
    store.configure(dir, 0);
    auto &cache = sim::BaselineCache::instance();
    cache.clear();
    sim::CheckpointCache::instance().clear();

    const auto rc = warmRc(102);
    const auto gen0 = cache.generations();
    const auto built = cache.get("hash_probe", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u);

    cache.clear();
    sim::CheckpointCache::instance().clear();
    const auto restored = cache.get("hash_probe", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u)
        << "disk hit re-simulated the baseline";
    EXPECT_EQ(flat(restored->stats), flat(built->stats));
}

TEST_F(StoreTest, PlanCacheServesFromDiskAcrossClear)
{
    auto &store = sim::CheckpointStore::instance();
    store.configure(dir, 0);
    auto &cache = sim::PlanCache::instance();
    cache.clear();

    sim::RunConfig rc;
    rc.maxInstrs = 60000;
    rc.sampleK = 3;
    rc.sampleIntervalLen = 10000;
    rc.traceSeed = 103;

    const auto gen0 = cache.generations();
    const auto built = cache.get("pointer_chase", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u);

    cache.clear();
    const auto restored = cache.get("pointer_chase", rc);
    EXPECT_EQ(cache.generations() - gen0, 1u)
        << "disk hit re-profiled the trace";
    ASSERT_EQ(restored->reps.size(), built->reps.size());
    for (std::size_t i = 0; i < built->reps.size(); ++i) {
        EXPECT_EQ(restored->reps[i].interval,
                  built->reps[i].interval);
        EXPECT_EQ(restored->reps[i].weightInstructions,
                  built->reps[i].weightInstructions);
        EXPECT_EQ(restored->reps[i].clusterSize,
                  built->reps[i].clusterSize);
    }
    EXPECT_EQ(restored->assignment, built->assignment);
    EXPECT_EQ(restored->intervalLen, built->intervalLen);
    EXPECT_EQ(restored->totalInstructions,
              built->totalInstructions);
}

TEST_F(StoreTest, WarmDiskSuiteRunMatchesColdInlineRun)
{
    // The acceptance differential: a suite computed cold (inline
    // warmup, store off) must match one served warm from disk, at
    // --jobs 1 and --jobs 4.
    const std::vector<std::string> suite = {"stream_sum",
                                            "pointer_chase",
                                            "hash_probe"};
    const auto rc = warmRc(104);
    const auto makeVp = [] {
        return vp::makeSinglePredictor(pipe::ComponentId::LVP, 512);
    };

    auto clearAll = [] {
        sim::CheckpointCache::instance().clear();
        sim::BaselineCache::instance().clear();
        sim::PlanCache::instance().clear();
    };

    sim::CheckpointStore::instance().configure("", 0);
    clearAll();
    sim::SuiteRunner cold(suite, rc, 1);
    const auto ref = cold.run("lvp", makeVp);

    // Populate the store, then serve two fresh "processes" from it.
    sim::CheckpointStore::instance().configure(dir, 0);
    clearAll();
    sim::SuiteRunner warmup(suite, rc, 2);
    (void)warmup.run("lvp", makeVp);

    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        clearAll();
        sim::CheckpointStore::instance().resetCounters();
        sim::SuiteRunner warm(suite, rc, jobs);
        const auto got = warm.run("lvp", makeVp);
        EXPECT_GT(sim::CheckpointStore::instance().hits(), 0u)
            << "jobs " << jobs << ": warm run never touched disk";
        ASSERT_EQ(got.rows.size(), ref.rows.size());
        for (std::size_t i = 0; i < ref.rows.size(); ++i) {
            EXPECT_EQ(flat(got.rows[i].base), flat(ref.rows[i].base))
                << "jobs " << jobs << " row " << i;
            EXPECT_EQ(flat(got.rows[i].withVp),
                      flat(ref.rows[i].withVp))
                << "jobs " << jobs << " row " << i;
        }
    }
}

TEST_F(StoreTest, WarmDiskSampledSuiteMatchesCold)
{
    // The sampled counterpart: plans and interval-checkpoint lists
    // served from a warm disk store must reproduce the cold rows
    // exactly, at --jobs 1 and --jobs 4, without re-profiling or
    // re-fast-forwarding anything.
    const std::vector<std::string> suite = {"stream_sum",
                                            "pointer_chase",
                                            "hash_probe"};
    sim::RunConfig rc;
    rc.maxInstrs = 20000;
    rc.traceSeed = 109;
    rc.sampleK = 3;
    rc.sampleIntervalLen = 2000;
    const auto makeVp = [] {
        return vp::makeSinglePredictor(pipe::ComponentId::LVP, 512);
    };

    auto &ckpts = sim::CheckpointCache::instance();
    auto &plans = sim::PlanCache::instance();
    auto clearAll = [&] {
        ckpts.clear();
        sim::BaselineCache::instance().clear();
        plans.clear();
    };

    sim::CheckpointStore::instance().configure("", 0);
    clearAll();
    const auto ref = sim::SuiteRunner(suite, rc, 1).run("lvp", makeVp);

    sim::CheckpointStore::instance().configure(dir, 0);
    clearAll();
    (void)sim::SuiteRunner(suite, rc, 2).run("lvp", makeVp);

    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        clearAll();
        sim::CheckpointStore::instance().resetCounters();
        const auto ckGen0 = ckpts.generations();
        const auto planGen0 = plans.generations();
        const auto got =
            sim::SuiteRunner(suite, rc, jobs).run("lvp", makeVp);
        EXPECT_GT(sim::CheckpointStore::instance().hits(), 0u)
            << "jobs " << jobs << ": warm run never touched disk";
        EXPECT_EQ(ckpts.generations(), ckGen0)
            << "jobs " << jobs << ": interval lists were rebuilt";
        EXPECT_EQ(plans.generations(), planGen0)
            << "jobs " << jobs << ": plans were rebuilt";
        ASSERT_EQ(got.rows.size(), ref.rows.size());
        for (std::size_t i = 0; i < ref.rows.size(); ++i) {
            EXPECT_EQ(flat(got.rows[i].base), flat(ref.rows[i].base))
                << "jobs " << jobs << " row " << i;
            EXPECT_EQ(flat(got.rows[i].withVp),
                      flat(ref.rows[i].withVp))
                << "jobs " << jobs << " row " << i;
        }
    }
}

TEST_F(StoreTest, RejectedEntryLeavesNoTrace)
{
    // A store entry with a valid header and checksum can still be
    // rejected by the payload decoder. The rebuilt value must then be
    // exactly what an inline build produces: nothing the rejected
    // decode wrote may leak into it, or into the entry republished
    // in its place.
    auto &store = sim::CheckpointStore::instance();
    auto &ckpts = sim::CheckpointCache::instance();
    auto &bases = sim::BaselineCache::instance();

    // Checkpoint: a genuine snapshot stored under the wrong warmup.
    const auto rc = warmRc(107);
    const std::string identity =
        sim::TraceCache::instance()
            .info("stream_sum", rc.maxInstrs + rc.warmupInstrs,
                  rc.traceSeed)
            .identity;
    const std::string ckptKey =
        "ckpt:" + sim::runConfigKey(rc) + "#" + identity;
    store.configure("", 0);
    ckpts.clear();
    const auto inlineCk = ckpts.get("stream_sum", rc);
    store.configure(dir, 0);
    store.publish(ckptKey, [&](BinWriter &w) {
        w.u32(pipe::kSnapshotFormatVersion);
        pipe::serializeSnapshot(w, inlineCk->core);
        w.u64(rc.warmupInstrs + 1);
    });
    ckpts.clear();
    const auto gen0 = ckpts.generations();
    EXPECT_EQ(ckpts.get("stream_sum", rc)->warmupInstrs,
              rc.warmupInstrs);
    ckpts.clear();
    EXPECT_EQ(ckpts.get("stream_sum", rc)->warmupInstrs,
              rc.warmupInstrs);
    EXPECT_EQ(ckpts.generations() - gen0, 1u)
        << "the rebuild republished the rejected warmup count";

    // Baseline: a no-warmup entry with one trailing byte.
    sim::RunConfig noWarm;
    noWarm.maxInstrs = 3000;
    noWarm.traceSeed = 108;
    const std::string baseKey =
        "base:" + sim::runConfigKey(noWarm) + "#" +
        sim::TraceCache::instance()
            .info("hash_probe", noWarm.maxInstrs, noWarm.traceSeed)
            .identity;
    store.configure("", 0);
    bases.clear();
    const auto inlineBase = bases.get("hash_probe", noWarm);
    EXPECT_EQ(inlineBase->checkpointSeconds, 0.0);
    store.configure(dir, 0);
    store.publish(baseKey, [&](BinWriter &w) {
        w.u32(pipe::kSnapshotFormatVersion);
        pipe::serializeSnapshot(w, inlineBase->stats);
        w.f64(1.0);
        w.f64(123.0);
        w.u8(0);
    });
    bases.clear();
    const auto rebuilt = bases.get("hash_probe", noWarm);
    EXPECT_EQ(rebuilt->checkpointSeconds, 0.0)
        << "the rejected entry's checkpointSeconds survived";
    EXPECT_EQ(flat(rebuilt->stats), flat(inlineBase->stats));
    sim::SuiteRunner runner({"hash_probe"}, noWarm, 1);
    const auto res = runner.run("lvp", [] {
        return vp::makeSinglePredictor(pipe::ComponentId::LVP, 512);
    });
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_EQ(res.rows[0].checkpointSeconds, 0.0);
}
