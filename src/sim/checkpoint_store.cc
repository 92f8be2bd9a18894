#include "sim/checkpoint_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/mmap_file.hh"

namespace lvpsim
{
namespace sim
{

namespace
{

// lvplint: allow(determinism) -- feeds only the store_seconds /
// claim-wait bookkeeping, stripped by determinism diffs
using IoClock = std::chrono::steady_clock;

std::uint64_t
microsSince(IoClock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            IoClock::now() - t0)
            .count());
}

bool
disabledSpelling(const std::string &s)
{
    return s == "off" || s == "none" || s == "0";
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || (end != nullptr && *end != '\0'))
        return fallback;
    return static_cast<std::uint64_t>(parsed);
}

/** How long a loser polls for a claimed key before building anyway. */
std::uint64_t
claimTimeoutMs()
{
    return envU64("LVPSIM_STORE_CLAIM_TIMEOUT_MS", 120000);
}

/** Claims older than this are presumed crashed and broken. */
std::uint64_t
claimStaleSec()
{
    return envU64("LVPSIM_STORE_CLAIM_STALE_SEC", 300);
}

constexpr std::uint64_t kPollMs = 20;

std::string
hexKeyHash(const std::string &key)
{
    // Two independent FNV streams give a 128-bit name: with full-key
    // verification in the header a collision is only a forced miss,
    // but 128 bits makes even that implausible.
    const std::uint64_t h1 = fnv1a64(key);
    const std::uint64_t h2 = fnv1a64(key, 0x9e3779b97f4a7c15ull);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
    return std::string(buf);
}

} // anonymous namespace

CheckpointStore &
CheckpointStore::instance()
{
    static CheckpointStore store;
    static const bool initialized = [] {
        const char *env = std::getenv("LVPSIM_STORE");
        std::string dir = env != nullptr ? env : "";
        if (disabledSpelling(dir))
            dir.clear();
        store.configure(dir, envU64("LVPSIM_STORE_MAX_BYTES", 0));
        return true;
    }();
    (void)initialized;
    return store;
}

std::string
CheckpointStore::resolveDir(const std::string &cliDir)
{
    if (!cliDir.empty())
        return disabledSpelling(cliDir) ? std::string() : cliDir;
    const char *env = std::getenv("LVPSIM_STORE");
    if (env != nullptr && *env != '\0') {
        const std::string d = env;
        return disabledSpelling(d) ? std::string() : d;
    }
    const char *home = std::getenv("HOME");
    if (home == nullptr || *home == '\0')
        return {};
    return std::string(home) + "/.cache/lvpsim";
}

void
CheckpointStore::configure(const std::string &newDir,
                           std::uint64_t newMaxBytes)
{
    std::string usable = newDir;
    if (!usable.empty() && !makeDirs(usable))
        usable.clear();
    MutexLock lk(mx);
    dir = usable;
    maxBytes = newMaxBytes;
}

bool
CheckpointStore::enabled() const
{
    MutexLock lk(mx);
    return !dir.empty();
}

std::string
CheckpointStore::directory() const
{
    MutexLock lk(mx);
    return dir;
}

std::string
CheckpointStore::entryPath(const std::string &key) const
{
    std::string base;
    {
        MutexLock lk(mx);
        if (dir.empty())
            return {};
        base = dir;
    }
    return base + "/" + hexKeyHash(key) + ".lvpc";
}

void
CheckpointStore::resetCounters()
{
    nHits.store(0, std::memory_order_relaxed);
    nMisses.store(0, std::memory_order_relaxed);
    ioMicros.store(0, std::memory_order_relaxed);
}

bool
CheckpointStore::tryLoadAt(const std::string &path,
                           const std::string &key,
                           const std::function<bool(BinReader &)> &decode)
{
    const auto t0 = IoClock::now();
    MappedFile mf = MappedFile::open(path);
    bool ok = false;
    if (mf.valid()) {
        BinReader hdr(mf.data(), mf.size());
        const std::uint32_t magic = hdr.u32();
        const std::uint32_t version = hdr.u32();
        const std::string storedKey = hdr.str();
        const std::uint64_t payloadLen = hdr.u64();
        const std::uint64_t checksum = hdr.u64();
        if (hdr.ok() && magic == kStoreMagic &&
            version == kStoreFormatVersion && storedKey == key &&
            payloadLen == hdr.remaining() &&
            checksum == checksum64(mf.data() + hdr.offset(),
                                   static_cast<std::size_t>(payloadLen))) {
            BinReader payload(mf.data() + hdr.offset(),
                              static_cast<std::size_t>(payloadLen));
            ok = decode(payload) && payload.ok();
        }
    }
    ioMicros.fetch_add(microsSince(t0), std::memory_order_relaxed);
    if (ok)
        touchFile(path); // LRU recency for --store-max-bytes trimming
    return ok;
}

bool
CheckpointStore::tryLoad(const std::string &key,
                         const std::function<bool(BinReader &)> &decode)
{
    const std::string path = entryPath(key);
    if (path.empty())
        return false;
    const bool ok = tryLoadAt(path, key, decode);
    (ok ? nHits : nMisses).fetch_add(1, std::memory_order_relaxed);
    return ok;
}

void
CheckpointStore::publish(const std::string &key,
                         const std::function<void(BinWriter &)> &encode)
{
    const std::string path = entryPath(key);
    if (path.empty())
        return;

    BinWriter payload;
    encode(payload);

    const auto t0 = IoClock::now();
    BinWriter file;
    file.u32(kStoreMagic);
    file.u32(kStoreFormatVersion);
    file.str(key);
    file.u64(payload.size());
    file.u64(checksum64(payload.buffer().data(), payload.size()));
    file.bytes(payload.buffer().data(), payload.size());
    atomicWriteFile(path, file.buffer().data(), file.size());
    ioMicros.fetch_add(microsSince(t0), std::memory_order_relaxed);

    std::string dirNow;
    std::uint64_t budget = 0;
    {
        MutexLock lk(mx);
        dirNow = dir;
        budget = maxBytes;
    }
    if (!dirNow.empty() && budget > 0)
        trim(dirNow, budget);
}

void
CheckpointStore::trim(const std::string &dirNow, std::uint64_t budget)
{
    std::vector<DirEntry> entries;
    std::uint64_t total = 0;
    for (DirEntry &e : listDir(dirNow)) {
        // Only store entries: never touch claim files or foreign data
        // that happens to share the directory.
        if (e.name.size() < 5 ||
            e.name.compare(e.name.size() - 5, 5, ".lvpc") != 0) {
            continue;
        }
        total += e.sizeBytes;
        entries.push_back(std::move(e));
    }
    if (total <= budget)
        return;
    // LRU by mtime: loads touch their entry, so the oldest mtime is
    // the least recently used (or least recently rebuilt) key.
    std::sort(entries.begin(), entries.end(),
              [](const DirEntry &a, const DirEntry &b) {
                  if (a.mtimeSec != b.mtimeSec)
                      return a.mtimeSec < b.mtimeSec;
                  return a.name < b.name;
              });
    for (const DirEntry &e : entries) {
        if (total <= budget)
            break;
        if (removeFile(dirNow + "/" + e.name))
            total -= e.sizeBytes;
    }
}

void
CheckpointStore::fetchOrBuild(
    const std::string &key,
    const std::function<bool(BinReader &)> &decode,
    const std::function<void(BinWriter &)> &build)
{
    const std::string path = entryPath(key);
    if (path.empty()) {
        BinWriter discard;
        build(discard);
        return;
    }

    const std::string claimPath = path + ".building";
    const auto t0 = IoClock::now();
    const std::uint64_t timeoutMs = claimTimeoutMs();

    while (true) {
        if (tryLoadAt(path, key, decode)) {
            nHits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        ClaimFile claim = ClaimFile::tryAcquire(claimPath);
        if (claim.owned()) {
            // Double-check: the previous owner may have published
            // between our failed load and the claim acquisition.
            if (tryLoadAt(path, key, decode)) {
                nHits.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            break;
        }
        // Somebody else is building this key. A claim whose owner
        // died would wedge every later process, so break it by age;
        // and bound the total wait — building locally after timeout
        // is pure duplicated work, never a correctness hazard (equal
        // keys build byte-identical payloads).
        const std::int64_t mtime = fileMtime(claimPath);
        if (mtime >= 0 &&
            wallClockSeconds() - mtime >
                static_cast<std::int64_t>(claimStaleSec())) {
            removeFile(claimPath);
            continue;
        }
        if (microsSince(t0) / 1000 > timeoutMs)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    }

    nMisses.fetch_add(1, std::memory_order_relaxed);
    BinWriter payload;
    build(payload);
    publish(key, [&](BinWriter &w) {
        w.bytes(payload.buffer().data(), payload.size());
    });
}

} // namespace sim
} // namespace lvpsim
