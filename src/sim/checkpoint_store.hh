/**
 * @file
 * Content-addressed, disk-backed L2 behind the in-memory result
 * caches, so warmup and profiling work survives across processes and
 * CI runs (docs/performance.md). sim::Memo (memo.hh) describes how
 * the caches use it.
 *
 * Entries are whole files under one directory, named by a hash of
 * their full cache key. Each file carries a self-describing header —
 * magic, format version, the complete key string, payload length and
 * a checksum64 of the payload (common/binio.hh) — and is published
 * with write-to-temp + rename(2), so readers see either nothing or a
 * complete entry.
 * Loads mmap the file and validate the header; any mismatch
 * (truncation, flipped bytes, version bump, key collision) is a
 * *miss*, never an error: the caller rebuilds and republishes.
 *
 * Cross-process build-once uses O_EXCL claim files: the first
 * process to claim a missing key builds it while others poll for the
 * published entry. Claims are advisory — a stale claim (crashed
 * owner) is broken by age, and a claim that cannot be resolved
 * within a timeout degrades to building locally. Because every
 * builder is deterministic per key, duplicate builds publish
 * identical bytes and last-writer-wins rename is harmless.
 *
 * The store is process-wide and disabled by default in library use;
 * the CLI enables it (see resolveDir). All methods are thread-safe.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/binio.hh"
#include "common/sync.hh"

namespace lvpsim
{
namespace sim
{

/**
 * Bumped when the store file header layout or its checksum changes;
 * entries of another version are misses that get rebuilt. Version 2
 * replaced the payload's FNV-1a checksum with checksum64.
 */
constexpr std::uint32_t kStoreFormatVersion = 2;

/** "LVPC" little-endian. */
constexpr std::uint32_t kStoreMagic = 0x4350564cu;

class CheckpointStore
{
  public:
    /** The process-wide store all caches share. Starts configured
     *  from the environment (LVPSIM_STORE / LVPSIM_STORE_MAX_BYTES);
     *  unset means disabled. */
    static CheckpointStore &instance();

    /**
     * Resolve the CLI-facing store directory: @p cliDir (--store)
     * wins, then $LVPSIM_STORE, then ~/.cache/lvpsim. "off", "none"
     * and "0" (in either source) mean disabled, returned as "".
     */
    static std::string resolveDir(const std::string &cliDir);

    /**
     * Point the store at @p dir (created on demand; "" disables) with
     * an LRU size budget of @p maxBytes (0 = unlimited). An
     * unusable directory silently disables the store — a read-only
     * HOME must never break simulation.
     */
    void configure(const std::string &dir, std::uint64_t maxBytes)
        EXCLUDES(mx);

    bool enabled() const EXCLUDES(mx);
    std::string directory() const EXCLUDES(mx);

    /**
     * Load the entry for @p key and hand its payload to @p decode.
     * True (and a counted hit) only when the header validates and
     * decode returns true with a clean reader; anything else is a
     * counted miss.
     */
    bool tryLoad(const std::string &key,
                 const std::function<bool(BinReader &)> &decode)
        EXCLUDES(mx);

    /** Serialize via @p encode and publish atomically (best effort:
     *  I/O failure only costs persistence, never correctness). */
    void publish(const std::string &key,
                 const std::function<void(BinWriter &)> &encode)
        EXCLUDES(mx);

    /**
     * The composite sim::Memo uses: return a disk hit via @p decode,
     * else run @p build (claiming the key so concurrent processes
     * build it at most once) and publish its encoding. @p build must
     * leave the caller's state fully constructed AND write the
     * matching payload; it runs exactly once per call when needed.
     * When the store is disabled, @p build runs and its output is
     * discarded — callers normally guard with enabled().
     */
    void fetchOrBuild(const std::string &key,
                      const std::function<bool(BinReader &)> &decode,
                      const std::function<void(BinWriter &)> &build)
        EXCLUDES(mx);

    std::uint64_t hits() const
    {
        return nHits.load(std::memory_order_relaxed);
    }

    std::uint64_t misses() const
    {
        return nMisses.load(std::memory_order_relaxed);
    }

    /** Wall-clock seconds spent on store I/O (reads + writes). */
    double seconds() const
    {
        return static_cast<double>(
                   ioMicros.load(std::memory_order_relaxed)) /
               1e6;
    }

    void resetCounters();

    /** Entry file path for @p key under the current directory
     *  ("" when disabled). Exposed for tests and tooling. */
    std::string entryPath(const std::string &key) const EXCLUDES(mx);

  private:
    bool tryLoadAt(const std::string &path, const std::string &key,
                   const std::function<bool(BinReader &)> &decode);
    void trim(const std::string &dirNow, std::uint64_t budget);

    mutable Mutex mx;
    std::string dir GUARDED_BY(mx);
    std::uint64_t maxBytes GUARDED_BY(mx) = 0;

    std::atomic<std::uint64_t> nHits{0};
    std::atomic<std::uint64_t> nMisses{0};
    std::atomic<std::uint64_t> ioMicros{0};
};

} // namespace sim
} // namespace lvpsim
