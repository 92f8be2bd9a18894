/**
 * @file
 * A timing-model set-associative cache with LRU replacement and
 * write-back/write-allocate policy. Tags only — data values live in
 * the trace's memory image; the pipeline needs hit/miss and latency.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/bitutils.hh"
#include "common/cow_array.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace mem
{

struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned blockSize = 64;
    Cycle accessLatency = 2;
};

class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Probe for a block; on hit, update LRU. Does NOT fill.
     * @return true on hit.
     */
    bool probe(Addr addr);

    /** Peek without LRU update (used by the PAQ bubble model). */
    bool contains(Addr addr) const;

    /**
     * Fill the block for @p addr, evicting LRU if needed.
     * @param dirty mark the filled block dirty (write allocate)
     * @param[out] writeback set true if a dirty block was evicted
     * @return the evicted block address (valid only when *writeback)
     */
    Addr fill(Addr addr, bool dirty, bool *writeback);

    /** Mark an existing block dirty (store hit). */
    void setDirty(Addr addr);

    /** Invalidate a block if present. */
    void invalidate(Addr addr);

    const CacheConfig &config() const { return cfg; }
    Cycle latency() const { return cfg.accessLatency; }

    std::uint64_t hits() const { return st.numHits; }
    std::uint64_t misses() const { return st.numMisses; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(valid, dirty, tag, lastUse);
        }
    };

  public:
    /**
     * Mutable state only; geometry comes from the owning config. The
     * lines are copy-on-write (common/cow_array.hh): a saved State
     * shares every chunk with the cache, and either side's next write
     * to a chunk clones just that chunk.
     */
    struct State
    {
        CowArray<Line> lines;
        std::uint64_t useClock = 0;
        std::uint64_t numHits = 0;
        std::uint64_t numMisses = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(lines, useClock, numHits, numMisses);
        }
    };

    /**
     * A cache of geometry @p cfg that starts in state @p s, sharing
     * its line chunks: the same as constructing one and restoring
     * @p s, without allocating the empty lines first.
     */
    Cache(const CacheConfig &cfg, const State &s);

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    /** Checks @p cfg's geometry and returns its set count. */
    static std::size_t setsOf(const CacheConfig &cfg);

    Addr blockAddr(Addr a) const { return a & ~Addr(cfg.blockSize - 1); }
    std::size_t setOf(Addr a) const
    {
        return (a >> blockShift) & (numSets - 1);
    }
    Addr tagOf(Addr a) const { return a >> blockShift; }

    // lvplint: allow(state-snapshot) -- construction-time config, immutable
    CacheConfig cfg;
    // lvplint: allow(state-snapshot) -- derived from cfg, immutable
    unsigned blockShift;
    // lvplint: allow(state-snapshot) -- derived from cfg, immutable
    std::size_t numSets;
    State st;
};

} // namespace mem
} // namespace lvpsim

