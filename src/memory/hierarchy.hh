/**
 * @file
 * Three-level cache hierarchy configured per the paper's Table III:
 *
 *   L1: split I/D, 64KB each, 4-way, 1-cycle (I) / 2-cycle (D), 64B
 *   L2: unified private, 512KB, 8-way, 16-cycle, 128B blocks
 *   L3: unified shared, 8MB, 16-way, 32-cycle, 128B blocks
 *   Memory: 200-cycle; 512-entry 8-way TLB; stride prefetchers
 */

#pragma once

#include <cstdint>
#include <vector>

#include "memory/cache.hh"
#include "memory/memdep.hh"
#include "memory/prefetcher.hh"
#include "memory/tlb.hh"

namespace lvpsim
{
namespace mem
{

struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 4, 64, 1};
    CacheConfig l1d{"l1d", 64 * 1024, 4, 64, 2};
    CacheConfig l2{"l2", 512 * 1024, 8, 128, 16};
    CacheConfig l3{"l3", 8 * 1024 * 1024, 16, 128, 32};
    Cycle memoryLatency = 200;
    bool enablePrefetch = true;
};

struct AccessResult
{
    Cycle latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    bool l3Hit = false;
};

class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg =
                                 HierarchyConfig{});

    /** A demand data access (load or store) from the core. */
    AccessResult dataAccess(Addr pc, Addr addr, bool is_write);

    /**
     * A PAQ probe with a predicted address (paper Figure 1, step 3).
     * Hits return the D-cache latency; misses do NOT fill or escalate
     * (the paper's optional miss-prefetch, step 5, is disabled).
     */
    AccessResult paqProbe(Addr addr);

    /** Instruction fetch for a cache block. */
    Cycle instFetch(Addr pc);

    /** The latency of the slowest dataAccess(): a TLB miss, then a
     *  miss in every cache level. */
    Cycle
    maxDataLatency() const
    {
        return dtlb.walkLatency() + dcache.latency() + l2cache.latency() +
               l3cache.latency() + cfg.memoryLatency;
    }

    Cache &l1d() { return dcache; }
    Cache &l1i() { return icache; }
    Cache &l2() { return l2cache; }
    Cache &l3() { return l3cache; }
    Tlb &tlb() { return dtlb; }
    const Cache &l1dConst() const { return dcache; }
    const Cache &l2Const() const { return l2cache; }
    const Cache &l3Const() const { return l3cache; }
    const Tlb &tlbConst() const { return dtlb; }

    std::uint64_t prefetchesIssued() const { return pf.issued(); }

    /** Aggregate of every component's mutable state. */
    struct Snapshot
    {
        Cache::State icache;
        Cache::State dcache;
        Cache::State l2cache;
        Cache::State l3cache;
        Tlb::State dtlb;
        StridePrefetcher::State pf;

        template <class V>
        void
        fields(V &v)
        {
            v(icache, dcache, l2cache, l3cache, dtlb, pf);
        }
    };

    /**
     * A hierarchy of geometry @p cfg that starts in state @p s: the
     * caches are built from their saved states (sharing their line
     * chunks), so no empty line array is allocated and dropped.
     */
    MemoryHierarchy(const HierarchyConfig &cfg, const Snapshot &s);

    void
    saveState(Snapshot &s) const
    {
        icache.saveState(s.icache);
        dcache.saveState(s.dcache);
        l2cache.saveState(s.l2cache);
        l3cache.saveState(s.l3cache);
        dtlb.saveState(s.dtlb);
        pf.saveState(s.pf);
    }

    void
    restoreState(const Snapshot &s)
    {
        icache.restoreState(s.icache);
        dcache.restoreState(s.dcache);
        l2cache.restoreState(s.l2cache);
        l3cache.restoreState(s.l3cache);
        dtlb.restoreState(s.dtlb);
        pf.restoreState(s.pf);
    }

  private:
    /** Walk L2/L3/memory after an L1 miss; fills on the way back. */
    Cycle fillFromBeyond(Addr addr, AccessResult &res);

    // lvplint: allow(state-snapshot) -- construction-time config, immutable
    HierarchyConfig cfg;
    Cache icache;
    Cache dcache;
    Cache l2cache;
    Cache l3cache;
    Tlb dtlb;
    StridePrefetcher pf;
    // lvplint: allow(state-snapshot) -- scratch buffer, cleared per observe()
    std::vector<Addr> pfAddrs;
};

} // namespace mem
} // namespace lvpsim

