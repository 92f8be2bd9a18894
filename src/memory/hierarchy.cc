#include "memory/hierarchy.hh"

namespace lvpsim
{
namespace mem
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : cfg(config), icache(cfg.l1i), dcache(cfg.l1d), l2cache(cfg.l2),
      l3cache(cfg.l3)
{
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 const Snapshot &s)
    : cfg(config), icache(cfg.l1i, s.icache), dcache(cfg.l1d, s.dcache),
      l2cache(cfg.l2, s.l2cache), l3cache(cfg.l3, s.l3cache)
{
    dtlb.restoreState(s.dtlb);
    pf.restoreState(s.pf);
}

Cycle
MemoryHierarchy::fillFromBeyond(Addr addr, AccessResult &res)
{
    Cycle lat = 0;
    bool wb = false;
    if (l2cache.probe(addr)) {
        res.l2Hit = true;
        lat += l2cache.latency();
    } else if (l3cache.probe(addr)) {
        res.l3Hit = true;
        lat += l2cache.latency() + l3cache.latency();
        l2cache.fill(addr, false, &wb);
    } else {
        lat += l2cache.latency() + l3cache.latency() +
               cfg.memoryLatency;
        l3cache.fill(addr, false, &wb);
        l2cache.fill(addr, false, &wb);
    }
    return lat;
}

AccessResult
MemoryHierarchy::dataAccess(Addr pc, Addr addr, bool is_write)
{
    AccessResult res;
    res.latency = dtlb.access(addr);
    res.latency += dcache.latency();

    if (dcache.probe(addr)) {
        res.l1Hit = true;
        if (is_write)
            dcache.setDirty(addr);
    } else {
        res.latency += fillFromBeyond(addr, res);
        bool wb = false;
        const Addr evicted = dcache.fill(addr, is_write, &wb);
        if (wb) {
            // Write-back into L2 (timing-free; tags only).
            bool wb2 = false;
            l2cache.fill(evicted, true, &wb2);
            if (wb2)
                l3cache.fill(evicted, true, nullptr);
        }
    }

    if (cfg.enablePrefetch) {
        pf.observe(pc, addr, pfAddrs);
        for (Addr a : pfAddrs) {
            // Prefetches fill L2 (and train no further).
            if (!l2cache.contains(a)) {
                bool wb = false;
                l2cache.fill(a, false, &wb);
                pf.countIssued(1);
            }
        }
    }
    return res;
}

AccessResult
MemoryHierarchy::paqProbe(Addr addr)
{
    AccessResult res;
    res.latency = dcache.latency();
    if (dcache.contains(addr))
        res.l1Hit = true;
    return res;
}

Cycle
MemoryHierarchy::instFetch(Addr pc)
{
    Cycle lat = icache.latency();
    if (!icache.probe(pc)) {
        bool wb = false;
        if (l2cache.probe(pc)) {
            lat += l2cache.latency();
        } else if (l3cache.probe(pc)) {
            lat += l2cache.latency() + l3cache.latency();
            l2cache.fill(pc, false, &wb);
        } else {
            lat += l2cache.latency() + l3cache.latency() +
                   cfg.memoryLatency;
            l3cache.fill(pc, false, &wb);
            l2cache.fill(pc, false, &wb);
        }
        icache.fill(pc, false, &wb);
    }
    return lat;
}

} // namespace mem
} // namespace lvpsim
