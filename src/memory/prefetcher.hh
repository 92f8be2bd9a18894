/**
 * @file
 * PC-indexed stride prefetcher (paper Table III: "stride-based
 * prefetchers"). Watches the demand stream and suggests block
 * addresses to prefetch into the cache it is attached to.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace mem
{

class StridePrefetcher
{
  public:
    explicit StridePrefetcher(std::size_t entries = 64,
                              unsigned degree = 2)
        : st{.table = std::vector<Entry>(entries)}, prefetchDegree(degree)
    {
        lvp_assert(isPowerOf2(entries),
                   "prefetcher table size %zu is not a power of two",
                   entries);
    }

    /**
     * Observe a demand access; fills @p out with up to degree
     * prefetch addresses (may be empty).
     */
    void
    observe(Addr pc, Addr addr, std::vector<Addr> &out)
    {
        out.clear();
        Entry &e = st.table[(pc >> 2) & (st.table.size() - 1)];
        const std::uint16_t tag = std::uint16_t((pc >> 2) & 0x3ff);
        if (!e.valid || e.tag != tag) {
            e.valid = true;
            e.tag = tag;
            e.lastAddr = addr;
            e.stride = 0;
            e.conf = 0;
            return;
        }
        const std::int64_t stride =
            std::int64_t(addr) - std::int64_t(e.lastAddr);
        if (stride == e.stride && stride != 0) {
            if (e.conf < 3)
                ++e.conf;
        } else {
            e.conf = (stride == e.stride) ? e.conf : 0;
            e.stride = stride;
        }
        e.lastAddr = addr;
        if (e.conf >= 2 && e.stride != 0) {
            for (unsigned d = 1; d <= prefetchDegree; ++d)
                out.push_back(Addr(std::int64_t(addr) +
                                   std::int64_t(d) * e.stride));
        }
    }

    std::uint64_t issued() const { return st.numIssued; }
    void countIssued(std::uint64_t n) { st.numIssued += n; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t conf = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(valid, tag, lastAddr, stride, conf);
        }
    };

  public:
    /** Mutable state only; degree comes from the constructor. */
    struct State
    {
        std::vector<Entry> table;
        std::uint64_t numIssued = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(table, numIssued);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    State st;
    // lvplint: allow(state-snapshot) -- construction-time config
    unsigned prefetchDegree;
};

} // namespace mem
} // namespace lvpsim

