/**
 * @file
 * Data TLB (paper Table III: 512-entry, 8-way set-associative). A miss
 * costs a fixed page-walk latency.
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

class Tlb
{
  public:
    explicit Tlb(std::size_t entries = 512, unsigned assoc = 8,
                 unsigned page_shift = 12, Cycle walk_latency = 20)
        : st{.sets = std::vector<Way>(entries)},
          numSets(entries / assoc), numWays(assoc),
          pageShift(page_shift), walkLat(walk_latency)
    {}

    /** Touch the page of @p addr; returns extra latency (0 on hit). */
    Cycle
    access(Addr addr)
    {
        const Addr vpn = addr >> pageShift;
        const std::size_t s = vpn & (numSets - 1);
        for (unsigned w = 0; w < numWays; ++w) {
            Way &e = st.sets[s * numWays + w];
            if (e.valid && e.vpn == vpn) {
                e.lastUse = ++st.useClock;
                ++st.numHits;
                return 0;
            }
        }
        ++st.numMisses;
        Way *victim = &st.sets[s * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            Way &e = st.sets[s * numWays + w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        victim->valid = true;
        victim->vpn = vpn;
        victim->lastUse = ++st.useClock;
        return walkLat;
    }

    std::uint64_t hits() const { return st.numHits; }
    std::uint64_t misses() const { return st.numMisses; }
    /** The extra latency of a miss. */
    Cycle walkLatency() const { return walkLat; }

  private:
    struct Way
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lastUse = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(valid, vpn, lastUse);
        }
    };

  public:
    /** Mutable state only; geometry comes from the constructor. */
    struct State
    {
        std::vector<Way> sets;
        std::uint64_t useClock = 0;
        std::uint64_t numHits = 0;
        std::uint64_t numMisses = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(sets, useClock, numHits, numMisses);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    State st;
    // lvplint: allow(state-snapshot) -- construction-time geometry
    std::size_t numSets;
    // lvplint: allow(state-snapshot) -- construction-time geometry
    unsigned numWays;
    // lvplint: allow(state-snapshot) -- construction-time geometry
    unsigned pageShift;
    // lvplint: allow(state-snapshot) -- construction-time latency
    Cycle walkLat;
};

} // namespace mem
} // namespace lvpsim

