/**
 * @file
 * Memory dependence predictor "similar to Alpha 21264" (paper Table
 * III): a PC-indexed wait table. A load whose entry has the wait bit
 * set is held until all older stores have computed their addresses;
 * otherwise it speculates. A memory-order violation sets the bit; the
 * whole table is cleared periodically so stale conservatism decays.
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

class MemDepPredictor
{
  public:
    explicit MemDepPredictor(std::size_t entries = 1024,
                             std::uint64_t clear_interval = 32768)
        : st{.waitBits = std::vector<bool>(entries, false)},
          clearInterval(clear_interval)
    {
        lvp_assert(isPowerOf2(entries),
                   "memdep table size %zu is not a power of two",
                   entries);
    }

    /** Should this load wait for older stores? */
    bool
    shouldWait(Addr pc)
    {
        if (fastMod(++st.accesses, clearInterval) == 0)
            std::fill(st.waitBits.begin(), st.waitBits.end(), false);
        return st.waitBits[index(pc)];
    }

    /** A speculating load was hit by an older store: train to wait. */
    void
    recordViolation(Addr pc)
    {
        st.waitBits[index(pc)] = true;
        ++st.numViolations;
    }

    std::uint64_t violations() const { return st.numViolations; }

    /** Mutable state only; clear interval comes from the constructor. */
    struct State
    {
        std::vector<bool> waitBits;
        std::uint64_t accesses = 0;
        std::uint64_t numViolations = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(waitBits, accesses, numViolations);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    std::size_t
    index(Addr pc) const
    {
        return (pc >> 2) & (st.waitBits.size() - 1);
    }

    State st;
    // lvplint: allow(state-snapshot) -- construction-time config
    std::uint64_t clearInterval;
};

} // namespace mem
} // namespace lvpsim

