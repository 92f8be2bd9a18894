/**
 * @file
 * Generic tagged prediction table.
 *
 * All four component predictors (and the accuracy monitor) are built on
 * PC- or context-indexed, partially tagged tables. The table is
 * direct-mapped by default, but supports a runtime-adjustable number of
 * ways because the paper's table-fusion mechanism (Section V-E) turns a
 * receiver's direct-mapped table into a set-associative one by grafting
 * donor tables on as extra ways.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace lvpsim
{

template <typename PayloadT>
class TaggedTable
{
  public:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0; ///< for LRU among fused ways
        PayloadT payload{};
    };

    /**
     * @param num_sets number of sets (power of two)
     * @param num_ways initial associativity (1 = direct mapped)
     */
    explicit TaggedTable(std::size_t num_sets = 0, unsigned num_ways = 1)
    {
        if (num_sets > 0)
            configure(num_sets, num_ways);
    }

    void
    configure(std::size_t num_sets, unsigned num_ways)
    {
        lvp_assert(num_sets >= 1, "need at least one set");
        lvp_assert(num_ways >= 1, "need at least one way");
        sets = num_sets;
        ways.assign(num_sets * num_ways, Way{});
        numWaysVal = num_ways;
        useClock = 0;
    }

    std::size_t numSets() const { return sets; }
    unsigned numWays() const { return numWaysVal; }
    std::size_t numEntries() const { return sets * numWaysVal; }
    bool empty() const { return sets == 0; }

    /**
     * Change associativity in place. Added ways come up invalid; way 0 of
     * every set (the receiver's own storage) is always preserved, which
     * matches the fusion algorithm's "receiver tables are maintained".
     */
    void
    setWays(unsigned num_ways)
    {
        lvp_assert(num_ways >= 1, "need at least one way");
        if (num_ways == numWaysVal)
            return;
        std::vector<Way> next(sets * num_ways);
        const unsigned keep = std::min(num_ways, numWaysVal);
        for (std::size_t s = 0; s < sets; ++s)
            for (unsigned w = 0; w < keep; ++w)
                next[s * num_ways + w] = ways[s * numWaysVal + w];
        ways.swap(next);
        numWaysVal = num_ways;
    }

    /** Invalidate ways [first, last) in every set (fusion flushes donors). */
    void
    flushWays(unsigned first, unsigned last)
    {
        lvp_assert(first <= last && last <= numWaysVal, "bad way range");
        for (std::size_t s = 0; s < sets; ++s)
            for (unsigned w = first; w < last; ++w)
                ways[s * numWaysVal + w] = Way{};
    }

    void flushAll() { flushWays(0, numWaysVal); }

    /** Find a valid matching way; returns nullptr on miss. */
    Way *
    lookup(std::uint64_t index, std::uint64_t tag)
    {
        const std::size_t s = setOf(index);
        for (unsigned w = 0; w < numWaysVal; ++w) {
            Way &way = ways[s * numWaysVal + w];
            if (way.valid && way.tag == tag) {
                way.lastUse = ++useClock;
                return &way;
            }
        }
        return nullptr;
    }

    const Way *
    lookup(std::uint64_t index, std::uint64_t tag) const
    {
        const std::size_t s = setOf(index);
        for (unsigned w = 0; w < numWaysVal; ++w) {
            const Way &way = ways[s * numWaysVal + w];
            if (way.valid && way.tag == tag)
                return &way;
        }
        return nullptr;
    }

    /**
     * Allocate (or re-find) the way for (index, tag): hit reuses the
     * entry, otherwise an invalid way is claimed, otherwise the LRU way
     * is victimized. The returned payload is reset on (re)allocation.
     *
     * @param[out] was_hit true iff the entry already existed.
     */
    Way &
    allocate(std::uint64_t index, std::uint64_t tag, bool *was_hit = nullptr)
    {
        const std::size_t s = setOf(index);
        for (unsigned w = 0; w < numWaysVal; ++w) {
            Way &way = ways[s * numWaysVal + w];
            if (way.valid && way.tag == tag) {
                if (was_hit)
                    *was_hit = true;
                way.lastUse = ++useClock;
                return way;
            }
        }
        if (was_hit)
            *was_hit = false;
        // Miss: claim an invalid way, else evict the LRU way.
        Way *victim = &ways[s * numWaysVal];
        for (unsigned w = 0; w < numWaysVal; ++w) {
            Way &way = ways[s * numWaysVal + w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = ++useClock;
        victim->payload = PayloadT{};
        return *victim;
    }

    /** Direct access to a way of a set (replacement-policy hooks). */
    Way &
    wayAt(std::uint64_t index, unsigned way = 0)
    {
        lvp_assert(way < numWaysVal, "way %u out of range", way);
        return ways[setOf(index) * numWaysVal + way];
    }

    /** Invalidate the entry for (index, tag) if present. */
    void
    invalidate(std::uint64_t index, std::uint64_t tag)
    {
        if (Way *w = lookup(index, tag))
            *w = Way{};
    }

    /** Count of valid entries (for tests/stats). */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const Way &w : ways)
            n += w.valid ? 1 : 0;
        return n;
    }

    /** Visit every valid way (qa state-bounds checks, stats). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Way &w : ways)
            if (w.valid)
                fn(w);
    }

  private:
    std::size_t setOf(std::uint64_t index) const
    {
        return fastMod(index, sets);
    }

    std::size_t sets = 0;
    unsigned numWaysVal = 1;
    std::uint64_t useClock = 0;
    std::vector<Way> ways;
};

} // namespace lvpsim

