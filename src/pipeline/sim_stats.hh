/**
 * @file
 * Per-run statistics produced by the core model.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string_view>

namespace lvpsim
{
namespace pipe
{

struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    std::uint64_t loads = 0;
    std::uint64_t eligibleLoads = 0; ///< predictable (non-exclusive)
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;

    /// Value prediction activity (committed-path only).
    std::uint64_t predictionsMade = 0;    ///< probe returned non-None
    std::uint64_t predictionsUsed = 0;    ///< value reached consumers
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;   ///< each costs a flush
    std::uint64_t paqProbes = 0;
    std::uint64_t paqMisses = 0;          ///< dropped: D-cache miss
    std::uint64_t paqDropsFull = 0;       ///< dropped: PAQ full
    std::uint64_t paqConflictDrops = 0;   ///< dropped: older store

    /// Used predictions per component (index = ComponentId).
    std::array<std::uint64_t, 5> usedByComponent{};
    std::array<std::uint64_t, 5> wrongByComponent{};

    std::uint64_t vpFlushes = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t squashedOps = 0;

    /// High-water marks of the bounded hot-path maps (see
    /// docs/performance.md): the core's squashed-prediction stash
    /// and the predictor's pending per-token snapshots. Both must
    /// stay within the in-flight window; the peaks make the margin
    /// observable in results JSON.
    std::uint64_t refetchStashPeak = 0;
    std::uint64_t vpSnapshotsPeak = 0;

    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    /** Paper's coverage: fraction of eligible loads with a used
     *  prediction. */
    double
    coverage() const
    {
        return eligibleLoads
                   ? double(predictionsUsed) / double(eligibleLoads)
                   : 0.0;
    }

    /** Paper's accuracy: fraction of used predictions that were
     *  correct. */
    double
    accuracy() const
    {
        return predictionsUsed
                   ? double(predictionsCorrect) /
                         double(predictionsUsed)
                   : 1.0;
    }

    /** Every counter (forEachCounter order), then ipc, coverage
     *  and accuracy, one aligned row each. */
    void dump(std::ostream &os) const;

    bool operator==(const SimStats &) const = default;
};

/**
 * Visit every raw counter of `s` as a (name, value) pair, in a fixed
 * declaration order. The single source of truth for serializing a
 * SimStats (the JSON results layer iterates this instead of keeping
 * its own field list); array counters appear as
 * `used_by_component_<i>` / `wrong_by_component_<i>`.
 */
void forEachCounter(
    const SimStats &s,
    const std::function<void(std::string_view, std::uint64_t)> &fn);

/** Set one counter by its forEachCounter() name. False if unknown. */
bool setCounter(SimStats &s, std::string_view name, std::uint64_t v);

} // namespace pipe
} // namespace lvpsim

