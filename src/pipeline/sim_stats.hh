/**
 * @file
 * Per-run statistics produced by the core model.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lvpsim
{
namespace pipe
{

/// Slots of the per-component counters: one per ComponentId from LVP
/// to Other.
inline constexpr std::size_t kComponentSlots = 5;

/**
 * Counters of one run. Each one's results-JSON name, unit and meaning
 * are registered once, in counters() (sim_stats.cc).
 */
struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    std::uint64_t loads = 0;
    std::uint64_t eligibleLoads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;

    std::uint64_t predictionsMade = 0;
    std::uint64_t predictionsUsed = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;
    std::uint64_t paqProbes = 0;
    std::uint64_t paqMisses = 0;
    std::uint64_t paqDropsFull = 0;
    std::uint64_t paqConflictDrops = 0;

    /// Index = ComponentId.
    std::array<std::uint64_t, kComponentSlots> usedByComponent{};
    std::array<std::uint64_t, kComponentSlots> wrongByComponent{};

    std::uint64_t vpFlushes = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t squashedOps = 0;

    /// High-water marks, not event counts.
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

    /** Every counter, then every derived metric, one aligned row
     *  each. */
    void dump(std::ostream &os) const;

    bool operator==(const SimStats &) const = default;
};

/** How a counter combines across the representatives of a sampled
 *  run (sim::runSampled): an event count scales with the
 *  instructions each one stands for and adds up; a high-water gauge
 *  takes the largest reading. */
enum class Aggregation
{
    WeightedSum,
    Max,
};

/**
 * One raw counter of SimStats: its name in results JSON and in
 * snapshots, its unit, a one-line meaning and how sampled runs
 * aggregate it. The "Stats object"
 * table of docs/results_schema.md is generated from counters() and
 * kDerivedMetrics (tests/test_results_json.cc), so a counter
 * is documented where it is registered.
 */
struct CounterInfo
{
    std::string name;
    std::string_view unit;
    std::string meaning;
    Aggregation aggregation = Aggregation::WeightedSum;
    /// A scalar member, or element `component` of a per-component
    /// array (exactly one of the two pointers is set).
    std::uint64_t SimStats::*scalar = nullptr;
    std::array<std::uint64_t, kComponentSlots> SimStats::*perComponent =
        nullptr;
    std::size_t component = 0;

    std::uint64_t &
    value(SimStats &s) const
    {
        return scalar ? s.*scalar : (s.*perComponent)[component];
    }
    std::uint64_t
    value(const SimStats &s) const
    {
        return scalar ? s.*scalar : (s.*perComponent)[component];
    }
};

/**
 * Every raw counter in its fixed order: the scalars, then the
 * per-component counters, one per kComponentSlots index. The only
 * list of counter names; serialization (results JSON, snapshots,
 * sampled extrapolation) iterates it instead of keeping its own.
 */
const std::vector<CounterInfo> &counters();

/** A metric recomputed from the counters. Written after them, never
 *  read back. */
struct DerivedMetric
{
    std::string_view name;
    std::string_view unit;
    std::string_view meaning;
    double (SimStats::*value)() const;
};

/** The derived metrics, in the order dump() and results JSON write
 *  them. */
extern const std::array<DerivedMetric, 3> kDerivedMetrics;

/** Visit every raw counter of `s` as a (name, value) pair, in
 *  counters() order. */
void forEachCounter(
    const SimStats &s,
    const std::function<void(std::string_view, std::uint64_t)> &fn);

/** Set one counter by its counters() name. False if unknown. */
bool setCounter(SimStats &s, std::string_view name, std::uint64_t v);

} // namespace pipe
} // namespace lvpsim

