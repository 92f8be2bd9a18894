#include "pipeline/sim_stats.hh"

#include <iomanip>
#include <string>

namespace lvpsim
{
namespace pipe
{

void
SimStats::dump(std::ostream &os) const
{
    const auto row = [&os](std::string_view name, auto v) {
        os << "  " << std::left << std::setw(26) << name << std::right
           << std::setw(14) << v << "\n";
    };
    os << std::fixed << std::setprecision(4);
    forEachCounter(*this, row);
    row("ipc", ipc());
    row("coverage", coverage());
    row("accuracy", accuracy());
}

namespace
{

/** One row per scalar counter: keeps forEachCounter / setCounter in
 *  lockstep. */
template <typename StatsT, typename Fn>
void
visitScalars(StatsT &s, Fn &&fn)
{
    fn("cycles", s.cycles);
    fn("instructions", s.instructions);
    fn("loads", s.loads);
    fn("eligible_loads", s.eligibleLoads);
    fn("stores", s.stores);
    fn("branches", s.branches);
    fn("branch_mispredicts", s.branchMispredicts);
    fn("predictions_made", s.predictionsMade);
    fn("predictions_used", s.predictionsUsed);
    fn("predictions_correct", s.predictionsCorrect);
    fn("predictions_wrong", s.predictionsWrong);
    fn("paq_probes", s.paqProbes);
    fn("paq_misses", s.paqMisses);
    fn("paq_drops_full", s.paqDropsFull);
    fn("paq_conflict_drops", s.paqConflictDrops);
    fn("vp_flushes", s.vpFlushes);
    fn("mem_order_flushes", s.memOrderFlushes);
    fn("squashed_ops", s.squashedOps);
    fn("refetch_stash_peak", s.refetchStashPeak);
    fn("vp_snapshots_peak", s.vpSnapshotsPeak);
    fn("l1d_misses", s.l1dMisses);
    fn("l2_misses", s.l2Misses);
}

std::string
componentCounterName(const char *prefix, std::size_t i)
{
    return std::string(prefix) + std::to_string(i);
}

} // anonymous namespace

void
forEachCounter(
    const SimStats &s,
    const std::function<void(std::string_view, std::uint64_t)> &fn)
{
    visitScalars(s, [&](std::string_view name, std::uint64_t v) {
        fn(name, v);
    });
    for (std::size_t i = 0; i < s.usedByComponent.size(); ++i)
        fn(componentCounterName("used_by_component_", i),
           s.usedByComponent[i]);
    for (std::size_t i = 0; i < s.wrongByComponent.size(); ++i)
        fn(componentCounterName("wrong_by_component_", i),
           s.wrongByComponent[i]);
}

bool
setCounter(SimStats &s, std::string_view name, std::uint64_t v)
{
    bool found = false;
    visitScalars(s, [&](std::string_view n, std::uint64_t &field) {
        if (n == name) {
            field = v;
            found = true;
        }
    });
    if (found)
        return true;
    for (std::size_t i = 0; i < s.usedByComponent.size(); ++i) {
        if (name == componentCounterName("used_by_component_", i)) {
            s.usedByComponent[i] = v;
            return true;
        }
        if (name == componentCounterName("wrong_by_component_", i)) {
            s.wrongByComponent[i] = v;
            return true;
        }
    }
    return false;
}

} // namespace pipe
} // namespace lvpsim
