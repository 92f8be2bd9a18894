#include "pipeline/sim_stats.hh"

#include <iomanip>

#include "core/lvp_interface.hh"

namespace lvpsim
{
namespace pipe
{

namespace
{

struct Scalar
{
    std::string_view name;
    std::string_view unit;
    std::string_view meaning;
    std::uint64_t SimStats::*member;
    Aggregation aggregation = Aggregation::WeightedSum;
};

/** The scalar counters, in counters() order. */
constexpr Scalar kScalars[] = {
    {"cycles", "cycles", "core cycles", &SimStats::cycles},
    {"instructions", "instrs", "committed instructions",
     &SimStats::instructions},
    {"loads", "loads", "committed loads", &SimStats::loads},
    {"eligible_loads", "loads",
     "committed loads open to value prediction (not exclusive)",
     &SimStats::eligibleLoads},
    {"stores", "stores", "committed stores", &SimStats::stores},
    {"branches", "branches", "committed branches", &SimStats::branches},
    {"branch_mispredicts", "branches", "mispredicted branches",
     &SimStats::branchMispredicts},
    {"predictions_made", "predictions",
     "loads whose probe at fetch returned a value or an address",
     &SimStats::predictionsMade},
    {"predictions_used", "predictions",
     "eligible loads whose predicted value reached consumers",
     &SimStats::predictionsUsed},
    {"predictions_correct", "predictions", "correct used predictions",
     &SimStats::predictionsCorrect},
    {"predictions_wrong", "predictions",
     "wrong used predictions; each costs a flush",
     &SimStats::predictionsWrong},
    {"paq_probes", "probes", "L1D probes from the predicted-address queue",
     &SimStats::paqProbes},
    {"paq_misses", "probes", "PAQ probes that missed the L1D (dropped)",
     &SimStats::paqMisses},
    {"paq_drops_full", "predictions",
     "address predictions dropped because the PAQ was full",
     &SimStats::paqDropsFull},
    {"paq_conflict_drops", "probes",
     "PAQ probes dropped for an older unwritten store to the bytes",
     &SimStats::paqConflictDrops},
    {"vp_flushes", "flushes", "flushes after a wrong predicted value",
     &SimStats::vpFlushes},
    {"mem_order_flushes", "flushes",
     "flushes after a load passed an aliasing older store",
     &SimStats::memOrderFlushes},
    {"squashed_ops", "ops", "in-flight ops discarded by flushes",
     &SimStats::squashedOps},
    {"refetch_stash_peak", "entries",
     "peak size of the core's squashed-prediction stash (a high-water "
     "mark, bounded by the in-flight window; docs/performance.md)",
     &SimStats::refetchStashPeak, Aggregation::Max},
    {"vp_snapshots_peak", "entries",
     "peak count of the predictor's pending per-token snapshots (a "
     "high-water mark, bounded by the in-flight window)",
     &SimStats::vpSnapshotsPeak, Aggregation::Max},
    {"l1d_misses", "misses", "L1D misses", &SimStats::l1dMisses},
    {"l2_misses", "misses", "L2 misses", &SimStats::l2Misses},
};

struct PerComponent
{
    std::string_view prefix; ///< name = prefix + ComponentId index
    std::string_view unit;
    std::string_view meaning; ///< completed by the component's name
    std::array<std::uint64_t, kComponentSlots> SimStats::*member;
};

constexpr PerComponent kPerComponent[] = {
    {"used_by_component_", "predictions", "used predictions made by",
     &SimStats::usedByComponent},
    {"wrong_by_component_", "predictions",
     "wrong used predictions made by", &SimStats::wrongByComponent},
};

} // anonymous namespace

const std::array<DerivedMetric, 3> kDerivedMetrics = {{
    {"ipc", "instrs/cycle", "instructions per cycle", &SimStats::ipc},
    {"coverage", "ratio",
     "paper's coverage: share of eligible loads with a used prediction",
     &SimStats::coverage},
    {"accuracy", "ratio",
     "paper's accuracy: share of used predictions that were correct",
     &SimStats::accuracy},
}};

const std::vector<CounterInfo> &
counters()
{
    static const std::vector<CounterInfo> list = [] {
        std::vector<CounterInfo> l;
        for (const Scalar &c : kScalars)
            l.push_back({std::string(c.name), c.unit,
                         std::string(c.meaning), c.aggregation,
                         c.member});
        for (const PerComponent &f : kPerComponent) {
            for (std::size_t i = 0; i < kComponentSlots; ++i) {
                l.push_back({std::string(f.prefix) + std::to_string(i),
                             f.unit,
                             std::string(f.meaning) + " " +
                                 componentName(ComponentId(i)),
                             Aggregation::WeightedSum, nullptr, f.member,
                             i});
            }
        }
        return l;
    }();
    return list;
}

void
SimStats::dump(std::ostream &os) const
{
    const auto row = [&os](std::string_view name, auto v) {
        os << "  " << std::left << std::setw(26) << name << std::right
           << std::setw(14) << v << "\n";
    };
    os << std::fixed << std::setprecision(4);
    for (const CounterInfo &c : counters())
        row(c.name, c.value(*this));
    for (const DerivedMetric &d : kDerivedMetrics)
        row(d.name, (this->*d.value)());
}

void
forEachCounter(
    const SimStats &s,
    const std::function<void(std::string_view, std::uint64_t)> &fn)
{
    for (const CounterInfo &c : counters())
        fn(c.name, c.value(s));
}

bool
setCounter(SimStats &s, std::string_view name, std::uint64_t v)
{
    for (const CounterInfo &c : counters()) {
        if (c.name == name) {
            c.value(s) = v;
            return true;
        }
    }
    return false;
}

} // namespace pipe
} // namespace lvpsim
