#include "branch/tage.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace lvpsim
{
namespace branch
{

std::uint64_t
TageConfig::storageBits() const
{
    const std::uint64_t base_bits = (std::uint64_t(1) << logBase) * 2;
    const std::uint64_t entry_bits =
        tagBits + counterBits + usefulBits;
    return base_bits +
           std::uint64_t(numTables) * (std::uint64_t(1) << logTagged) *
               entry_bits;
}

Tage::Tage(const TageConfig &config, std::uint64_t seed)
    : cfg(config)
{
    st.rng = Xoshiro256(seed);
    st.base.assign(std::size_t(1) << cfg.logBase, 0);
    st.tables.assign(cfg.numTables, {});
    for (auto &t : st.tables)
        t.assign(std::size_t(1) << cfg.logTagged, TaggedEntry{});

    // Geometric history lengths between minHist and maxHist.
    histLen.resize(cfg.numTables);
    const double ratio =
        std::pow(double(cfg.maxHist) / cfg.minHist,
                 1.0 / std::max(1u, cfg.numTables - 1));
    double len = cfg.minHist;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        histLen[t] = std::max<unsigned>(1, unsigned(len + 0.5));
        if (t > 0 && histLen[t] <= histLen[t - 1])
            histLen[t] = histLen[t - 1] + 1;
        len *= ratio;
    }

    lvp_assert(histLen.empty() || histLen.back() < st.ring.capacity(),
               "TAGE history length %u exceeds the history ring",
               histLen.empty() ? 0 : histLen.back());
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        st.foldIdx.emplace_back(histLen[t], cfg.logTagged);
        st.foldTag1.emplace_back(histLen[t], cfg.tagBits);
        st.foldTag2.emplace_back(histLen[t], cfg.tagBits - 1);
    }
}

unsigned
Tage::tableIndex(Addr pc, unsigned t) const
{
    const std::uint64_t h = (pc >> 2) ^ (pc >> (cfg.logTagged + 2)) ^
                            st.foldIdx[t].value() ^
                            (st.pathHist & mask(std::min(16u, histLen[t])));
    return unsigned(h & mask(cfg.logTagged));
}

std::uint16_t
Tage::tableTag(Addr pc, unsigned t) const
{
    const std::uint64_t h = (pc >> 2) ^ st.foldTag1[t].value() ^
                            (std::uint64_t(st.foldTag2[t].value()) << 1);
    return std::uint16_t(h & mask(cfg.tagBits));
}

bool
Tage::predict(Addr pc)
{
    ++st.numLookups;
    st.lastPc = pc;
    st.providerTable = -1;
    st.altTable = -1;

    const bool base_pred =
        st.base[(pc >> 2) & mask(cfg.logBase)] >= 0;

    for (int t = int(cfg.numTables) - 1; t >= 0; --t) {
        const TaggedEntry &e = st.tables[t][tableIndex(pc, t)];
        if (e.valid && e.tag == tableTag(pc, t)) {
            if (st.providerTable < 0) {
                st.providerTable = t;
                st.providerPred = e.ctr >= 0;
            } else if (st.altTable < 0) {
                st.altTable = t;
                st.altPred = e.ctr >= 0;
                break;
            }
        }
    }
    if (st.altTable < 0)
        st.altPred = base_pred;

    st.lastPrediction = st.providerTable >= 0 ? st.providerPred : base_pred;
    return st.lastPrediction;
}

void
Tage::pushHistory(Addr pc, bool taken)
{
    const unsigned in = taken ? 1 : 0;
    st.ring.push(in);
    st.pathHist = (st.pathHist << 1) | ((pc >> 2) & 1);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const unsigned out = st.ring.at(histLen[t]);
        st.foldIdx[t].shift(in, out);
        st.foldTag1[t].shift(in, out);
        st.foldTag2[t].shift(in, out);
    }
}

void
Tage::updateHistoryOnly(Addr pc, bool taken)
{
    pushHistory(pc, taken);
}

void
Tage::update(Addr pc, bool taken)
{
    lvp_assert(pc == st.lastPc, "update without matching predict");
    if (st.lastPrediction != taken)
        ++st.numMispredicts;

    auto bump = [](std::int8_t &c, bool up, int lo, int hi) {
        if (up && c < hi)
            ++c;
        else if (!up && c > lo)
            --c;
    };

    const int cmax = (1 << (cfg.counterBits - 1)) - 1;
    const int cmin = -(1 << (cfg.counterBits - 1));
    const unsigned umax = (1u << cfg.usefulBits) - 1;

    if (st.providerTable >= 0) {
        TaggedEntry &e =
            st.tables[st.providerTable][tableIndex(pc, st.providerTable)];
        // Useful counter: provider differed from alt and was right(+)
        // or wrong(-).
        if (st.providerPred != st.altPred) {
            if (st.providerPred == taken) {
                if (e.useful < umax)
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
        bump(e.ctr, taken, cmin, cmax);
    } else {
        std::int8_t &c = st.base[(pc >> 2) & mask(cfg.logBase)];
        bump(c, taken, -2, 1); // 2-bit bimodal
    }

    // Allocate a new entry on a misprediction, in a longer table.
    if (st.lastPrediction != taken &&
        st.providerTable < int(cfg.numTables) - 1) {
        // Gather longer tables with a free (useful == 0) entry.
        int start = st.providerTable + 1;
        // Probabilistically skip ahead to spread allocations.
        if (start < int(cfg.numTables) - 1 && st.rng.bernoulli(0.5))
            start += st.rng.below(2);
        bool allocated = false;
        for (int t = start; t < int(cfg.numTables); ++t) {
            TaggedEntry &e = st.tables[t][tableIndex(pc, t)];
            if (!e.valid || e.useful == 0) {
                e.valid = true;
                e.tag = tableTag(pc, t);
                e.ctr = taken ? 0 : -1; // weak
                e.useful = 0;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // Aging: decay useful bits on the failed path.
            for (int t = start; t < int(cfg.numTables); ++t) {
                TaggedEntry &e = st.tables[t][tableIndex(pc, t)];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    pushHistory(pc, taken);
}

} // namespace branch
} // namespace lvpsim
