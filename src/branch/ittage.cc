#include "branch/ittage.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace lvpsim
{
namespace branch
{

std::uint64_t
IttageConfig::storageBits() const
{
    const std::uint64_t target_bits = 49;
    const std::uint64_t base_bits =
        (std::uint64_t(1) << logBase) * target_bits;
    const std::uint64_t entry_bits = tagBits + target_bits + 2 + 1;
    return base_bits +
           std::uint64_t(numTables) * (std::uint64_t(1) << logTagged) *
               entry_bits;
}

Ittage::Ittage(const IttageConfig &config, std::uint64_t seed)
    : cfg(config)
{
    st.rng = Xoshiro256(seed);
    st.base.assign(std::size_t(1) << cfg.logBase, 0);
    st.tables.assign(cfg.numTables, {});
    for (auto &t : st.tables)
        t.assign(std::size_t(1) << cfg.logTagged, Entry{});

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
               "ITTAGE history length %u exceeds the history ring",
               histLen.empty() ? 0 : histLen.back());
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        st.foldIdx.emplace_back(histLen[t], cfg.logTagged);
        st.foldTag.emplace_back(histLen[t], cfg.tagBits);
    }
}

unsigned
Ittage::tableIndex(Addr pc, unsigned t) const
{
    const std::uint64_t h =
        (pc >> 2) ^ (pc >> (cfg.logTagged + 2)) ^ st.foldIdx[t].value();
    return unsigned(h & mask(cfg.logTagged));
}

std::uint16_t
Ittage::tableTag(Addr pc, unsigned t) const
{
    const std::uint64_t h =
        (pc >> 2) ^ st.foldTag[t].value() ^ (st.foldTag[t].value() << 1);
    return std::uint16_t(h & mask(cfg.tagBits));
}

Addr
Ittage::predict(Addr pc)
{
    ++st.numLookups;
    st.lastPc = pc;
    st.providerTable = -1;
    st.lastPrediction = st.base[(pc >> 2) & mask(cfg.logBase)];

    for (int t = int(cfg.numTables) - 1; t >= 0; --t) {
        const Entry &e = st.tables[t][tableIndex(pc, t)];
        if (e.valid && e.tag == tableTag(pc, t)) {
            st.providerTable = t;
            if (e.conf >= 1 || st.lastPrediction == 0)
                st.lastPrediction = e.target;
            break;
        }
    }
    return st.lastPrediction;
}

void
Ittage::update(Addr pc, Addr target)
{
    lvp_assert(pc == st.lastPc, "update without matching predict");
    const bool correct = st.lastPrediction == target;
    if (!correct)
        ++st.numMispredicts;

    if (st.providerTable >= 0) {
        Entry &e =
            st.tables[st.providerTable][tableIndex(pc, st.providerTable)];
        if (e.target == target) {
            if (e.conf < 3)
                ++e.conf;
            e.useful = correct ? 1 : e.useful;
        } else if (e.conf > 0) {
            --e.conf;
        } else {
            e.target = target;
            e.conf = 0;
        }
    }
    st.base[(pc >> 2) & mask(cfg.logBase)] = target;

    if (!correct && st.providerTable < int(cfg.numTables) - 1) {
        for (int t = st.providerTable + 1; t < int(cfg.numTables); ++t) {
            Entry &e = st.tables[t][tableIndex(pc, t)];
            if (!e.valid || e.useful == 0) {
                e.valid = true;
                e.tag = tableTag(pc, t);
                e.target = target;
                e.conf = 1;
                e.useful = 0;
                break;
            }
        }
    }

    // Advance history with two hashed target bits so that any pair of
    // distinct targets perturbs the folded histories (raw low target
    // bits are often identical across aligned handlers).
    const std::uint64_t h = mix64(target);
    pushHistoryBit(unsigned(h & 1));
    pushHistoryBit(unsigned((h >> 1) & 1));
}

void
Ittage::pushHistoryBit(unsigned in)
{
    st.ring.push(in);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const unsigned out = st.ring.at(histLen[t]);
        st.foldIdx[t].shift(in, out);
        st.foldTag[t].shift(in, out);
    }
}

} // namespace branch
} // namespace lvpsim
