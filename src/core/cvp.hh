/**
 * @file
 * CVP: Context-aware Context Value Predictor (paper Section III-B.2).
 *
 * A VTAGE-like predictor with three tagged tables (no untagged
 * last-value table), each indexed by a hash of the load PC and a
 * geometric sample of the branch path history. Entries are 81 bits
 * (14-bit tag, 64-bit value, 3-bit FPC confidence); the threshold of
 * 4 corresponds to ~16 consecutive observations.
 *
 * Because training happens at retirement with a later history, the
 * fetch-time indices/tags are snapshotted per probe token.
 */

#pragma once

#include <array>

#include "branch/history.hh"
#include "common/bitutils.hh"
#include "common/flat_map.hh"
#include "common/random.hh"
#include "common/tagged_table.hh"
#include "core/component.hh"
#include "core/value_store.hh"
#include "core/vp_params.hh"

namespace lvpsim
{
namespace vp
{

class Cvp : public ComponentPredictor
{
  public:
    static constexpr unsigned numTables = 3;

    /**
     * @param entries total entries across the three tables, split
     * {1/2, 1/4, 1/4} (shortest history gets the largest table, as in
     * VTAGE) and rounded down to powers of two. Folded-history
     * indices only distribute well over power-of-two tables: the
     * fold values of a periodic branch sequence are structurally
     * related, and a modulo by an arbitrary size can alias whole
     * context families onto each other.
     */
    explicit Cvp(std::size_t entries, std::uint64_t seed = 0xc4b,
                 unsigned conf_threshold = cvpConfThreshold,
                 ValueStore *value_store = nullptr)
        : ComponentPredictor(pipe::ComponentId::CVP), rng(seed),
          confThreshold(conf_threshold),
          values(value_store ? value_store : &inlineValues)
    {
        if (entries >= 4) {
            auto pow2floor = [](std::size_t x) {
                return std::size_t(1) << log2i(x);
            };
            const std::size_t sizes[numTables] = {
                pow2floor(entries / 2), pow2floor(entries / 4),
                pow2floor(entries / 4)};
            for (unsigned t = 0; t < numTables; ++t) {
                tables[t].configure(sizes[t], 1);
                // Two history events (bits) are pushed per branch.
                const unsigned bits = 2 * cvpHistLengths[t];
                foldIdx.emplace_back(bits,
                                     std::max(1u, ceilLog2(sizes[t])));
                foldTag1.emplace_back(bits, tagBits);
                foldTag2.emplace_back(bits, tagBits - 1);
            }
            configured = true;
        }
        snapshots.reserve(512); // in-flight window; see composite
    }

    ComponentPrediction
    lookup(const pipe::LoadProbe &p) override
    {
        ComponentPrediction cp;
        if (disabled())
            return cp;
        Snapshot snap;
        for (unsigned t = 0; t < numTables; ++t) {
            snap.idx[t] = index(p.pc, t);
            snap.tag[t] = tag(p.pc, t);
        }
        // Longest history first.
        for (int t = numTables - 1; t >= 0; --t) {
            const auto *way =
                tables[t].lookup(snap.idx[t], snap.tag[t]);
            if (way && way->payload.conf.atLeast(confThreshold)) {
                if (auto v = values->load(way->payload.value)) {
                    cp.confident = true;
                    cp.pred.kind = pipe::Prediction::Kind::Value;
                    cp.pred.value = *v;
                    cp.pred.component = id();
                    break;
                }
            }
        }
        snapshots[p.token] = snap;
        return cp;
    }

    void
    train(const pipe::LoadOutcome &o) override
    {
        auto it = snapshots.find(o.token);
        if (it == snapshots.end())
            return; // probed while disabled (donor)
        const Snapshot snap = it->second;
        snapshots.erase(it);
        if (disabled())
            return;
        // All three tables train like LVP (paper Section III-B.2).
        for (unsigned t = 0; t < numTables; ++t) {
            bool hit = false;
            auto &way =
                tables[t].allocate(snap.idx[t], snap.tag[t], &hit);
            const auto current = values->load(way.payload.value);
            if (hit && current && *current == o.value) {
                way.payload.conf.increment(cvpFpc(), rng);
            } else {
                way.payload.value = values->store(o.value);
                way.payload.conf.reset();
            }
        }
    }

    void abandon(std::uint64_t token) override { snapshots.erase(token); }

    void
    notifyBranch(Addr pc, bool taken, Addr target) override
    {
        (void)target;
        if (!configured)
            return;
        // Raw path register (TAGE's "phist"): folded histories of a
        // periodic branch sequence can collapse to a handful of
        // values, so the index also mixes in unfolded recent path
        // bits, exactly as TAGE does.
        pathHist = (pathHist << 2) | (taken ? 2 : 0) |
                   ((pc >> 2) & 1);
        pushHistoryBit(taken ? 1 : 0);
        pushHistoryBit(unsigned((pc >> 2) & 1));
    }

    void
    donateTable() override
    {
        donor = true;
        for (auto &t : tables)
            t.flushAll();
    }
    void
    receiveWays(unsigned donor_tables) override
    {
        if (configured)
            for (auto &t : tables)
                t.setWays(1 + donor_tables);
    }
    void
    unfuse() override
    {
        if (donor) {
            donor = false;
            for (auto &t : tables)
                t.flushAll();
        } else if (configured) {
            for (auto &t : tables)
                t.setWays(1);
        }
    }
    bool isDonor() const override { return donor; }

    void
    visitConfidences(
        const std::function<void(unsigned, unsigned)> &fn)
        const override
    {
        for (const auto &t : tables)
            t.forEachValid([&](const auto &w) {
                fn(w.payload.conf.value(), cvpFpc().maxLevel());
            });
    }

    std::uint64_t
    storageBits() const override
    {
        return std::uint64_t(numEntries()) * entryBits();
    }
    std::size_t
    numEntries() const override
    {
        if (!configured)
            return 0;
        std::size_t n = 0;
        for (const auto &t : tables)
            n += t.numSets();
        return n;
    }
    unsigned
    entryBits() const override
    {
        return tagBits + cvpConfBits + values->refBits();
    }

  private:
    struct Entry
    {
        ValueStore::Ref value{};
        FpcCounter conf;
    };

    struct Snapshot
    {
        std::array<std::uint64_t, numTables> idx{};
        std::array<std::uint64_t, numTables> tag{};
    };

    bool disabled() const { return donor || !configured; }

    void
    pushHistoryBit(unsigned bit)
    {
        ring.push(bit);
        for (unsigned t = 0; t < numTables; ++t) {
            const unsigned out = ring.at(2 * cvpHistLengths[t]);
            foldIdx[t].shift(bit, out);
            foldTag1[t].shift(bit, out);
            foldTag2[t].shift(bit, out);
        }
    }

    std::uint64_t
    index(Addr pc, unsigned t) const
    {
        // The folded history and the raw path are both GF(2)-linear
        // functions of the same window bits; on loopy code their XOR
        // can collapse into a small subspace and alias whole context
        // families. A nonlinear finalizer keeps distinct contexts in
        // distinct slots (the inputs are distinct; only the mixing
        // must be non-degenerate).
        const unsigned raw_bits =
            std::min(2 * cvpHistLengths[t], 20u);
        return mix64((pc >> 2) ^
                     (std::uint64_t(foldIdx[t].value()) << 24) ^
                     (pathHist & mask(raw_bits)) ^
                     (std::uint64_t(t) << 56));
    }

    std::uint64_t
    tag(Addr pc, unsigned t) const
    {
        return ((pc >> 2) ^ (pc >> 16) ^ foldTag1[t].value() ^
                (std::uint64_t(foldTag2[t].value()) << 1)) &
               mask(tagBits);
    }

    std::array<TaggedTable<Entry>, numTables> tables;
    std::vector<branch::FoldedHistory> foldIdx;
    std::vector<branch::FoldedHistory> foldTag1;
    std::vector<branch::FoldedHistory> foldTag2;
    branch::HistoryRing ring;
    std::uint64_t pathHist = 0;
    FlatMap<std::uint64_t, Snapshot> snapshots;
    Xoshiro256 rng;
    unsigned confThreshold;
    InlineValueStore inlineValues;
    ValueStore *values;
    bool configured = false;
    bool donor = false;
};

} // namespace vp
} // namespace lvpsim

