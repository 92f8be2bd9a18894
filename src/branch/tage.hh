/**
 * @file
 * TAGE conditional branch predictor (Seznec & Michaud), the baseline
 * core's direction predictor (paper Table III: "state-of-art 32KB TAGE").
 *
 * Bimodal base + N partially tagged tables indexed with geometrically
 * increasing history lengths. The simulator drives it trace-style:
 * predict(pc) then update(pc, taken) in fetch order.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "branch/history.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace branch
{

struct TageConfig
{
    unsigned numTables = 6;
    unsigned logBase = 13;       ///< bimodal entries = 2^logBase
    unsigned logTagged = 10;     ///< entries per tagged table
    unsigned tagBits = 12;
    unsigned minHist = 5;
    unsigned maxHist = 130;
    unsigned counterBits = 3;
    unsigned usefulBits = 2;

    /** Total storage in bits. */
    std::uint64_t storageBits() const;
};

class Tage
{
  public:
    explicit Tage(const TageConfig &cfg = TageConfig{},
                  std::uint64_t seed = 0x7a9e);

    /** Predict direction using the current global history. */
    bool predict(Addr pc);

    /**
     * Train with the true outcome and advance the history. Must follow
     * the matching predict() call (trace order).
     */
    void update(Addr pc, bool taken);

    /** Advance history for a branch that was not predicted by TAGE. */
    void updateHistoryOnly(Addr pc, bool taken);

    std::uint64_t lookups() const { return st.numLookups; }
    std::uint64_t mispredicts() const { return st.numMispredicts; }

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;     ///< signed; taken if >= 0
        std::uint8_t useful = 0;
        bool valid = false;

        template <class V>
        void
        fields(V &v)
        {
            v(tag, ctr, useful, valid);
        }
    };

  public:
    /** Mutable state only; table geometry comes from the config. */
    struct State
    {
        std::vector<std::int8_t> base; ///< 2-bit bimodal, taken if >= 0
        std::vector<std::vector<TaggedEntry>> tables;
        std::vector<FoldedHistory> foldIdx;
        std::vector<FoldedHistory> foldTag1;
        std::vector<FoldedHistory> foldTag2;
        HistoryRing ring;
        std::uint64_t pathHist = 0;
        Xoshiro256 rng;

        // Prediction state carried from predict() to update(). The
        // table indices are 64-bit because the snapshot format is.
        std::int64_t providerTable = -1;
        std::int64_t altTable = -1;
        bool providerPred = false;
        bool altPred = false;
        bool lastPrediction = false;
        Addr lastPc = 0;

        std::uint64_t numLookups = 0;
        std::uint64_t numMispredicts = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(base, tables, foldIdx, foldTag1, foldTag2, ring, pathHist,
              rng, providerTable, altTable, providerPred, altPred,
              lastPrediction, lastPc, numLookups, numMispredicts);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    unsigned tableIndex(Addr pc, unsigned t) const;
    std::uint16_t tableTag(Addr pc, unsigned t) const;
    void pushHistory(Addr pc, bool taken);

    // lvplint: allow(state-snapshot) -- construction-time config, immutable
    TageConfig cfg;
    // lvplint: allow(state-snapshot) -- derived from cfg, immutable
    std::vector<unsigned> histLen;
    State st;
};

} // namespace branch
} // namespace lvpsim

