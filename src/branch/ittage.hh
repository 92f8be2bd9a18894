/**
 * @file
 * ITTAGE indirect-target predictor (paper Table III baseline: "32KB
 * ITTAGE"). Same TAGE skeleton, but entries hold a full target and a
 * 2-bit hysteresis counter.
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

struct IttageConfig
{
    unsigned numTables = 4;
    unsigned logBase = 9;      ///< direct-mapped base target cache
    unsigned logTagged = 8;
    unsigned tagBits = 11;
    unsigned minHist = 4;
    unsigned maxHist = 64;

    std::uint64_t storageBits() const;
};

class Ittage
{
  public:
    explicit Ittage(const IttageConfig &cfg = IttageConfig{},
                    std::uint64_t seed = 0x177a9e);

    /** Predict the target; returns 0 if no prediction available. */
    Addr predict(Addr pc);

    /** Train with the true target and advance history (trace order). */
    void update(Addr pc, Addr target);

    std::uint64_t lookups() const { return st.numLookups; }
    std::uint64_t mispredicts() const { return st.numMispredicts; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Addr target = 0;
        std::uint8_t conf = 0;   ///< 2-bit
        std::uint8_t useful = 0; ///< 1-bit

        template <class V>
        void
        fields(V &v)
        {
            v(valid, tag, target, conf, useful);
        }
    };

  public:
    /** Mutable state only; table geometry comes from the config. */
    struct State
    {
        std::vector<Addr> base;
        std::vector<std::vector<Entry>> tables;
        std::vector<FoldedHistory> foldIdx;
        std::vector<FoldedHistory> foldTag;
        HistoryRing ring;
        Xoshiro256 rng;

        std::int64_t providerTable = -1; ///< 64-bit, as in the snapshot
        Addr lastPrediction = 0;
        Addr lastPc = 0;

        std::uint64_t numLookups = 0;
        std::uint64_t numMispredicts = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(base, tables, foldIdx, foldTag, ring, rng, providerTable,
              lastPrediction, lastPc, numLookups, numMispredicts);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    unsigned tableIndex(Addr pc, unsigned t) const;
    std::uint16_t tableTag(Addr pc, unsigned t) const;
    void pushHistoryBit(unsigned in);

    // lvplint: allow(state-snapshot) -- construction-time config, immutable
    IttageConfig cfg;
    // lvplint: allow(state-snapshot) -- derived from cfg, immutable
    std::vector<unsigned> histLen;
    State st;
};

} // namespace branch
} // namespace lvpsim

