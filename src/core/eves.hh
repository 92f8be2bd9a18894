/**
 * @file
 * EVES: the winner of the first Championship Value Prediction
 * (Seznec, CVP-1 [4]), reimplemented as a load-only predictor for the
 * paper's Section V-G comparison. EVES combines
 *
 *   - E-Stride: a stride *value* predictor over the last retired
 *     value, accounting for in-flight occurrences of the load, and
 *   - E-VTAGE: a VTAGE-style context value predictor (untagged base
 *     table + geometric tagged tables) with usefulness-guided
 *     allocation.
 *
 * Both produce value (not address) predictions; high confidence is
 * required before predicting, as in the original.
 */

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "branch/history.hh"
#include "common/flat_map.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/tagged_table.hh"
#include "core/lvp_interface.hh"

namespace lvpsim
{
namespace vp
{

struct EvesConfig
{
    std::size_t strideEntries = 512;
    std::size_t baseEntries = 512;
    std::size_t taggedEntries = 256; ///< per tagged table
    unsigned numTagged = 6;
    unsigned minHist = 2;   ///< history events, shortest tagged table
    unsigned maxHist = 64;
    unsigned strideConfThreshold = 7; ///< effective 64 observations
    unsigned vtageConfThreshold = 4;  ///< effective ~16 observations
    std::uint64_t seed = 0xe7e5;

    /** Roughly 8KB of prediction state. */
    static EvesConfig
    small8k()
    {
        EvesConfig c;
        c.strideEntries = 128;
        c.baseEntries = 256;
        c.taggedEntries = 64;
        return c;
    }

    /** Roughly 32KB of prediction state. */
    static EvesConfig
    large32k()
    {
        EvesConfig c;
        c.strideEntries = 512;
        c.baseEntries = 1024;
        c.taggedEntries = 256;
        return c;
    }

    /** Effectively unbounded tables (limit study). */
    static EvesConfig
    infinite()
    {
        EvesConfig c;
        c.strideEntries = 1u << 17;
        c.baseEntries = 1u << 17;
        c.taggedEntries = 1u << 16;
        return c;
    }
};

class EvesPredictor : public pipe::LoadValuePredictor
{
  public:
    explicit EvesPredictor(const EvesConfig &cfg = EvesConfig{});

    pipe::Prediction predict(const pipe::LoadProbe &probe) override;
    void train(const pipe::LoadOutcome &outcome) override;
    void abandon(std::uint64_t token) override;
    void notifyBranch(Addr pc, bool taken, Addr target) override;
    std::uint64_t storageBits() const override;
    const char *name() const override { return "eves"; }

  private:
    /** Push one history bit and shift every fold with it. */
    void pushHistoryBit(unsigned in);

    // ---- E-Stride ----------------------------------------------------
    struct StrideEntry
    {
        Value lastValue = 0;
        std::int64_t stride = 0;
        bool seenOnce = false;
        FpcCounter conf;
    };

    // ---- E-VTAGE -----------------------------------------------------
    struct BaseEntry
    {
        Value value = 0;
        FpcCounter conf;
    };

    struct TaggedEntry
    {
        Value value = 0;
        FpcCounter conf;
        std::uint8_t useful = 0;
    };

    struct Snapshot
    {
        std::vector<std::uint64_t> idx;
        std::vector<std::uint64_t> tag;
        int provider = -1; ///< tagged table index, -1 = base
    };

    std::uint64_t taggedIndex(Addr pc, unsigned t) const;
    std::uint64_t taggedTag(Addr pc, unsigned t) const;

    EvesConfig cfg;
    Xoshiro256 rng;

    TaggedTable<StrideEntry> strideTable;
    std::vector<BaseEntry> base;
    std::vector<TaggedTable<TaggedEntry>> tagged;
    std::vector<unsigned> histLen;
    std::vector<branch::FoldedHistory> foldIdx;
    std::vector<branch::FoldedHistory> foldTag;
    branch::HistoryRing ring;
    std::uint64_t pathHist = 0;

    // Flat like every other per-token map; note the Snapshot's
    // history vectors still allocate per probe (EVES is a comparison
    // baseline, not hot-path).
    FlatMap<std::uint64_t, Snapshot> snapshots;
};

} // namespace vp
} // namespace lvpsim

