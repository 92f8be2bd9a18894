/**
 * @file
 * Accuracy Monitors (paper Section V-B): throttle an entire component
 * predictor when it is mispredicting too much.
 *
 *  - M-AM: per-component misprediction rate over an execution epoch;
 *    a component above 3 MPKP (mispredictions per kilo-predictions)
 *    is silenced for the next epoch. Silenced predictors still train.
 *  - PC-AM: a small direct-mapped, PC-indexed and PC-tagged table of
 *    per-component correct/incorrect counters; a component is silenced
 *    for a PC when its accuracy there drops below 95%. Entries are
 *    allocated when a value-predicted load mispredicts (flushes), and
 *    updated by every value-predicted load with an entry, for all
 *    confident components.
 *  - PcAmInfinite: PC-AM with unbounded entries (limit study).
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutils.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace vp
{

constexpr unsigned numComponents = 4;

/**
 * Per-component correctness of a retired, value-predicted load:
 * -1 = component was not confident, 0 = confident and wrong,
 *  1 = confident and correct.
 */
using ComponentCorrectness = std::array<int, numComponents>;

class AccuracyMonitor
{
  public:
    virtual ~AccuracyMonitor() = default;

    /** Should component @p c's confident prediction for @p pc be
     *  squashed? Checked at prediction (fetch) time. */
    virtual bool silenced(unsigned c, Addr pc) const = 0;

    /** A load with at least one confident component retired. */
    virtual void recordOutcome(Addr pc,
                               const ComponentCorrectness &cc) = 0;

    /** A used prediction was wrong and triggered a flush. */
    virtual void recordFlush(Addr pc) = 0;

    /** @p n more instructions retired (epoch machinery). */
    virtual void onRetire(std::uint64_t n) { (void)n; }

    virtual std::uint64_t storageBits() const = 0;
    virtual const char *name() const = 0;
};

/** M-AM: epoch-based whole-component silencing. */
class MAm : public AccuracyMonitor
{
  public:
    explicit MAm(std::uint64_t epoch_instrs = 1000000,
                 double threshold_mpkp = 3.0)
        : epochInstrs(epoch_instrs), thresholdMpkp(threshold_mpkp)
    {}

    bool
    silenced(unsigned c, Addr) const override
    {
        return silencedFlag[c];
    }

    void
    recordOutcome(Addr, const ComponentCorrectness &cc) override
    {
        for (unsigned c = 0; c < numComponents; ++c) {
            if (cc[c] < 0)
                continue;
            ++preds[c];
            if (cc[c] == 0)
                ++mispreds[c];
        }
    }

    void recordFlush(Addr) override {}

    void
    onRetire(std::uint64_t n) override
    {
        retired += n;
        if (retired < epochInstrs)
            return;
        retired = 0;
        for (unsigned c = 0; c < numComponents; ++c) {
            const double mpkp =
                preds[c] ? 1000.0 * double(mispreds[c]) /
                               double(preds[c])
                         : 0.0;
            silencedFlag[c] = mpkp > thresholdMpkp;
            preds[c] = 0;
            mispreds[c] = 0;
        }
    }

    std::uint64_t
    storageBits() const override
    {
        // Two 32-bit counters per component plus the silence bits.
        return numComponents * (2 * 32 + 1);
    }

    const char *name() const override { return "M-AM"; }

  private:
    std::uint64_t epochInstrs;
    double thresholdMpkp;
    std::uint64_t retired = 0;
    std::array<std::uint64_t, numComponents> preds{};
    std::array<std::uint64_t, numComponents> mispreds{};
    std::array<bool, numComponents> silencedFlag{};
};

/** PC-AM: per-PC, per-component accuracy tracking. */
class PcAm : public AccuracyMonitor
{
  public:
    /** @param entries table entries; 0 = infinite (map-backed). */
    explicit PcAm(std::size_t entries = 64,
                  double accuracy_threshold = 0.95)
        : numEntries(entries), accThreshold(accuracy_threshold)
    {
        if (numEntries)
            table.resize(numEntries);
    }

    bool
    silenced(unsigned c, Addr pc) const override
    {
        const Entry *e = find(pc);
        if (!e)
            return false;
        const unsigned good = e->correct[c];
        const unsigned bad = e->incorrect[c];
        if (good + bad == 0)
            return false;
        return double(good) / double(good + bad) < accThreshold;
    }

    void
    recordOutcome(Addr pc, const ComponentCorrectness &cc) override
    {
        Entry *e = find(pc);
        if (!e)
            return;
        bool overflow = false;
        for (unsigned c = 0; c < numComponents; ++c) {
            if (cc[c] < 0)
                continue;
            std::uint8_t &ctr =
                cc[c] == 1 ? e->correct[c] : e->incorrect[c];
            ++ctr;
            if (ctr & 0x80)
                overflow = true;
        }
        if (overflow) {
            // Halve everything: keeps the correct:incorrect ratio
            // while the counters stay 8 bits wide.
            for (unsigned c = 0; c < numComponents; ++c) {
                e->correct[c] >>= 1;
                e->incorrect[c] >>= 1;
            }
        }
    }

    void
    recordFlush(Addr pc) override
    {
        // Allocate (possibly replacing) on a misprediction flush.
        if (numEntries) {
            Entry &e = table[indexOf(pc)];
            if (!e.valid || e.tag != tagOf(pc)) {
                e = Entry{};
                e.valid = true;
                e.tag = tagOf(pc);
            }
        } else {
            infinite.emplace(pc >> 2);
        }
    }

    std::uint64_t
    storageBits() const override
    {
        // tag(10) + valid(1) + 8 x 8-bit counters per entry.
        const std::uint64_t per_entry = 10 + 1 + 8 * 8;
        return numEntries ? numEntries * per_entry
                          : infinite.size() * per_entry;
    }

    const char *
    name() const override
    {
        return numEntries ? "PC-AM" : "PC-AM-inf";
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::array<std::uint8_t, numComponents> correct{};
        std::array<std::uint8_t, numComponents> incorrect{};
    };

    std::size_t
    indexOf(Addr pc) const
    {
        return fastMod((pc >> 2) ^ (pc >> 8), numEntries);
    }

    static std::uint16_t
    tagOf(Addr pc)
    {
        return std::uint16_t(((pc >> 2) ^ (pc >> 12)) & mask(10));
    }

    const Entry *
    find(Addr pc) const
    {
        if (numEntries) {
            const Entry &e = table[indexOf(pc)];
            return (e.valid && e.tag == tagOf(pc)) ? &e : nullptr;
        }
        auto it = infinite.find(pc >> 2);
        return it == infinite.end() ? nullptr : &it->second;
    }

    Entry *
    find(Addr pc)
    {
        return const_cast<Entry *>(
            static_cast<const PcAm *>(this)->find(pc));
    }

    std::size_t numEntries;
    double accThreshold;
    std::vector<Entry> table;
    FlatMap<Addr, Entry> infinite;
};

} // namespace vp
} // namespace lvpsim

