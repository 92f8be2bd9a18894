/**
 * @file
 * Branch/path history machinery shared by TAGE, ITTAGE and the
 * context-aware value predictors (CVP, CAP).
 *
 * HistoryRing stores the raw outcome/path bits; FoldedHistory keeps an
 * incrementally maintained XOR-fold of the most recent N bits down to a
 * small index/tag width, exactly as in Seznec's TAGE implementations.
 * The ring's capacity is a power of two, so both are division-free;
 * each owner pushes a bit and then shifts every fold with that bit and
 * the one leaving the fold's window (FoldedHistory::shift).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace branch
{

/**
 * A ring buffer of single history bits; index 0 is the newest bit.
 * The capacity is a power of two (asserted here, rejected by the
 * snapshot decoder) so push() and at() index by mask, not by a
 * runtime division.
 */
class HistoryRing
{
  public:
    explicit HistoryRing(std::size_t capacity = 4096)
        : bits(capacity, 0), head(0)
    {
        lvp_assert(isPowerOf2(capacity),
                   "history ring capacity %zu is not a power of two",
                   capacity);
    }

    void
    push(unsigned bit)
    {
        head = (head + 1) & (bits.size() - 1);
        bits[head] = static_cast<std::uint8_t>(bit & 1);
    }

    /** Bit pushed @p distance steps ago (0 = newest). */
    unsigned
    at(std::size_t distance) const
    {
        LVPSIM_CHECK(distance < bits.size(), "history ring too short");
        return bits[(head - distance) & (bits.size() - 1)];
    }

    std::size_t capacity() const { return bits.size(); }

    /** Serialization access (pipeline/snapshot_io): raw ring state. */
    const std::vector<std::uint8_t> &rawBits() const { return bits; }
    std::size_t rawHead() const { return head; }

    void
    restoreRaw(std::vector<std::uint8_t> newBits, std::size_t newHead)
    {
        lvp_assert(isPowerOf2(newBits.size()) && newHead < newBits.size(),
                   "bad history ring restore");
        bits = std::move(newBits);
        head = newHead;
    }

  private:
    std::vector<std::uint8_t> bits;
    std::size_t head;
};

/**
 * Incrementally maintained fold of the newest origLength history bits
 * into compLength bits.
 *
 * shift(in, out) must be called exactly once per push to the ring the
 * fold follows, after the push: @p in is the bit just pushed and
 * @p out the bit that left the window, `ring.at(length())`. The ring
 * must hold more than length() bits (owners assert this when they
 * build their folds).
 */
class FoldedHistory
{
  public:
    FoldedHistory(unsigned orig_length, unsigned comp_length)
        : origLength(orig_length), compLength(comp_length),
          outPoint(orig_length % comp_length),
          compMask((std::uint32_t(1) << comp_length) - 1), comp(0)
    {
        lvp_assert(comp_length >= 1 && comp_length <= 31,
                   "bad fold width %u", comp_length);
    }

    /** Both bits are 0 or 1. */
    void
    shift(unsigned in, unsigned out)
    {
        comp = (comp << 1) | in;
        comp ^= static_cast<std::uint32_t>(out) << outPoint;
        comp ^= comp >> compLength;
        comp &= compMask;
    }

    std::uint32_t value() const { return comp; }
    unsigned length() const { return origLength; }

    /** Serialization access (pipeline/snapshot_io): the fold width. */
    unsigned foldedLength() const { return compLength; }

    /** Restore a fold value captured by value(). */
    void
    restoreRaw(std::uint32_t v)
    {
        comp = v & compMask;
    }

    void reset() { comp = 0; }

  private:
    unsigned origLength;
    unsigned compLength;
    unsigned outPoint;
    std::uint32_t compMask; ///< derived from compLength
    std::uint32_t comp;
};

} // namespace branch
} // namespace lvpsim

