#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "branch/history.hh"
#include "branch/ittage.hh"
#include "branch/tage.hh"
#include "common/bitutils.hh"
#include "common/random.hh"
#include "core/eves.hh"
#include "core/vp_params.hh"

using namespace lvpsim;
using namespace lvpsim::branch;

namespace
{

/** Drive predict+update for a repeated direction pattern; return the
 *  mispredict rate over the last @p measure occurrences. */
double
mispredictRate(Tage &t, Addr pc, const std::vector<bool> &pattern,
               int reps, int measure_tail)
{
    int total = 0, wrong = 0;
    const int n = reps * int(pattern.size());
    for (int i = 0; i < n; ++i) {
        const bool taken = pattern[i % pattern.size()];
        const bool pred = t.predict(pc);
        if (i >= n - measure_tail) {
            ++total;
            wrong += (pred != taken) ? 1 : 0;
        }
        t.update(pc, taken);
    }
    return total ? double(wrong) / total : 0.0;
}

} // anonymous namespace

TEST(FoldedHistory, FoldsRecentBitsOnly)
{
    HistoryRing ring(128);
    FoldedHistory f(8, 4);
    // Push 8 ones: intermediate folds are nonzero (the final fold of
    // 8 ones into 4 bits XOR-cancels to 0, which is fine).
    bool saw_nonzero = false;
    for (int i = 0; i < 8; ++i) {
        ring.push(1);
        f.shift(1, ring.at(f.length()));
        saw_nonzero |= f.value() != 0;
    }
    EXPECT_TRUE(saw_nonzero);
    // Push 8 zeros: the ones age out of the window completely.
    for (int i = 0; i < 8; ++i) {
        ring.push(0);
        f.shift(0, ring.at(f.length()));
    }
    EXPECT_EQ(f.value(), 0u);
}

TEST(FoldedHistory, WindowIsExact)
{
    // Two rings with the same last-8 bits but different older bits
    // must fold to the same value.
    HistoryRing r1(64), r2(64);
    FoldedHistory f1(8, 5), f2(8, 5);
    auto push = [](HistoryRing &r, FoldedHistory &f, unsigned b) {
        r.push(b);
        f.shift(b, r.at(f.length()));
    };
    for (int i = 0; i < 10; ++i)
        push(r1, f1, 1); // old bits: ones
    for (int i = 0; i < 10; ++i)
        push(r2, f2, 0); // old bits: zeros
    const unsigned tail[8] = {1, 0, 1, 1, 0, 0, 1, 0};
    for (unsigned b : tail) {
        push(r1, f1, b);
        push(r2, f2, b);
    }
    EXPECT_EQ(f1.value(), f2.value());
}

namespace
{

/** (origLength, compLength) of one fold. */
using FoldShape = std::pair<unsigned, unsigned>;

/** The fold of the newest @p orig bits of @p hist (newest last) into
 *  @p comp bits, computed from scratch: the bit pushed d steps ago
 *  lands at position d % comp. */
std::uint32_t
refold(const std::vector<std::uint8_t> &hist, unsigned orig,
       unsigned comp)
{
    std::uint32_t v = 0;
    for (unsigned d = 0; d < orig && d < hist.size(); ++d)
        v ^= std::uint32_t(hist[hist.size() - 1 - d]) << (d % comp);
    return v;
}

/**
 * Push 100k random bits through a default-size ring (many times past
 * wraparound), shifting every fold of @p shapes as the predictors do,
 * and compare each fold with a from-scratch refold after every push.
 */
void
expectShiftMatchesRefold(const std::vector<FoldShape> &shapes)
{
    ASSERT_FALSE(shapes.empty());
    HistoryRing ring;
    std::vector<FoldedHistory> folds;
    for (const auto &[orig, comp] : shapes) {
        ASSERT_LT(orig, ring.capacity());
        folds.emplace_back(orig, comp);
    }
    std::vector<std::uint8_t> hist;
    Xoshiro256 rng(0xf01d);
    constexpr int pushes = 100000;
    for (int i = 0; i < pushes; ++i) {
        const unsigned in = unsigned(rng.next() & 1);
        ring.push(in);
        hist.push_back(std::uint8_t(in));
        for (std::size_t f = 0; f < folds.size(); ++f) {
            folds[f].shift(in, ring.at(folds[f].length()));
            const std::uint32_t want =
                refold(hist, shapes[f].first, shapes[f].second);
            if (folds[f].value() != want) {
                ADD_FAILURE() << "fold " << f << " (" << shapes[f].first
                              << " -> " << shapes[f].second
                              << ") diverges at push " << i << ": "
                              << folds[f].value() << " vs " << want;
                return;
            }
        }
        // The reference only ever needs the newest 4096 bits.
        if (hist.size() > 2 * ring.capacity())
            hist.erase(hist.begin(), hist.end() - ring.capacity());
    }
}

std::vector<FoldShape>
shapesOf(const std::vector<std::vector<FoldedHistory>> &groups)
{
    std::vector<FoldShape> out;
    for (const auto &g : groups)
        for (const FoldedHistory &f : g)
            out.emplace_back(f.length(), f.foldedLength());
    return out;
}

/** Geometric history lengths, as TAGE, ITTAGE and EVES build them. */
std::vector<unsigned>
geometricLengths(unsigned n, unsigned minHist, unsigned maxHist)
{
    std::vector<unsigned> len(n);
    const double ratio = std::pow(double(maxHist) / minHist,
                                  1.0 / std::max(1u, n - 1));
    double l = minHist;
    for (unsigned t = 0; t < n; ++t) {
        len[t] = std::max<unsigned>(1, unsigned(l + 0.5));
        if (t > 0 && len[t] <= len[t - 1])
            len[t] = len[t - 1] + 1;
        l *= ratio;
    }
    return len;
}

} // anonymous namespace

TEST(FoldedHistory, ShiftMatchesRefoldTageGeometry)
{
    Tage::State st;
    Tage().saveState(st);
    expectShiftMatchesRefold(shapesOf(
        {st.foldIdx, st.foldTag1, st.foldTag2}));
}

TEST(FoldedHistory, ShiftMatchesRefoldIttageGeometry)
{
    Ittage::State st;
    Ittage().saveState(st);
    expectShiftMatchesRefold(
        shapesOf({st.foldIdx, st.foldTag}));
}

TEST(FoldedHistory, ShiftMatchesRefoldCvpGeometry)
{
    // Cvp(1024): tables of 512/256/256 entries, two history bits per
    // branch, index folds of log2(size) bits, tag folds of 14 and 13.
    const unsigned idxBits[3] = {9, 8, 8};
    std::vector<FoldShape> shapes;
    for (unsigned t = 0; t < 3; ++t) {
        const unsigned bits = 2 * vp::cvpHistLengths[t];
        shapes.emplace_back(bits, idxBits[t]);
        shapes.emplace_back(bits, vp::tagBits);
        shapes.emplace_back(bits, vp::tagBits - 1);
    }
    expectShiftMatchesRefold(shapes);
}

TEST(FoldedHistory, ShiftMatchesRefoldEvesGeometry)
{
    // EvesConfig defaults: 6 tagged tables of 256 entries, two
    // history bits per branch, tag folds of 14 bits.
    const vp::EvesConfig cfg;
    std::vector<FoldShape> shapes;
    for (unsigned len :
         geometricLengths(cfg.numTagged, cfg.minHist, cfg.maxHist)) {
        shapes.emplace_back(2 * len, ceilLog2(cfg.taggedEntries));
        shapes.emplace_back(2 * len, vp::tagBits);
    }
    expectShiftMatchesRefold(shapes);
}

TEST(HistoryRing, AtReturnsRecentBits)
{
    HistoryRing r(16);
    r.push(1);
    r.push(0);
    r.push(1);
    EXPECT_EQ(r.at(0), 1u);
    EXPECT_EQ(r.at(1), 0u);
    EXPECT_EQ(r.at(2), 1u);
}

TEST(Tage, LearnsAlwaysTaken)
{
    Tage t;
    EXPECT_LT(mispredictRate(t, 0x1000, {true}, 500, 400), 0.01);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    Tage t;
    EXPECT_LT(mispredictRate(t, 0x1000, {false}, 500, 400), 0.01);
}

TEST(Tage, LearnsShortLoopPattern)
{
    // T T T N repeated: bimodal alone cannot do this; the tagged
    // history tables must pick it up.
    Tage t;
    EXPECT_LT(mispredictRate(t, 0x2000,
                             {true, true, true, false}, 800, 800),
              0.05);
}

TEST(Tage, LearnsLongerPattern)
{
    std::vector<bool> pat;
    for (int i = 0; i < 12; ++i)
        pat.push_back(i < 11); // loop of trip count 12
    Tage t;
    EXPECT_LT(mispredictRate(t, 0x3000, pat, 400, 1200), 0.05);
}

TEST(Tage, RandomIsHard)
{
    // Sanity: on unbiased random directions TAGE cannot do much
    // better than 50% - guards against tests passing vacuously.
    Tage t;
    Xoshiro256 rng(3);
    int wrong = 0, total = 4000;
    for (int i = 0; i < total; ++i) {
        const bool taken = rng.bernoulli(0.5);
        const bool pred = t.predict(0x4000);
        wrong += pred != taken;
        t.update(0x4000, taken);
    }
    EXPECT_GT(double(wrong) / total, 0.35);
}

TEST(Tage, TracksManyBranches)
{
    // Several branch PCs with opposite biases at once.
    Tage t;
    int wrong = 0, total = 0;
    for (int i = 0; i < 3000; ++i) {
        for (Addr pc = 0x100; pc < 0x100 + 16 * 4; pc += 4) {
            const bool taken = ((pc >> 2) & 1) != 0;
            const bool pred = t.predict(pc);
            if (i > 100) {
                ++total;
                wrong += pred != taken;
            }
            t.update(pc, taken);
        }
        if (total > 20000)
            break;
    }
    EXPECT_LT(double(wrong) / total, 0.02);
}

TEST(Tage, StorageBitsPlausible)
{
    TageConfig cfg;
    // Default configuration should be in the ~32KB class (Table III).
    const double kb = double(cfg.storageBits()) / 8192.0;
    EXPECT_GT(kb, 8.0);
    EXPECT_LT(kb, 64.0);
}

TEST(Tage, UpdateWithoutPredictPanics)
{
    Tage t;
    t.predict(0x100);
    EXPECT_DEATH(t.update(0x104, true), "matching predict");
}

TEST(Tage, HistoryOnlyUpdateAdvancesContext)
{
    // Interleaving unconditional (history-only) branches must not
    // break learning of a history-correlated pattern.
    Tage t;
    int wrong = 0, total = 0;
    bool flip = false;
    for (int i = 0; i < 4000; ++i) {
        t.updateHistoryOnly(0x8000 + (i % 3) * 4, true);
        const bool taken = flip;
        const bool pred = t.predict(0x9000);
        if (i > 1000) {
            ++total;
            wrong += pred != taken;
        }
        t.update(0x9000, taken);
        flip = !flip;
    }
    EXPECT_LT(double(wrong) / total, 0.05);
}
