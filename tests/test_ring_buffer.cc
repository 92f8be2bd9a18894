/**
 * @file
 * Unit tests for common/ring_buffer.hh: wraparound, full/empty
 * boundaries, reference stability across pops, slot handles, and the
 * random-access iterator contract std::lower_bound relies on.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/ring_buffer.hh"

using lvpsim::RingBuffer;

TEST(RingBuffer, StartsEmptyAndRoundsCapacityUpToPow2)
{
    RingBuffer<int> rb(6);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 8u); // 6 -> 8
    EXPECT_EQ(RingBuffer<int>(8).capacity(), 8u);
    EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
}

TEST(RingBuffer, FifoOrderSurvivesManyWraparounds)
{
    RingBuffer<int> rb(4);
    int next_in = 0, next_out = 0;
    // Steady-state occupancy 3 over a capacity-4 (pow2) ring: the
    // head wraps hundreds of times.
    for (int i = 0; i < 3; ++i)
        rb.push_back(next_in++);
    for (int step = 0; step < 1000; ++step) {
        EXPECT_EQ(rb.front(), next_out);
        rb.pop_front();
        ++next_out;
        rb.push_back(next_in++);
        EXPECT_EQ(rb.size(), 3u);
        EXPECT_EQ(rb.back(), next_in - 1);
    }
}

TEST(RingBuffer, FillToCapacityThenDrain)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 8; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.size(), rb.capacity());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    EXPECT_TRUE(rb.empty());
    // Reusable after a full drain, from a now-nonzero head.
    rb.push_back(41);
    EXPECT_EQ(rb.back(), 41);
}

TEST(RingBuffer, PopBackRemovesYoungest)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 5; ++i)
        rb.push_back(i);
    rb.pop_back();
    rb.pop_back();
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb.back(), 2);
    rb.push_back(9);
    EXPECT_EQ(rb.back(), 9);
}

TEST(RingBuffer, IndexingIsFrontRelative)
{
    RingBuffer<int> rb(4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(10 + i);
    rb.pop_front(); // head moves off slot 0
    rb.push_back(14); // physically wraps to slot 0
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], int(11 + i));
}

TEST(RingBuffer, ReferencesStableAcrossOtherPushesAndPops)
{
    // Index-stability contract: pushing/popping other elements never
    // moves a live element (the core keeps Inflight* across stage
    // logic within a cycle).
    RingBuffer<int> rb(8);
    for (int i = 0; i < 6; ++i)
        rb.push_back(i);
    int *third = &rb[3];
    rb.pop_front();
    rb.pop_front();
    rb.push_back(6);
    rb.push_back(7);
    EXPECT_EQ(*third, 3);
    EXPECT_EQ(&rb[1], third); // same slot, new logical index
}

TEST(RingBuffer, SlotHandlesNameElementsUntilTheyPop)
{
    RingBuffer<int> rb(4);
    for (int i = 0; i < 3; ++i)
        rb.push_back(i);
    rb.pop_front(); // logical [1, 2] in slots 1, 2
    const std::size_t h1 = rb.slotOf(0), h2 = rb.slotOf(1);
    EXPECT_EQ(h1, 1u);
    EXPECT_EQ(h2, 2u);
    EXPECT_FALSE(rb.liveSlot(0)); // popped
    EXPECT_FALSE(rb.liveSlot(3)); // never filled
    EXPECT_FALSE(rb.liveSlot(4)); // out of range
    rb.push_back(3);
    rb.push_back(4); // wraps into slot 0
    EXPECT_EQ(rb.slotOf(3), 0u);
    EXPECT_TRUE(rb.liveSlot(0));
    // Handles survive pushes and pops of other elements.
    EXPECT_EQ(rb.atSlot(h1), 1);
    EXPECT_EQ(rb.atSlot(h2), 2);
    EXPECT_EQ(&rb.atSlot(h2), &rb[1]);
    rb.pop_back(); // slot 0 dies
    EXPECT_FALSE(rb.liveSlot(0));
    rb.pop_front(); // slot 1 dies
    EXPECT_FALSE(rb.liveSlot(h1));
    EXPECT_TRUE(rb.liveSlot(h2));
    EXPECT_EQ(rb.atSlot(h2), 2);
    const RingBuffer<int> &crb = rb;
    EXPECT_EQ(crb.atSlot(crb.slotOf(1)), 3);
}

TEST(RingBuffer, FullRingHasEverySlotLive)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 11; ++i) {
        rb.push_back(i);
        if (rb.size() > 5)
            rb.pop_front();
    }
    while (rb.size() < rb.capacity())
        rb.push_back(0);
    for (std::size_t p = 0; p < rb.capacity(); ++p)
        EXPECT_TRUE(rb.liveSlot(p)) << p;
    rb.clear();
    for (std::size_t p = 0; p < rb.capacity(); ++p)
        EXPECT_FALSE(rb.liveSlot(p)) << p;
}

TEST(RingBuffer, IteratorsAreRandomAccess)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 6; ++i)
        rb.push_back(i * 10);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(60);
    rb.push_back(70); // wrapped: logical [20..70]

    auto it = rb.begin();
    EXPECT_EQ(*(it + 3), 50);
    it += 2;
    EXPECT_EQ(*it, 40);
    EXPECT_EQ(it - rb.begin(), 2);
    EXPECT_EQ(rb.end() - rb.begin(),
              std::ptrdiff_t(rb.size()));
    EXPECT_TRUE(rb.begin() < rb.end());
    EXPECT_EQ(rb.begin()[5], 70);

    std::vector<int> seen(rb.begin(), rb.end());
    EXPECT_EQ(seen, (std::vector<int>{20, 30, 40, 50, 60, 70}));
    std::vector<int> rseen(rb.rbegin(), rb.rend());
    EXPECT_EQ(rseen, (std::vector<int>{70, 60, 50, 40, 30, 20}));
}

TEST(RingBuffer, LowerBoundOverWrappedRing)
{
    // The core binary-searches the seq-sorted ROB; exercise
    // std::lower_bound across a physically wrapped window.
    RingBuffer<int> rb(8);
    for (int i = 0; i < 8; ++i)
        rb.push_back(i);
    for (int i = 0; i < 5; ++i)
        rb.pop_front();
    for (int i = 8; i < 12; ++i)
        rb.push_back(i); // logical [5..11], wrapped
    for (int probe = 5; probe < 12; ++probe) {
        auto it = std::lower_bound(rb.begin(), rb.end(), probe);
        ASSERT_NE(it, rb.end());
        EXPECT_EQ(*it, probe);
    }
    EXPECT_EQ(std::lower_bound(rb.begin(), rb.end(), 42), rb.end());
}

TEST(RingBuffer, ConstIterationAndConversion)
{
    RingBuffer<int> rb(4);
    rb.push_back(1);
    rb.push_back(2);
    const RingBuffer<int> &crb = rb;
    int sum = 0;
    for (int v : crb)
        sum += v;
    EXPECT_EQ(sum, 3);
    RingBuffer<int>::const_iterator ci = rb.begin(); // conversion
    EXPECT_EQ(*ci, 1);
    EXPECT_EQ(std::accumulate(crb.begin(), crb.end(), 0), 3);
}

TEST(RingBuffer, ClearResetsToEmpty)
{
    RingBuffer<int> rb(4);
    rb.push_back(1);
    rb.push_back(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(7);
    EXPECT_EQ(rb.front(), 7);
    EXPECT_EQ(rb.back(), 7);
}
