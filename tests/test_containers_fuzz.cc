/**
 * @file
 * Seeded differential fuzzing for the allocation-free containers:
 * RingBuffer is driven against std::deque and FlatMap against
 * std::unordered_map with identical operation streams. Fixed seeds
 * keep the tests deterministic (CI-safe), matching the repo's other
 * fuzz suites.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"
#include "common/random.hh"
#include "common/ring_buffer.hh"

using lvpsim::FlatMap;
using lvpsim::RingBuffer;
using lvpsim::Xoshiro256;

namespace
{

/**
 * Drive a RingBuffer and a std::deque through the same random
 * push/pop stream (weighted towards the core's usage: mostly
 * push_back/pop_front, occasional pop_back bursts like a squash) and
 * demand identical contents after every step.
 */
void
fuzzRingAgainstDeque(std::uint64_t seed, std::size_t capacity,
                     std::size_t steps)
{
    Xoshiro256 rng(seed);
    RingBuffer<std::uint64_t> rb(capacity);
    std::deque<std::uint64_t> ref;
    std::uint64_t next = 0;
    // Slot handles taken at push, checked like the core checks them:
    // slot plus identity. Values are unique, so a handle is live iff
    // its value is still in the deque.
    std::vector<std::pair<std::size_t, std::uint64_t>> handles;
    auto handle_live = [&](const std::pair<std::size_t,
                                           std::uint64_t> &h) {
        return rb.liveSlot(h.first) && rb.atSlot(h.first) == h.second;
    };

    for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t roll = rng() % 100;
        if (roll < 45) { // push_back
            if (ref.size() < rb.capacity()) {
                rb.push_back(next);
                ref.push_back(next);
                handles.emplace_back(rb.slotOf(rb.size() - 1), next);
                if (handles.size() > 4 * rb.capacity())
                    handles.erase(handles.begin(),
                                  handles.begin() + rb.capacity());
                ++next;
            }
        } else if (roll < 80) { // pop_front
            if (!ref.empty()) {
                ASSERT_EQ(rb.front(), ref.front());
                rb.pop_front();
                ref.pop_front();
            }
        } else if (roll < 90) { // squash-like pop_back burst
            std::uint64_t burst = rng() % 4;
            while (burst-- && !ref.empty()) {
                ASSERT_EQ(rb.back(), ref.back());
                rb.pop_back();
                ref.pop_back();
            }
        } else if (roll < 95) { // random-access probe
            if (!ref.empty()) {
                const std::size_t i = rng() % ref.size();
                ASSERT_EQ(rb[i], ref[i]);
            }
        } else if (roll < 97) { // every handle: valid until popped
            for (const auto &h : handles) {
                const bool in_ref =
                    !ref.empty() && h.second >= ref.front() &&
                    h.second <= ref.back() &&
                    std::binary_search(ref.begin(), ref.end(),
                                       h.second);
                ASSERT_EQ(handle_live(h), in_ref) << h.second;
            }
            for (std::size_t i = 0; i < ref.size(); ++i) {
                ASSERT_TRUE(rb.liveSlot(rb.slotOf(i)));
                ASSERT_EQ(rb.atSlot(rb.slotOf(i)), ref[i]);
            }
        } else { // full scan through iterators
            ASSERT_TRUE(std::equal(rb.begin(), rb.end(),
                                   ref.begin(), ref.end()));
            ASSERT_TRUE(std::equal(rb.rbegin(), rb.rend(),
                                   ref.rbegin(), ref.rend()));
        }
        ASSERT_EQ(rb.size(), ref.size());
        ASSERT_EQ(rb.empty(), ref.empty());
    }
}

/**
 * Drive a FlatMap and a std::unordered_map through the same random
 * insert/overwrite/erase/lookup stream and demand identical contents
 * after every step. @p Hash lets the same harness run with the
 * production hash and with a degenerate clustering hash.
 */
template <typename Hash>
void
fuzzMapAgainstUnordered(std::uint64_t seed, std::uint64_t key_space,
                        std::size_t steps)
{
    Xoshiro256 rng(seed);
    FlatMap<std::uint64_t, std::uint64_t, Hash> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t key = rng() % key_space;
        const std::uint64_t roll = rng() % 100;
        if (roll < 40) { // insert / overwrite
            const std::uint64_t val = rng();
            m[key] = val;
            ref[key] = val;
        } else if (roll < 55) { // emplace (insert-only)
            const std::uint64_t val = rng();
            const auto r = m.emplace(key, val);
            const auto rr = ref.emplace(key, val);
            ASSERT_EQ(r.second, rr.second);
            ASSERT_EQ(r.first->second, rr.first->second);
        } else if (roll < 80) { // erase by key
            ASSERT_EQ(m.erase(key), ref.erase(key));
        } else if (roll < 95) { // lookup
            const auto it = m.find(key);
            const auto rit = ref.find(key);
            ASSERT_EQ(it != m.end(), rit != ref.end());
            if (rit != ref.end()) {
                ASSERT_EQ(it->second, rit->second);
            }
            ASSERT_EQ(m.contains(key), rit != ref.end());
        } else { // full iteration: same entry set, no dups
            std::size_t visited = 0;
            for (const auto &kv : m) {
                const auto rit = ref.find(kv.first);
                ASSERT_NE(rit, ref.end()) << kv.first;
                ASSERT_EQ(kv.second, rit->second);
                ++visited;
            }
            ASSERT_EQ(visited, ref.size());
        }
        ASSERT_EQ(m.size(), ref.size());
    }
}

/** Collapses groups of 8 keys onto one home slot: adversarial probe
 *  chains that stress backward-shift deletion under churn. */
struct ClusterHash8
{
    std::uint64_t operator()(std::uint64_t k) const { return k / 8; }
};

} // anonymous namespace

TEST(ContainersFuzz, RingBufferMatchesDequeSmallRing)
{
    // Tiny pow2 ring: constant wraparound, frequent full/empty.
    fuzzRingAgainstDeque(0x0001ull, 4, 20000);
}

TEST(ContainersFuzz, RingBufferMatchesDequeRobSizedRing)
{
    // ROB-sized ring with a non-pow2 requested capacity.
    fuzzRingAgainstDeque(0x5eedbeefull, 224, 20000);
}

TEST(ContainersFuzz, FlatMapMatchesUnorderedDenseKeys)
{
    // Small key space: lots of overwrites, erase hits, reinsertions.
    fuzzMapAgainstUnordered<lvpsim::FlatHash>(0xf1a70001ull, 64,
                                              20000);
}

TEST(ContainersFuzz, FlatMapMatchesUnorderedSparseKeys)
{
    // Wide key space: mostly misses and fresh inserts, with growth.
    fuzzMapAgainstUnordered<lvpsim::FlatHash>(0xf1a70002ull,
                                              1u << 20, 20000);
}

TEST(ContainersFuzz, FlatMapMatchesUnorderedClusteredHash)
{
    // Degenerate hash: every operation lands in a long probe chain,
    // exercising wrap and backward-shift paths continuously.
    fuzzMapAgainstUnordered<ClusterHash8>(0xf1a70003ull, 256, 20000);
}
