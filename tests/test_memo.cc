/**
 * @file
 * sim::Memo<V> (sim/memo.hh), the build-once memo behind every
 * process-wide cache: one build per key under contention, no
 * cross-key blocking, clear() semantics, and disk-store hits that do
 * not count as builds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.hh"
#include "common/mmap_file.hh"
#include "sim/checkpoint_store.hh"
#include "sim/memo.hh"

using namespace lvpsim;

namespace
{

struct Value
{
    std::uint64_t n = 0;
};

sim::Memo<Value>::Codec
valueCodec()
{
    return {"memotest:",
            [](BinWriter &w, const Value &v) { w.u64(v.n); },
            [](BinReader &r, Value &v) {
                v.n = r.u64();
                return r.ok() && r.atEnd();
            }};
}

} // anonymous namespace

TEST(Memo, ConcurrentSameKeyBuildsOnce)
{
    sim::Memo<Value> memo;
    std::atomic<int> builds{0};
    std::vector<sim::Memo<Value>::Ptr> got(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            got[i] = memo.get("k", [&](Value &v) {
                builds.fetch_add(1);
                std::this_thread::yield();
                v.n = 42;
            });
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(memo.generations(), 1u);
    for (const auto &p : got) {
        ASSERT_EQ(p, got[0]);
        EXPECT_EQ(p->n, 42u);
    }
}

TEST(Memo, BlockedBuilderDoesNotBlockOtherKeys)
{
    sim::Memo<Value> memo;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> entered{false};
    std::thread a([&] {
        memo.get("A", [&](Value &v) {
            entered.store(true);
            gate.wait();
            v.n = 1;
        });
    });
    while (!entered.load())
        std::this_thread::yield();
    // Key A's builder is parked inside its build; B must not wait.
    const auto b = memo.get("B", [](Value &v) { v.n = 2; });
    EXPECT_EQ(b->n, 2u);
    release.set_value();
    a.join();
    EXPECT_EQ(memo.get("A", [](Value &) { FAIL(); })->n, 1u);
    EXPECT_EQ(memo.generations(), 2u);
}

TEST(Memo, ClearDropsEntriesButKeepsOutstandingPointers)
{
    sim::Memo<Value> memo;
    const auto first = memo.get("k", [](Value &v) { v.n = 7; });
    memo.clear();
    EXPECT_EQ(first->n, 7u) << "a handed-out pointer must survive";
    const auto second = memo.get("k", [](Value &v) { v.n = 8; });
    EXPECT_NE(first, second);
    EXPECT_EQ(second->n, 8u);
    EXPECT_EQ(memo.generations(), 2u);
}

TEST(Memo, DiskHitIsNotABuild)
{
    const std::string dir = "/tmp/lvpsim_memo_gtest";
    for (const DirEntry &e : listDir(dir))
        removeFile(dir + "/" + e.name);
    auto &store = sim::CheckpointStore::instance();
    store.configure(dir, 0);
    ASSERT_TRUE(store.enabled());

    sim::Memo<Value> memo(valueCodec());
    const auto build = [](Value &v) { v.n = 99; };
    EXPECT_EQ(memo.get("k", build)->n, 99u);
    EXPECT_EQ(memo.generations(), 1u);

    memo.clear(); // drop L1; the published entry must serve the get
    EXPECT_EQ(memo.get("k", [](Value &) { FAIL(); })->n, 99u);
    EXPECT_EQ(memo.generations(), 1u);

    // A decoded value the caller rejects is a miss, and the rebuild
    // starts from a fresh value.
    memo.clear();
    const auto rebuilt = memo.get(
        "k", [](Value &v) { v.n += 5; },
        [](const Value &v) { return v.n != 99; });
    EXPECT_EQ(rebuilt->n, 5u);
    EXPECT_EQ(memo.generations(), 2u);

    store.configure("", 0);
    for (const DirEntry &e : listDir(dir))
        removeFile(dir + "/" + e.name);
    removeFile(dir);
}
