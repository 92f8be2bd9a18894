/**
 * @file
 * sim::Memo<V>: the one build-once memo behind the process-wide caches
 * (TraceCache, CheckpointCache, BaselineCache, PlanCache).
 *
 * A Memo maps a string key to a `shared_ptr<const V>` that is built at
 * most once per process:
 *
 *  - *Slot map.* Lookups take a short reader lock on a SharedMutex
 *    (common/sync.hh); a missing key is inserted under the writer
 *    lock, re-checked so racing inserters share one slot. No lock is
 *    held while a value is built.
 *  - *Build once.* Each slot carries a `std::once_flag`: the first
 *    caller for a key resolves it, concurrent callers for the same
 *    key block until the value is published, and callers for other
 *    keys proceed unimpeded.
 *  - *L1 / L2.* The slot map is the in-memory L1. A Memo constructed
 *    with a Codec also has an L2: when the process-wide
 *    CheckpointStore (checkpoint_store.hh) is enabled, a missing key
 *    is first looked up on disk under `codec.prefix + key`, and only
 *    built when the disk misses too; the fresh value is then encoded
 *    and published for later processes (CheckpointStore::fetchOrBuild
 *    also claims the key so concurrent processes build it once).
 *  - *Fresh value per attempt.* Every decode attempt and every build
 *    starts from a default-constructed V, so a store entry the
 *    decoder (or the caller's `accept` check) rejects leaves nothing
 *    behind in the value that is built and published instead.
 *  - *Counting.* generations() counts real builds only; a disk hit is
 *    not a build, which is how tests tell L2 hits from rebuilds.
 *  - *clear()* drops every slot (a test hook). Pointers already
 *    handed out stay valid; the next get() builds or loads anew.
 *
 * Values are deterministic per key, so the map is never iterated and
 * the result of a run cannot depend on which thread built what.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/binio.hh"
#include "common/sync.hh"
#include "sim/checkpoint_store.hh"

namespace lvpsim
{
namespace sim
{

template <typename V>
class Memo
{
  public:
    using Ptr = std::shared_ptr<const V>;

    /** How a value is stored on disk (the optional L2). */
    struct Codec
    {
        std::string prefix; ///< store key prefix, e.g. "ckpt:"
        std::function<void(BinWriter &, const V &)> encode;
        /** False (or a reader left !ok()) rejects the entry. */
        std::function<bool(BinReader &, V &)> decode;
    };

    Memo() = default;
    explicit Memo(Codec c) : codec(std::move(c)) {}

    /**
     * The value for @p key, built once by `build(V &)` on a fresh V
     * (or loaded from the store). @p accept, when given, vets a
     * decoded value against what the caller asked for; a rejected
     * value is a store miss.
     */
    template <typename Build>
    Ptr get(const std::string &key, const Build &build,
            const std::function<bool(const V &)> &accept = nullptr)
        EXCLUDES(mx)
    {
        const std::shared_ptr<Slot> s = slot(key);
        std::call_once(s->once,
                       [&] { s->value = resolve(key, build, accept); });
        return s->value;
    }

    /** Number of values actually built (not memo or disk hits). */
    std::uint64_t generations() const
    {
        return built.load(std::memory_order_relaxed);
    }

    /** Drop every slot; outstanding pointers stay valid. */
    void clear() EXCLUDES(mx)
    {
        WriterLock wr(mx);
        slots.clear();
    }

  private:
    struct Slot
    {
        std::once_flag once;
        Ptr value;
    };

    /** The slot for @p key, inserted on first use. */
    std::shared_ptr<Slot> slot(const std::string &key) EXCLUDES(mx)
    {
        {
            ReaderLock rd(mx);
            auto it = slots.find(key);
            if (it != slots.end())
                return it->second;
        }
        WriterLock wr(mx);
        // try_emplace re-checks: another thread may have inserted.
        return slots.try_emplace(key, std::make_shared<Slot>())
            .first->second;
    }

    template <typename Build>
    Ptr resolve(const std::string &key, const Build &build,
                const std::function<bool(const V &)> &accept)
    {
        std::shared_ptr<V> out;
        const auto buildFresh = [&] {
            out = std::make_shared<V>();
            build(*out);
            built.fetch_add(1, std::memory_order_relaxed);
        };
        CheckpointStore &store = CheckpointStore::instance();
        if (!codec.decode || !store.enabled()) {
            buildFresh();
            return out;
        }
        store.fetchOrBuild(
            codec.prefix + key,
            [&](BinReader &r) {
                auto v = std::make_shared<V>();
                if (!codec.decode(r, *v) || !r.ok() ||
                    (accept && !accept(*v)))
                    return false;
                out = std::move(v);
                return true;
            },
            [&](BinWriter &w) {
                buildFresh();
                codec.encode(w, *out);
            });
        return out;
    }

    const Codec codec;
    SharedMutex mx;
    // lvplint: allow(determinism) -- keyed lookup map, never
    // iterated; every value is a deterministic function of its key
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots
        GUARDED_BY(mx);
    std::atomic<std::uint64_t> built{0};
};

} // namespace sim
} // namespace lvpsim
