/**
 * @file
 * Chunked copy-on-write array: a fixed-size sequence whose copies
 * share storage until one of them writes.
 *
 * The elements live in fixed-size chunks, each with an atomic
 * reference count. Copying an array copies its chunk pointers and
 * bumps their counts; the first write to a chunk that another array
 * still holds clones that one chunk. So a copy costs one pointer per
 * chunk, and a copy that later diverges pays only for the chunks it
 * writes. Each array also keeps one byte per chunk that says it is
 * known to own the chunk alone, so a write to an owned chunk reads
 * nothing outside the array; copying an array clears both sides'
 * bytes. The cache models keep their lines here (memory/cache.hh):
 * a checkpoint shares every chunk with the core it was saved from,
 * and consecutive checkpoints of one trace share every chunk the
 * simulation did not touch in between.
 *
 * Semantics:
 *  - value semantics, as std::vector: a copy never observes a later
 *    write to the original, nor the original one to the copy;
 *  - a chunk holds chunkSize elements, the largest power of two that
 *    fits 4 KiB, so index arithmetic is a shift and a mask;
 *  - a run of elements that does not cross a chunk boundary (a cache
 *    set, when chunkSize is a multiple of the associativity) is
 *    contiguous: writable(i) checks ownership once and returns a
 *    pointer to the rest of i's chunk;
 *  - thread safety is that of a std::vector: concurrent readers and
 *    copies of one const array are safe (a copy clears the source's
 *    ownership bytes with relaxed atomic stores), and so are writes
 *    to distinct arrays that share chunks (ownership is decided by
 *    an acquire load of the count, which every release publishes).
 */

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvpsim
{

template <typename T>
class CowArray
{
  public:
    /** Elements per chunk: a power of two. */
    static constexpr std::size_t chunkSize = std::bit_floor(4096 / sizeof(T));
    static_assert(chunkSize > 0, "element larger than a chunk");

    CowArray() = default;

    CowArray(const CowArray &o)
        : chunks(o.chunks), owned(chunks.size(), 0), count(o.count)
    {
        o.disown();
        for (Chunk *c : chunks)
            retain(c);
    }

    CowArray(CowArray &&o) noexcept
        : chunks(std::move(o.chunks)), owned(std::move(o.owned)),
          count(std::exchange(o.count, 0))
    {}

    CowArray &
    operator=(const CowArray &o)
    {
        if (this != &o) {
            // The vectors keep their capacity across restores.
            releaseAll();
            chunks = o.chunks;
            owned.assign(chunks.size(), 0);
            o.disown();
            for (Chunk *c : chunks)
                retain(c);
            count = o.count;
        }
        return *this;
    }

    CowArray &
    operator=(CowArray &&o) noexcept
    {
        if (this != &o) {
            releaseAll();
            chunks = std::move(o.chunks);
            owned = std::move(o.owned);
            o.chunks.clear();
            o.owned.clear();
            count = std::exchange(o.count, 0);
        }
        return *this;
    }

    ~CowArray() { releaseAll(); }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    const T &
    operator[](std::size_t i) const
    {
        return chunks[i / chunkSize]->elems[i % chunkSize];
    }

    /**
     * Writable pointer to element @p i; it stays valid, and the
     * elements after it up to the end of i's chunk stay reachable
     * through it, until this array is next copied, copied over,
     * resized or destroyed. Clones i's chunk first if another array
     * shares it.
     */
    T *
    writable(std::size_t i)
    {
        const std::size_t c = i / chunkSize;
        if (!std::atomic_ref(owned[c]).load(std::memory_order_relaxed))
            own(c);
        return &chunks[c]->elems[i % chunkSize];
    }

    /** Number of chunks: ceil(size() / chunkSize). */
    std::size_t numChunks() const { return chunks.size(); }

    /** The live elements of chunk @p c, read-only. */
    std::span<const T>
    chunk(std::size_t c) const
    {
        return {chunks[c]->elems.data(), chunkLength(c)};
    }

    /** The live elements of chunk @p c, cloned first if shared. */
    std::span<T>
    writableChunk(std::size_t c)
    {
        return {writable(c * chunkSize), chunkLength(c)};
    }

    /** How many chunk positions hold the very chunk @p o holds there. */
    std::size_t
    chunksSharedWith(const CowArray &o) const
    {
        std::size_t n = 0;
        const std::size_t m = std::min(chunks.size(), o.chunks.size());
        for (std::size_t c = 0; c < m; ++c)
            n += chunks[c] == o.chunks[c] ? 1 : 0;
        return n;
    }

    /** Resize to @p n elements; new ones are value-initialized. */
    void
    resize(std::size_t n)
    {
        // The last chunk's spare tail may hold elements from before a
        // shrink; reset the part that comes back into view.
        if (n > count && count % chunkSize != 0) {
            const std::size_t end =
                std::min(n, (count / chunkSize + 1) * chunkSize);
            T *tail = writable(count);
            std::fill(tail, tail + (end - count), T{});
        }
        const std::size_t want = (n + chunkSize - 1) / chunkSize;
        while (chunks.size() > want) {
            release(chunks.back());
            chunks.pop_back();
        }
        chunks.reserve(want);
        while (chunks.size() < want)
            chunks.push_back(new Chunk());
        owned.resize(want, 1);
        count = n;
    }

    /**
     * Replace the contents with @p n elements written chunk by chunk:
     * each new chunk is handed to @p fill as a std::span<T> of its
     * live elements as soon as it is allocated, while it is still in
     * cache. Those elements are not initialized first: @p fill must
     * write every one of them, also when it returns false. Once it
     * has returned false, the chunks after that one are left
     * value-initialized. Only what @p fill does not write is zeroed:
     * those chunks and the spare tail of the last one.
     */
    template <class Fill>
    void
    assign(std::size_t n, Fill &&fill)
    {
        releaseAll();
        const std::size_t want = (n + chunkSize - 1) / chunkSize;
        chunks.reserve(want);
        owned.assign(want, 1);
        count = n;
        bool filling = true;
        for (std::size_t c = 0; c < want; ++c) {
            if (!filling) {
                chunks.push_back(new Chunk());
                continue;
            }
            chunks.push_back(new Chunk(Chunk::unfilled));
            T *elems = chunks[c]->elems.data();
            const std::size_t len = chunkLength(c);
            std::fill(elems + len, elems + chunkSize, T{});
            filling = fill(std::span<T>(elems, len));
        }
    }

    void
    clear()
    {
        releaseAll();
        count = 0;
    }

  private:
    struct Chunk
    {
        struct Unfilled
        {
        };
        /** Tag: the elements are left for assign()'s fill to write. */
        static constexpr Unfilled unfilled{};

        Chunk() : elems{} {}
        explicit Chunk(const std::array<T, chunkSize> &e) : elems(e) {}
        explicit Chunk(Unfilled) {}

        std::atomic<std::uint32_t> refs{1};
        // In a union so that the Unfilled constructor runs no element
        // initializer (a plain member would run T's default member
        // initializers, which is the zeroing assign() skips).
        union
        {
            std::array<T, chunkSize> elems;
        };
    };
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "chunks are copied and dropped as plain bytes");

    static void
    retain(Chunk *c)
    {
        c->refs.fetch_add(1, std::memory_order_relaxed);
    }

    static void
    release(Chunk *c)
    {
        if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            delete c;
    }

    /**
     * Make chunk @p c this array's alone, cloning it if shared. Out of
     * line: it runs once per chunk after a copy, and inlined it would
     * copy the clone code into every cache access.
     */
    [[gnu::noinline]] void
    own(std::size_t c)
    {
        Chunk *&p = chunks[c];
        if (p->refs.load(std::memory_order_acquire) != 1) {
            Chunk *copy = new Chunk(p->elems);
            release(p);
            p = copy;
        }
        std::atomic_ref(owned[c]).store(1, std::memory_order_relaxed);
    }

    /**
     * A copy shares every chunk, so the source, too, must check a
     * chunk's count again before its next write to it.
     */
    void
    disown() const
    {
        // Read first: copying an array that owns nothing, such as a
        // checkpoint restored by many threads, writes nothing.
        for (std::uint8_t &o : owned) {
            std::atomic_ref flag(o);
            if (flag.load(std::memory_order_relaxed))
                flag.store(0, std::memory_order_relaxed);
        }
    }

    std::size_t
    chunkLength(std::size_t c) const
    {
        return std::min(chunkSize, count - c * chunkSize);
    }

    void
    releaseAll()
    {
        for (Chunk *c : chunks)
            release(c);
        chunks.clear();
        owned.clear();
    }

    std::vector<Chunk *> chunks;
    /** Per chunk: 1 when no other array holds it (a hint: 0 is safe). */
    mutable std::vector<std::uint8_t> owned;
    std::size_t count = 0;
};

} // namespace lvpsim
