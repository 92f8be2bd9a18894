/**
 * @file
 * Fixed-capacity circular buffer with the deque-like subset of API
 * the pipeline queues need (see docs/performance.md).
 *
 * The cycle-level core pushes/pops its queues (ROB, fetch buffer,
 * PAQ, LDQ, STQ) millions of times per simulated second. std::deque
 * allocates and frees ~512-byte blocks as the queue head chases the
 * tail through memory, and its segmented layout defeats both the
 * hardware prefetcher and the binary searches the core runs over the
 * ROB. This buffer stores elements in one contiguous power-of-two
 * allocation sized once from CoreConfig, so steady-state push/pop is
 * two index updates and iteration is a masked linear walk.
 *
 * Semantics:
 *  - capacity is fixed by configure() (or the sizing constructor);
 *    pushing beyond it is a checked error (lvp_assert), because every
 *    core queue is bounded by config and checked before push.
 *  - elements never move: push/pop invalidate no references to other
 *    elements (index-stable). Iterators address logical positions
 *    (front-relative), so pop_front shifts what position 0 names --
 *    same as indexing a deque.
 *  - iterators are random-access, so std::lower_bound over a seq-
 *    sorted ring works and is fast (contiguous probes).
 *  - because elements never move, a physical slot number is a stable
 *    handle for as long as its element is live: slotOf(i) names the
 *    element at logical index i, liveSlot(p) says whether slot p holds
 *    a live element, and atSlot(p) reaches it in O(1). A popped slot
 *    is reused by a later push, so a handle must be paired with an
 *    identity check (the core compares sequence numbers).
 */

#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace lvpsim
{

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity) { configure(capacity); }

    /**
     * Size the buffer for @p capacity elements (rounded up to a power
     * of two internally) and empty it. Not for use while elements are
     * live; the core calls this once at construction.
     */
    void configure(std::size_t capacity)
    {
        lvp_assert(capacity > 0, "ring buffer needs capacity");
        const std::size_t slots_n =
            std::size_t(1) << ceilLog2(capacity);
        slots.assign(slots_n, T{});
        maskBits = slots_n - 1;
        head = 0;
        count = 0;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    /** Physical slot count (>= the capacity configure() was given). */
    std::size_t capacity() const { return slots.size(); }

    T &operator[](std::size_t i) { return slots[(head + i) & maskBits]; }
    const T &operator[](std::size_t i) const
    {
        return slots[(head + i) & maskBits];
    }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }
    T &back() { return slots[(head + count - 1) & maskBits]; }
    const T &back() const
    {
        return slots[(head + count - 1) & maskBits];
    }

    /** Physical slot of the element at logical index @p i. */
    std::size_t slotOf(std::size_t i) const
    {
        return (head + i) & maskBits;
    }

    /** True iff slot @p p currently holds a live element. */
    bool liveSlot(std::size_t p) const
    {
        return p < slots.size() && ((p - head) & maskBits) < count;
    }

    /** The element in slot @p p (which must be live, see liveSlot). */
    T &atSlot(std::size_t p) { return slots[p]; }
    const T &atSlot(std::size_t p) const { return slots[p]; }

    void push_back(const T &v)
    {
        lvp_assert(count < slots.size(), "ring buffer overflow");
        slots[(head + count) & maskBits] = v;
        ++count;
    }

    void push_back(T &&v)
    {
        lvp_assert(count < slots.size(), "ring buffer overflow");
        slots[(head + count) & maskBits] = std::move(v);
        ++count;
    }

    void pop_front()
    {
        lvp_assert(count > 0, "pop_front on empty ring buffer");
        head = (head + 1) & maskBits;
        --count;
    }

    void pop_back()
    {
        lvp_assert(count > 0, "pop_back on empty ring buffer");
        --count;
    }

    void clear()
    {
        head = 0;
        count = 0;
    }

    template <bool Const>
    class Iter
    {
        using BufPtr =
            std::conditional_t<Const, const RingBuffer *, RingBuffer *>;

      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = std::conditional_t<Const, const T &, T &>;
        using pointer = std::conditional_t<Const, const T *, T *>;

        Iter() = default;
        Iter(BufPtr b, std::size_t p) : buf(b), pos(p) {}
        /** iterator -> const_iterator conversion. */
        template <bool C = Const, typename = std::enable_if_t<C>>
        Iter(const Iter<false> &o) : buf(o.buf), pos(o.pos)
        {
        }

        reference operator*() const { return (*buf)[pos]; }
        pointer operator->() const { return &(*buf)[pos]; }
        reference operator[](difference_type n) const
        {
            return (*buf)[pos + std::size_t(n)];
        }

        Iter &operator++() { ++pos; return *this; }
        Iter operator++(int) { Iter t = *this; ++pos; return t; }
        Iter &operator--() { --pos; return *this; }
        Iter operator--(int) { Iter t = *this; --pos; return t; }
        Iter &operator+=(difference_type n)
        {
            pos = std::size_t(difference_type(pos) + n);
            return *this;
        }
        Iter &operator-=(difference_type n) { return *this += -n; }
        friend Iter operator+(Iter it, difference_type n)
        {
            return it += n;
        }
        friend Iter operator+(difference_type n, Iter it)
        {
            return it += n;
        }
        friend Iter operator-(Iter it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type operator-(const Iter &a, const Iter &b)
        {
            return difference_type(a.pos) - difference_type(b.pos);
        }

        friend bool operator==(const Iter &a, const Iter &b)
        {
            return a.pos == b.pos;
        }
        friend bool operator!=(const Iter &a, const Iter &b)
        {
            return a.pos != b.pos;
        }
        friend bool operator<(const Iter &a, const Iter &b)
        {
            return a.pos < b.pos;
        }
        friend bool operator>(const Iter &a, const Iter &b)
        {
            return a.pos > b.pos;
        }
        friend bool operator<=(const Iter &a, const Iter &b)
        {
            return a.pos <= b.pos;
        }
        friend bool operator>=(const Iter &a, const Iter &b)
        {
            return a.pos >= b.pos;
        }

      private:
        friend class Iter<true>;
        BufPtr buf = nullptr;
        std::size_t pos = 0; ///< logical (front-relative) position
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }
    const_iterator cbegin() const { return begin(); }
    const_iterator cend() const { return end(); }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator rend() const
    {
        return const_reverse_iterator(begin());
    }

  private:
    std::vector<T> slots;
    std::size_t maskBits = 0;
    std::size_t head = 0; ///< physical index of the front element
    std::size_t count = 0;
};

} // namespace lvpsim

