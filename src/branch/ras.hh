/**
 * @file
 * Return address stack (paper Table III: 16 entries).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace lvpsim
{
namespace branch
{

class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 16)
        : st{.entries = std::vector<Addr>(depth, 0)}
    {}

    void
    push(Addr return_addr)
    {
        st.top = (st.top + 1) % st.entries.size();
        st.entries[st.top] = return_addr;
        if (st.count < st.entries.size())
            ++st.count;
    }

    /** Pop a predicted return address; 0 if empty. */
    Addr
    pop()
    {
        if (st.count == 0)
            return 0;
        const Addr a = st.entries[st.top];
        st.top = (st.top + st.entries.size() - 1) % st.entries.size();
        --st.count;
        return a;
    }

    std::size_t depth() const { return st.count; }

    /** The stack is all mutable state; capacity rides in entries. */
    struct State
    {
        std::vector<Addr> entries;
        std::size_t top = 0;
        std::size_t count = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(entries, top, count);
        }

        /** push/pop index entries[top]: a decoded stack must keep
         *  top and count inside the ring. */
        bool
        wellFormed() const
        {
            if (entries.empty())
                return top == 0 && count == 0;
            return top < entries.size() && count <= entries.size();
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    State st;
};

} // namespace branch
} // namespace lvpsim

