/** Fixture: checkpointable class with a member missing from its
 *  saveState/restoreState pair (`hits` is the seeded violation), and
 *  a State whose fields() list skips a member (`clock` is the second
 *  seeded violation). */

#pragma once

#include <cstdint>
#include <vector>

namespace fixture
{

class Counter
{
  public:
    struct State
    {
        std::vector<std::uint64_t> table;
        std::uint64_t clock = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(table);
        }
    };

    void saveState(State &s) const { s = st; }
    void restoreState(const State &s) { st = s; }

  private:
    State st;
    std::uint64_t hits = 0;
};

} // namespace fixture
