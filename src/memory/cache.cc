#include "memory/cache.hh"

namespace lvpsim
{
namespace mem
{

std::size_t
Cache::setsOf(const CacheConfig &cfg)
{
    lvp_assert(isPowerOf2(cfg.blockSize), "block size not pow2");
    const std::size_t num_blocks = cfg.sizeBytes / cfg.blockSize;
    lvp_assert(num_blocks % cfg.assoc == 0, "bad geometry");
    const std::size_t sets = num_blocks / cfg.assoc;
    lvp_assert(isPowerOf2(sets), "sets not pow2");
    // Every set lies in one copy-on-write chunk, so an access checks
    // ownership once, not once per way.
    lvp_assert(CowArray<Line>::chunkSize % cfg.assoc == 0,
               "associativity must divide %zu", CowArray<Line>::chunkSize);
    return sets;
}

Cache::Cache(const CacheConfig &config)
    : cfg(config), blockShift(log2i(cfg.blockSize)), numSets(setsOf(cfg))
{
    st.lines.resize(numSets * cfg.assoc);
}

Cache::Cache(const CacheConfig &config, const State &s)
    : cfg(config), blockShift(log2i(cfg.blockSize)), numSets(setsOf(cfg)),
      st(s)
{
    lvp_assert(st.lines.size() == numSets * cfg.assoc,
               "%s: state of %zu lines for %zu", cfg.name.c_str(),
               st.lines.size(), numSets * cfg.assoc);
}

bool
Cache::probe(Addr addr)
{
    const std::size_t first = setOf(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);
    const Line *set = &st.lines[first];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            st.lines.writable(first)[w].lastUse = ++st.useClock;
            ++st.numHits;
            return true;
        }
    }
    ++st.numMisses;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    const Line *set = &st.lines[setOf(addr) * cfg.assoc];
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

Addr
Cache::fill(Addr addr, bool dirty, bool *writeback)
{
    if (writeback)
        *writeback = false;
    // A fill always writes a line of the set.
    Line *set = st.lines.writable(setOf(addr) * cfg.assoc);
    const Addr tag = tagOf(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = set[w];
        if (l.valid && l.tag == tag) {
            // Already present (e.g. racing prefetch); just update.
            l.dirty = l.dirty || dirty;
            l.lastUse = ++st.useClock;
            return 0;
        }
        if (!l.valid) {
            if (!victim || victim->valid)
                victim = &l;
        } else if (!victim ||
                   (victim->valid && l.lastUse < victim->lastUse)) {
            victim = &l;
        }
    }
    Addr evicted = 0;
    if (victim->valid && victim->dirty) {
        if (writeback)
            *writeback = true;
        evicted = victim->tag << blockShift;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lastUse = ++st.useClock;
    return evicted;
}

void
Cache::setDirty(Addr addr)
{
    const std::size_t first = setOf(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);
    const Line *set = &st.lines[first];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            // A store hit to a line that is already dirty writes
            // nothing, so it leaves a shared chunk shared.
            if (!set[w].dirty)
                st.lines.writable(first)[w].dirty = true;
            return;
        }
    }
}

void
Cache::invalidate(Addr addr)
{
    const std::size_t first = setOf(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);
    const Line *set = &st.lines[first];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            st.lines.writable(first)[w] = Line{};
            return;
        }
    }
}

} // namespace mem
} // namespace lvpsim
