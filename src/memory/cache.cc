#include "memory/cache.hh"

namespace lvpsim
{
namespace mem
{

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    lvp_assert(isPowerOf2(cfg.blockSize), "block size not pow2");
    blockShift = log2i(cfg.blockSize);
    const std::size_t num_blocks = cfg.sizeBytes / cfg.blockSize;
    lvp_assert(num_blocks % cfg.assoc == 0, "bad geometry");
    numSets = num_blocks / cfg.assoc;
    lvp_assert(isPowerOf2(numSets), "sets not pow2");
    st.lines.assign(num_blocks, Line{});
}

bool
Cache::probe(Addr addr)
{
    const std::size_t s = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = st.lines[s * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            l.lastUse = ++st.useClock;
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
    const std::size_t s = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const Line &l = st.lines[s * cfg.assoc + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

Addr
Cache::fill(Addr addr, bool dirty, bool *writeback)
{
    if (writeback)
        *writeback = false;
    const std::size_t s = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = st.lines[s * cfg.assoc + w];
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
    const std::size_t s = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = st.lines[s * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            l.dirty = true;
            return;
        }
    }
}

void
Cache::invalidate(Addr addr)
{
    const std::size_t s = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = st.lines[s * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            l = Line{};
            return;
        }
    }
}

} // namespace mem
} // namespace lvpsim
