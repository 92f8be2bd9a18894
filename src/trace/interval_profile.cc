#include "trace/interval_profile.hh"

#include <bit>

#include "common/logging.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

/** FNV-1a over the 8 little-endian bytes of a 64-bit word; the same
 *  hash family trace_io uses for trace content identity. */
std::uint64_t
fnv1a64(std::uint64_t x)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Bucket a load-address delta by log2 magnitude: 0 for a repeat
 *  (delta 0), else 1 + floor(log2 |delta|), clamped to the last
 *  bucket. Sign is ignored — locality, not direction. */
std::size_t
strideBucket(std::uint64_t prev, std::uint64_t cur)
{
    const std::uint64_t d = cur >= prev ? cur - prev : prev - cur;
    if (d == 0)
        return 0;
    const std::size_t b = std::size_t(std::bit_width(d));
    return b < IntervalSignature::strideDims
               ? b
               : IntervalSignature::strideDims - 1;
}

/** Normalize one feature group to a fixed-point sum of fixedOne
 *  (integer floor division; an all-zero group stays zero). */
template <std::size_t N>
void
normalizeGroup(const std::array<std::uint64_t, N> &raw,
               std::uint32_t *out)
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : raw)
        sum += c;
    if (sum == 0) {
        for (std::size_t i = 0; i < N; ++i)
            out[i] = 0;
        return;
    }
    for (std::size_t i = 0; i < N; ++i)
        out[i] = std::uint32_t(
            (raw[i] * std::uint64_t(IntervalSignature::fixedOne)) /
            sum);
}

} // anonymous namespace

IntervalProfiler::IntervalProfiler(std::uint64_t interval_len)
    : intervalLen(interval_len)
{
    lvp_assert(interval_len > 0,
               "interval length must be positive");
    profile.intervalLen = interval_len;
}

void
IntervalProfiler::observe(const MicroOp &op)
{
    // Consecutive ops mostly share a 64-byte block: hash each block
    // once per run of ops in it.
    const Addr block = op.pc >> 6;
    if (block != lastBlock) {
        lastBlock = block;
        lastBucket = fnv1a64(block) % IntervalSignature::pcDims;
    }
    ++pcCounts[lastBucket];
    if (op.isPredictableLoad()) {
        if (haveLastLoad)
            ++strideCounts[strideBucket(lastLoadAddr, op.effAddr)];
        lastLoadAddr = op.effAddr;
        haveLastLoad = true;
        ++loadsInInterval;
    }
    ++instrsInInterval;
    ++profile.totalInstructions;
    if (instrsInInterval == intervalLen)
        closeInterval();
}

void
IntervalProfiler::closeInterval()
{
    IntervalSignature sig;
    normalizeGroup(pcCounts, sig.v.data());
    normalizeGroup(strideCounts,
                   sig.v.data() + IntervalSignature::pcDims);
    sig.instructions = instrsInInterval;
    sig.loads = loadsInInterval;
    profile.intervals.push_back(sig);

    pcCounts.fill(0);
    strideCounts.fill(0);
    instrsInInterval = 0;
    loadsInInterval = 0;
    // lastLoadAddr deliberately carries across the boundary: the
    // first delta of an interval is real locality information.
}

IntervalProfile
IntervalProfiler::finish()
{
    if (instrsInInterval > 0)
        closeInterval();
    IntervalProfile out = std::move(profile);
    profile = IntervalProfile{};
    profile.intervalLen = intervalLen;
    lastLoadAddr = 0;
    haveLastLoad = false;
    return out;
}

IntervalProfile
profileTrace(const std::vector<MicroOp> &ops,
             std::uint64_t interval_len)
{
    IntervalProfiler p(interval_len);
    for (const MicroOp &op : ops)
        p.observe(op);
    return p.finish();
}

IntervalProfile
profileTrace(TraceSource &src, std::uint64_t interval_len)
{
    IntervalProfiler p(interval_len);
    src.reset();
    MicroOp op;
    while (src.next(op))
        p.observe(op);
    return p.finish();
}

} // namespace trace
} // namespace lvpsim
