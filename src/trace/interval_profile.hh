/**
 * @file
 * One-pass interval profiling for sampled simulation
 * (docs/sampling.md).
 *
 * The profiler streams a dynamic instruction trace once and cuts it
 * into fixed-length intervals; for each interval it emits a compact
 * integer signature vector:
 *
 *  - a BBV-style code signature: every instruction hashes its
 *    64-byte PC block (FNV-1a) into one of `pcDims` buckets, so the
 *    bucket histogram fingerprints *where* the interval executes
 *    (the classic SimPoint basic-block-vector idea, without needing
 *    static basic-block discovery on a trace);
 *  - load-locality features: the log2-magnitude of successive
 *    predictable-load address deltas, bucketed into `strideDims`
 *    bins, so intervals with the same code but different memory
 *    behavior (streaming vs pointer-chasing phases) separate.
 *
 * Signatures are normalized group-wise to a fixed-point sum of
 * 1 << 16, all in integer arithmetic, so the downstream k-means
 * (sim/sample_plan.hh) is bit-stable across platforms and the
 * partial tail interval is directly comparable to full ones.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/instruction.hh"
#include "trace/trace_source.hh"

namespace lvpsim
{
namespace trace
{

/** One interval's normalized signature plus its raw size. */
struct IntervalSignature
{
    static constexpr std::size_t pcDims = 64;
    static constexpr std::size_t strideDims = 16;
    static constexpr std::size_t dims = pcDims + strideDims;
    /** Fixed-point scale each feature group is normalized to. */
    static constexpr std::uint32_t fixedOne = 1u << 16;

    std::array<std::uint32_t, dims> v{};
    std::uint64_t instructions = 0; ///< raw interval length
    std::uint64_t loads = 0;        ///< predictable loads observed
};

/** The whole trace, cut into intervals (last one may be partial). */
struct IntervalProfile
{
    std::uint64_t intervalLen = 0;
    std::uint64_t totalInstructions = 0;
    std::vector<IntervalSignature> intervals;
};

/**
 * Streaming interval profiler: feed every instruction in program
 * order via observe(), then finish() to flush the partial tail and
 * take the profile.
 */
class IntervalProfiler
{
  public:
    explicit IntervalProfiler(std::uint64_t interval_len);

    /** Account one instruction to the current interval. */
    void observe(const MicroOp &op);

    /** Flush the partial tail interval and take the profile; the
     *  profiler is empty (but reusable) afterwards. */
    IntervalProfile finish();

    /** Instructions observed since construction / the last finish(). */
    std::uint64_t observed() const { return profile.totalInstructions; }

  private:
    void closeInterval();

    std::uint64_t intervalLen;

    std::array<std::uint64_t, IntervalSignature::pcDims> pcCounts{};
    std::array<std::uint64_t, IntervalSignature::strideDims>
        strideCounts{};
    std::uint64_t instrsInInterval = 0;
    std::uint64_t loadsInInterval = 0;
    Addr lastLoadAddr = 0;
    bool haveLastLoad = false;
    /// The last op's PC block and its bucket: a cache of the block
    /// hash, so no reset is needed. `pc >> 6` never reaches ~0.
    Addr lastBlock = ~Addr(0);
    std::size_t lastBucket = 0;
    IntervalProfile profile;
};

/** Profile an already-materialized trace in one pass. */
IntervalProfile profileTrace(const std::vector<MicroOp> &ops,
                             std::uint64_t interval_len);

/** Profile any TraceSource in one streaming pass (resets it first). */
IntervalProfile profileTrace(TraceSource &src,
                             std::uint64_t interval_len);

} // namespace trace
} // namespace lvpsim
