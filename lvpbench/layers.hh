/**
 * @file
 * Probes for the benchmark's traced run (README.md, "Per-layer
 * metrics"). Everything here times calls into the simulator's public
 * API from outside: a LoadValuePredictor decorator for the predictor
 * layer, standalone replays of a kernel's branch and memory streams
 * (Core owns its own copies privately), and call-boundary timers for
 * the trace, pipeline and sim layers. No probe changes a simulated
 * result; the benchmark checks that by hashing.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "core/lvp_interface.hh"
#include "pipeline/sim_stats.hh"
#include "sim/experiment.hh"

namespace lvpbench
{

/** Predictor-call totals, merged from every TimedPredictor. */
class VpLedger
{
  public:
    void add(std::uint64_t calls, std::uint64_t predicts,
             std::uint64_t useful, std::uint64_t ns) EXCLUDES(mx);

    std::uint64_t calls() const EXCLUDES(mx);
    std::uint64_t predicts() const EXCLUDES(mx);
    /** Trained outcomes whose prediction was used and correct. */
    std::uint64_t useful() const EXCLUDES(mx);
    std::uint64_t ns() const EXCLUDES(mx);

  private:
    mutable lvpsim::Mutex mx;
    std::uint64_t nCalls GUARDED_BY(mx) = 0;
    std::uint64_t nPredicts GUARDED_BY(mx) = 0;
    std::uint64_t nUseful GUARDED_BY(mx) = 0;
    std::uint64_t nNs GUARDED_BY(mx) = 0;
};

/**
 * Forwards every call to the wrapped predictor and times it. Counts
 * are kept locally and merged into the ledger when the decorator is
 * destroyed, so cells running on several workers never contend.
 */
class TimedPredictor : public lvpsim::pipe::LoadValuePredictor
{
  public:
    TimedPredictor(std::unique_ptr<lvpsim::pipe::LoadValuePredictor> inner,
                   VpLedger &ledger);
    ~TimedPredictor() override;

    TimedPredictor(const TimedPredictor &) = delete;
    TimedPredictor &operator=(const TimedPredictor &) = delete;

    lvpsim::pipe::Prediction
    predict(const lvpsim::pipe::LoadProbe &probe) override;
    void train(const lvpsim::pipe::LoadOutcome &outcome) override;
    void abandon(std::uint64_t token) override;
    void notifyBranch(lvpsim::Addr pc, bool taken,
                      lvpsim::Addr target) override;
    void notifyLoad(lvpsim::Addr pc) override;
    void onRetire(std::uint64_t n) override;
    std::size_t pendingProbes() const override;
    std::size_t pendingProbesPeak() const override;
    std::uint64_t storageBits() const override;
    const char *name() const override;

  private:
    std::unique_ptr<lvpsim::pipe::LoadValuePredictor> inner;
    VpLedger &ledger;
    std::uint64_t calls = 0;
    std::uint64_t predicts = 0;
    std::uint64_t useful = 0;
    std::uint64_t ns = 0;
};

/** What the layer probes need to know about the workload. */
struct ProbeInput
{
    std::vector<std::string> kernels;
    /** Trace length every kernel was synthesized at. */
    std::size_t traceLen = 0;
    std::uint64_t seed = 1;
    /** The composite configuration the workload's VP cells use. */
    lvpsim::sim::PredictorFactory makeVp;
    /** Sampling parameters of the plan and interval probes. */
    std::size_t sampleK = 8;
    std::size_t intervalLen = 1000;
    /** Directory for the probe's temporary checkpoint store. */
    std::string storeDir;
    /** Pass-0 results of the workload's cells, for the JSON probe. */
    std::vector<lvpsim::pipe::SimStats> resultRows;
};

/**
 * Replay each kernel's streams through the trace, branch, memory,
 * pipeline and sim layers in isolation and add one entry per
 * per-layer metric to @p out (README.md lists them). Kernel traces
 * must already be in TraceCache. The process-wide store is pointed
 * at input.storeDir for the store probe and disabled again after;
 * sim.store_misses and sim.store_hits are its fill and read-back.
 * Checkpoint and plan memos are cleared on the way out.
 */
void probeLayers(const ProbeInput &input,
                 std::map<std::string, double> &out);

} // namespace lvpbench
