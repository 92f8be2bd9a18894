/**
 * @file
 * Cycle-level, trace-driven out-of-order core model (paper Table III).
 *
 * The model is execute-at-fetch: architectural values come from the
 * trace; the core models timing only. It implements the value
 * prediction microarchitecture of the paper's Figure 1 - predictor
 * probe at fetch, VPE delivery to consumers, PAQ probes of the D-cache
 * on load-pipe bubbles for address predictions, validation when the
 * load executes, and flush-based misprediction recovery.
 *
 * Modeling notes (see DESIGN.md):
 *  - Fetch follows the correct path; a branch mispredict stalls fetch
 *    until the branch executes (wrong-path effects not modeled).
 *  - Branch predictors and global histories advance at first fetch of
 *    a trace index only, so re-fetched instructions after a value
 *    misprediction see a consistent (not rewound) history.
 *  - Stores write the cache model at execute; loads check the store
 *    queue for forwarding; a load that speculates past an unresolved
 *    older store to the same address triggers a memory-order flush,
 *    governed by the 21264-style wait-table predictor.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <vector>

#include "branch/ittage.hh"
#include "branch/ras.hh"
#include "branch/tage.hh"
#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "core/lvp_interface.hh"
#include "memory/hierarchy.hh"
#include "memory/memdep.hh"
#include "pipeline/core_config.hh"
#include "pipeline/sim_stats.hh"
#include "trace/instruction.hh"

namespace lvpsim
{
namespace pipe
{

/**
 * The architectural commit stream, one record per retired
 * instruction, in program order. Because the model is
 * execute-at-fetch, every field is architectural (from the trace) —
 * so two runs of the same trace through *any* predictor
 * configuration must produce bit-identical streams. The qa
 * differential harness hashes this stream across {no-VP, composite,
 * oracle} pipelines to catch squash/refetch bugs that would skip,
 * duplicate, or reorder commits.
 */
struct CommitRecord
{
    std::uint64_t traceIdx = 0;
    Addr pc = 0;
    trace::OpClass cls = trace::OpClass::Nop;
    Addr effAddr = 0;          ///< memory ops only; 0 for the rest
    std::uint8_t memSize = 0;
    Value value = 0;
};

class Core
{
  public:
    /**
     * @param cfg core configuration
     * @param code the dynamic trace to run (must outlive the core)
     * @param vp the load value predictor (not owned; may be nullptr
     *        for the no-VP baseline)
     */
    Core(const CoreConfig &cfg,
         const std::vector<trace::MicroOp> &code,
         LoadValuePredictor *vp);

    /**
     * Simulate until the trace is exhausted (or @p max_instrs have
     * committed) and return the run statistics. May be called after
     * warmup() (or restoreState()); statistics then cover only the
     * measurement region.
     */
    SimStats run(std::uint64_t max_instrs = 0);

    /**
     * Run the first @p n instructions with value prediction disabled
     * — caches, TLB, branch predictors and the memory dependence
     * predictor train normally, but the VP is never probed, notified
     * or trained — then freeze fetch and drain the pipeline so the
     * machine is quiescent (empty ROB/queues) at the measurement
     * boundary. A subsequent run() measures from this point; the
     * post-warmup state can also be captured with saveState() and
     * replayed into other cores (see sim::CheckpointCache).
     */
    void warmup(std::uint64_t n);

    /**
     * Fast-forward @p n instructions *functionally*: no cycle loop,
     * no queues — the trace streams straight through the substrate,
     * training the caches, TLB and prefetcher (at commit order) and
     * the branch predictors (the exact first-fetch training sequence
     * fetchOne() performs, so TAGE/ITTAGE/RAS state matches a
     * detailed pass bit for bit). The value predictor and the memory
     * dependence predictor are untouched, and no cycles elapse.
     *
     * This is the sampled-simulation fast-forward primitive
     * (docs/sampling.md): an order of magnitude cheaper than
     * warmup(), at the cost of timing-dependent substrate effects
     * (out-of-order access interleaving, wrong-path fills). Requires
     * a quiescent machine (fresh, post-warmup or post-restore with
     * empty queues); leaves it quiescent.
     */
    void functionalWarmup(std::uint64_t n);

    /**
     * Run the in-flight window dry after an early run() stop: freeze
     * fetch, simulate until every issued instruction commits or
     * squashes, then abandon() any predictor tokens still parked in
     * the refetch stash (their instructions will never be re-fetched
     * on this core). Leaves the machine quiescent and the attached
     * predictor free of per-token state, so a shared predictor can
     * move on to another core — the sampled-run driver does this
     * between representative segments (docs/sampling.md).
     */
    void drain();

    /** Substrate statistics (caches, TLB, branch predictors). */
    void dumpSubstrateStats(std::ostream &os) const;

    /**
     * Observe every commit, in retirement order. Costs one branch
     * per retired instruction when unset; used by the qa
     * differential harness, not by benches.
     */
    using CommitHook = std::function<void(const CommitRecord &)>;
    void setCommitHook(CommitHook fn) { commitHook = std::move(fn); }

    /**
     * Observe long-running simulations: fn(total committed
     * instructions) fires every @p every committed instructions,
     * from both the cycle loop and functionalWarmup(). Costs one
     * predictable compare per cycle when unset (every == 0
     * uninstalls). Reporting only — never part of checkpoints or
     * results.
     */
    using ProgressHook = std::function<void(std::uint64_t)>;
    void setProgressHook(std::uint64_t every, ProgressHook fn);

  private:
    struct Inflight
    {
        std::uint32_t traceIdx = 0;
        InstSeqNum seq = 0;
        Cycle fetchCycle = 0;
        Cycle minIssueCycle = 0;
        Cycle doneCycle = 0;
        bool inIQ = false;
        bool issued = false;
        bool done = false;

        /// Source producers, set at rename: seq 0 = no producer. Each
        /// is named by its ROB slot handle, valid while the slot still
        /// holds that seq (see liveOp).
        std::array<InstSeqNum, 3> depSeq{0, 0, 0};
        std::array<std::uint32_t, 3> depSlot{0, 0, 0};

        bool branchMispredicted = false;

        Prediction pred{};
        std::uint64_t token = 0;
        bool vpDelivered = false; ///< value reached the VPE
        Cycle vpReadyCycle = 0;
        bool vpWrong = false;
        bool paqPending = false;

        bool speculativeLoad = false; ///< issued past unresolved store

        template <class V>
        void
        fields(V &v)
        {
            v(traceIdx, seq, fetchCycle, minIssueCycle, doneCycle, inIQ,
              issued, done, depSeq, depSlot, branchMispredicted, pred,
              token, vpDelivered, vpReadyCycle, vpWrong, paqPending,
              speculativeLoad);
        }
    };

    /** A PAQ probe request; robSlot is its load's ROB slot handle. */
    struct PaqEntry
    {
        InstSeqNum seq = 0;
        Addr addr = 0;
        std::uint32_t robSlot = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(seq, addr, robSlot);
        }
    };

    /** LDQ/STQ bookkeeping record (addresses known from the trace);
     *  robSlot is the memory op's ROB slot handle. */
    struct MemQEntry
    {
        InstSeqNum seq = 0;
        Addr addr = 0;
        unsigned size = 0;
        std::uint32_t robSlot = 0;

        template <class V>
        void
        fields(V &v)
        {
            v(seq, addr, size, robSlot);
        }
    };

    /**
     * A squashed load's prediction, stashed by trace index. Real
     * hardware checkpoints and restores the branch/path histories on
     * a flush, so a re-fetched load sees the same context and gets
     * the same prediction; we model that by reusing the first-fetch
     * prediction (and its live predictor token) instead of re-probing
     * with a polluted history.
     */
    struct StashedPrediction
    {
        std::uint64_t token = 0;
        Prediction pred{};

        template <class V>
        void
        fields(V &v)
        {
            v(token, pred);
        }
    };

  public:
    /**
     * The core's own mutable state: fetch position, queues, rename
     * map and statistics. The substrate's state lives in its parts.
     */
    struct State
    {
        Cycle now = 0;
        std::uint64_t fetchIdx = 0;
        std::uint64_t contextIdx = 0; ///< history advanced for idx < this
        Cycle fetchResumeCycle = 0;
        bool fetchHalted = false; ///< mispredicted branch in flight
        bool fetchFrozen = false; ///< warmup drain: no new fetches
        bool vpActive = true;     ///< false during the warmup region
        InstSeqNum nextSeq = 1;
        std::uint64_t nextToken = 1;
        std::uint64_t committed = 0;
        std::uint64_t issuedNotDone = 0;

        // Pipeline queues: fixed-capacity rings sized from cfg in the
        // constructor, so the steady-state cycle loop never allocates
        // (see docs/performance.md).
        RingBuffer<Inflight> rob;
        RingBuffer<Inflight> fetchBuf;
        RingBuffer<PaqEntry> paq;
        RingBuffer<MemQEntry> ldq;
        RingBuffer<MemQEntry> stq;
        unsigned iqCount = 0;
        /// Issued loads that speculated past an unresolved older
        /// store and have not yet committed or squashed. Store issue
        /// only needs to scan the LDQ for order violations while this
        /// is non-zero.
        std::uint64_t specLoadsInFlight = 0;
        std::array<InstSeqNum, numArchRegs> lastWriter{};
        FlatMap<Addr, unsigned> inflightLoadPcs;
        /// Predictions of squashed loads, keyed by trace index.
        FlatMap<std::uint64_t, StashedPrediction> refetchStash;

        SimStats stats;

        template <class V>
        void
        fields(V &v)
        {
            v(now, fetchIdx, contextIdx, fetchResumeCycle, fetchHalted,
              fetchFrozen, vpActive, nextSeq, nextToken, committed,
              issuedNotDone, rob, fetchBuf, paq, ldq, stq, iqCount,
              specLoadsInFlight, lastWriter, inflightLoadPcs,
              refetchStash, stats);
        }
    };

    /**
     * The complete mutable state of the core and its substrate
     * (memory hierarchy, branch predictors, queues, rename map,
     * statistics). restoreState() into a core built with the *same*
     * CoreConfig and trace resumes execution bit-identically; the
     * attached value predictor is external wiring and is not part of
     * the snapshot. See sim::SimCheckpoint.
     */
    struct Snapshot
    {
        mem::MemoryHierarchy::Snapshot memory;
        mem::MemDepPredictor::State memdep;
        branch::Tage::State tage;
        branch::Ittage::State ittage;
        branch::ReturnAddressStack::State ras;
        State pipeline;

        template <class V>
        void
        fields(V &v)
        {
            v(memory, memdep, tage, ittage, ras, pipeline);
        }
    };

    /**
     * A core that starts in state @p from: bit-identical to
     * constructing one with the same arguments and calling
     * restoreState(from), but its caches are built straight from the
     * snapshot's (sharing its copy-on-write chunks), so no empty line
     * arrays are allocated, zeroed and dropped. @p from must have the
     * geometry of @p cfg (see snapshotShape in snapshot_io.hh).
     */
    Core(const CoreConfig &cfg,
         const std::vector<trace::MicroOp> &code,
         LoadValuePredictor *vp, const Snapshot &from);

    void saveState(Snapshot &s) const;
    void restoreState(const Snapshot &s);

  private:
    /** Both public constructors: fresh when @p from is nullptr. */
    Core(const CoreConfig &cfg,
         const std::vector<trace::MicroOp> &code,
         LoadValuePredictor *vp, const Snapshot *from);

    const trace::MicroOp &opOf(const Inflight &f) const
    {
        return code[f.traceIdx];
    }

    /** The cycle loop shared by run() and warmup(); simulates until
     *  the trace is exhausted and the machine is empty, or @p
     *  commit_target total instructions have committed (0 = no cap). */
    void simulate(std::uint64_t commit_target);

    // Pipeline stages (called once per cycle, oldest work first).
    bool commitStage();
    bool completeStage();
    bool issueStage(unsigned &ls_used);
    bool paqStage(unsigned ls_used);
    bool dispatchStage();
    bool fetchStage();

    // Helpers.
    /** The ROB op behind a slot handle, or nullptr once that op has
     *  left the ROB (the slot is empty or holds another seq). */
    Inflight *liveOp(std::uint32_t slot, InstSeqNum seq);
    const Inflight *liveOp(std::uint32_t slot, InstSeqNum seq) const;
    Cycle execLatency(const Inflight &f);
    void fetchOne();
    void squashYoungerThan(InstSeqNum oldest_squashed,
                           std::uint64_t new_fetch_idx);
    void rebuildRenameMap();
    void validateLoad(Inflight &f);
    void checkStoreOrderViolation(const Inflight &store);
    Cycle nextEventCycle() const;
    /** The furthest ahead of now any wakeup or completion can be
     *  due; sizes the calendars. */
    Cycle maxEventDelay() const;

    // Event-driven scheduling (see docs/performance.md).
    void scheduleOp(std::uint32_t slot);
    void waitOn(std::uint32_t consumer, std::uint32_t producer);
    void stopWaiting(std::uint32_t consumer);
    void wakeConsumers(std::uint32_t producer);
    void rebuildSchedule();

    /**
     * Pipeline invariants, compiled in via LVPSIM_ASSERTIONS (see
     * common/check.hh). checkCycleInvariants is O(1) and runs every
     * cycle: structure occupancies never exceed their configured
     * capacities (ROB/IQ/LDQ/STQ/PAQ/fetch buffer). The O(window)
     * structural cross-checks (seq ordering, queue/ROB sync, IQ
     * recount, and the scheduler's wakeup lists, ready list and
     * calendars against the ROB) run every `fullCheckPeriod` cycles.
     */
    void checkCycleInvariants() const;
    void checkFullInvariants() const;
    void checkScheduleInvariants() const;
    static constexpr Cycle fullCheckPeriod = 1024;

    bool rangesOverlap(Addr a, unsigned asz, Addr b, unsigned bsz) const
    {
        return a < b + bsz && b < a + asz;
    }

    // lvplint: allow(state-snapshot) -- construction-time config, immutable
    CoreConfig cfg;
    // lvplint: allow(state-snapshot) -- trace reference, owned by caller
    const std::vector<trace::MicroOp> &code;
    // lvplint: allow(state-snapshot) -- external wiring, not model state
    LoadValuePredictor *vp;
    // lvplint: allow(state-snapshot) -- stateless sink for vp calls
    NullPredictor nullVp;

    mem::MemoryHierarchy memory;
    mem::MemDepPredictor memdep;
    branch::Tage tage;
    branch::Ittage ittage;
    branch::ReturnAddressStack ras;

    State st;

    /// "No slot": a handle that is never live.
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /** A bit per ROB slot. Walking it from the ROB head visits set
     *  slots oldest first, so it doubles as an age-ordered list. */
    class SlotSet
    {
      public:
        void
        configure(std::size_t slots)
        {
            words.assign((slots + 63) / 64, 0);
        }
        void set(std::size_t s) { words[s >> 6] |= bit(s); }
        void reset(std::size_t s) { words[s >> 6] &= ~bit(s); }
        bool test(std::size_t s) const { return words[s >> 6] & bit(s); }

        /** Logical index (ROB position) of the oldest set slot at or
         *  after position @p from, or rob.size() if there is none. */
        std::size_t
        next(const RingBuffer<Inflight> &rob, std::size_t from) const
        {
            const std::size_t cap = rob.capacity();
            while (from < rob.size()) {
                const std::size_t p = rob.slotOf(from);
                const std::size_t b = p & 63;
                const std::uint64_t w = words[p >> 6] >> b;
                if (w)
                    return from + std::size_t(std::countr_zero(w));
                from += std::min<std::size_t>(64 - b, cap - p);
            }
            return rob.size();
        }

      private:
        static std::uint64_t bit(std::size_t s)
        {
            return std::uint64_t(1) << (s & 63);
        }
        std::vector<std::uint64_t> words;
    };

    /**
     * A timing wheel of ROB slots: one bucket per cycle for the next
     * span() cycles, each bucket a doubly linked list through per-slot
     * links (as the wakeup lists are), so push and removal are O(1)
     * and nothing allocates after configure(). Every entry is due
     * after now and less than span() cycles ahead, so a bucket holds
     * the events of one cycle only. A bit per bucket marks the
     * non-empty ones, so earliest() is a short bit scan.
     */
    class Calendar
    {
      public:
        void configure(std::size_t slots, std::size_t span);
        std::size_t span() const { return heads.size(); }
        std::size_t size() const { return count; }
        bool holds(std::uint32_t s) const { return links[s].at != 0; }
        /** The cycle @p s is due at (0 if it is not on the calendar). */
        Cycle at(std::uint32_t s) const { return links[s].at; }
        /** The first slot due at @p c, or noSlot. */
        std::uint32_t first(Cycle c) const { return heads[c & mask]; }

        /** Put @p s at the end of cycle @p c's bucket. */
        void
        append(std::uint32_t s, Cycle c, Cycle now)
        {
            place(s, c, now);
            const std::size_t b = c & mask;
            link(s, b, tails[b]);
        }

        /** Put @p s into cycle @p c's bucket in seq order, so the
         *  bucket pops oldest first. */
        void
        insert(std::uint32_t s, Cycle c, Cycle now, InstSeqNum seq)
        {
            place(s, c, now);
            links[s].seq = seq;
            const std::size_t b = c & mask;
            std::uint32_t after = tails[b];
            while (after != noSlot && links[after].seq > seq)
                after = links[after].prev;
            link(s, b, after);
        }

        /** Take @p s off the calendar, if it is on it. */
        void
        remove(std::uint32_t s)
        {
            Link &l = links[s];
            if (l.at == 0)
                return;
            const std::size_t b = l.at & mask;
            if (l.prev != noSlot)
                links[l.prev].next = l.next;
            else
                heads[b] = l.next;
            if (l.next != noSlot)
                links[l.next].prev = l.prev;
            else
                tails[b] = l.prev;
            if (heads[b] == noSlot)
                occupied[b >> 6] &= ~bit(b);
            l = Link{};
            --count;
        }

        /** Empty cycle @p c's bucket, calling fn(slot) for each. */
        template <class F>
        void
        drain(Cycle c, F &&fn)
        {
            const std::size_t b = c & mask;
            std::uint32_t s = heads[b];
            if (s == noSlot)
                return;
            heads[b] = tails[b] = noSlot;
            occupied[b >> 6] &= ~bit(b);
            while (s != noSlot) {
                const std::uint32_t next = links[s].next;
                links[s] = Link{};
                --count;
                fn(s);
                s = next;
            }
        }

        /** The earliest cycle with an entry (every entry is due after
         *  @p now), or the maximum Cycle if the calendar is empty. */
        Cycle earliest(Cycle now) const;

        /** Structural cross-check (checked builds): links, buckets,
         *  occupancy bits and count agree, every entry is due in
         *  (now, now + span()), and @p ordered buckets are in seq
         *  order. */
        void check(Cycle now, bool ordered) const;

      private:
        /** Events are due after now >= 0, so 0 marks a free slot. */
        struct Link
        {
            Cycle at = 0;
            InstSeqNum seq = 0;
            std::uint32_t next = noSlot;
            std::uint32_t prev = noSlot;
        };

        static std::uint64_t bit(std::size_t b)
        {
            return std::uint64_t(1) << (b & 63);
        }

        void
        place(std::uint32_t s, Cycle c, Cycle now)
        {
            lvp_assert(c > now && c - now < span(),
                       "event %llu cycles ahead is outside the "
                       "scheduler's %zu-cycle span",
                       static_cast<unsigned long long>(c - now), span());
            links[s].at = c;
            ++count;
        }

        /** Link @p s into bucket @p b after @p after (noSlot: at the
         *  head). */
        void
        link(std::uint32_t s, std::size_t b, std::uint32_t after)
        {
            Link &l = links[s];
            l.prev = after;
            if (after != noSlot) {
                l.next = links[after].next;
                links[after].next = s;
            } else {
                l.next = heads[b];
                heads[b] = s;
                occupied[b >> 6] |= bit(b);
            }
            if (l.next != noSlot)
                links[l.next].prev = s;
            else
                tails[b] = s;
        }

        std::vector<Link> links;          ///< per ROB slot
        std::vector<std::uint32_t> heads; ///< per bucket
        std::vector<std::uint32_t> tails; ///< per bucket
        std::vector<std::uint64_t> occupied;
        std::size_t mask = 0;
        std::size_t count = 0;
    };

    /** Wakeup-list links of one ROB slot: the op in it as a consumer
     *  waiting on producer slot `on` (a doubly linked list through
     *  next/prev), and as a producer, the first of its waiters. */
    struct WaitLinks
    {
        std::uint32_t on = noSlot;
        std::uint32_t next = noSlot;
        std::uint32_t prev = noSlot;
        std::uint32_t head = noSlot;
    };

    // The scheduler's indexes over st.rob. Every IQ op is in exactly
    // one place: on a producer's wakeup list (its operand-ready cycle
    // is not known yet), in `wakeups` (known, in the future), or in
    // `ready`. Issued ops wait for completion in `completions`, whose
    // buckets are in seq order.
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    SlotSet ready;
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    SlotSet iqSlots;
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    Calendar wakeups;
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    Calendar completions;
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    std::vector<WaitLinks> waits;
    /// ROB slot of each register's last writer (st.lastWriter's seq).
    // lvplint: allow(state-snapshot) -- derived from st.rob, rebuilt by restoreState
    std::array<std::uint32_t, numArchRegs> lastWriterSlot{};

    /**
     * Upper bound on in-flight instructions (ROB plus fetch buffer):
     * sizes inflightLoadPcs/refetchStash and bounds the predictor's
     * pending-snapshot count (every live token belongs to an
     * in-flight or stashed load).
     */
    std::size_t inflightWindow() const
    {
        return cfg.robSize + 2 * std::size_t(cfg.fetchWidth);
    }

    // lvplint: allow(state-snapshot) -- external wiring, not model state
    CommitHook commitHook;

    // Progress reporting (setProgressHook): external wiring plus a
    // cached next-fire threshold, none of it model state.
    // lvplint: allow(state-snapshot) -- external wiring, not model state
    ProgressHook progressHook;
    // lvplint: allow(state-snapshot) -- reporting cadence, not model state
    std::uint64_t progressEvery = 0;
    // Derived from progressEvery at install time and recomputed by
    // setProgressHook after any restore.
    std::uint64_t nextProgressAt =
        std::numeric_limits<std::uint64_t>::max();
};

} // namespace pipe
} // namespace lvpsim

