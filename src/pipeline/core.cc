#include "pipeline/core.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace lvpsim
{
namespace pipe
{

using trace::MicroOp;
using trace::OpClass;

Core::Core(const CoreConfig &config,
           const std::vector<trace::MicroOp> &trace_code,
           LoadValuePredictor *predictor)
    : Core(config, trace_code, predictor, nullptr)
{
}

Core::Core(const CoreConfig &config,
           const std::vector<trace::MicroOp> &trace_code,
           LoadValuePredictor *predictor, const Snapshot &from)
    : Core(config, trace_code, predictor, &from)
{
}

Core::Core(const CoreConfig &config,
           const std::vector<trace::MicroOp> &trace_code,
           LoadValuePredictor *predictor, const Snapshot *from)
    : cfg(config), code(trace_code),
      vp(predictor ? predictor : &nullVp),
      memory(from ? mem::MemoryHierarchy(cfg.memory, from->memory)
                  : mem::MemoryHierarchy(cfg.memory)),
      tage(cfg.tage, cfg.seed ^ 0x7a9e),
      ittage(cfg.ittage, cfg.seed ^ 0x177a9e), ras(cfg.rasDepth),
      st(from ? from->pipeline : State{})
{
    if (from) {
        memdep.restoreState(from->memdep);
        tage.restoreState(from->tage);
        ittage.restoreState(from->ittage);
        ras.restoreState(from->ras);
    } else {
        st.rob.configure(cfg.robSize);
        st.fetchBuf.configure(2 * cfg.fetchWidth);
        st.paq.configure(cfg.paqSize);
        st.ldq.configure(cfg.ldqSize);
        st.stq.configure(cfg.stqSize);
        // Both maps are bounded by the in-flight window (the stash
        // only ever holds trace indices that are still ahead of
        // fetchIdx, see squashYoungerThan); pre-sizing makes them
        // allocation-free.
        st.inflightLoadPcs.reserve(inflightWindow());
        st.refetchStash.reserve(inflightWindow());
    }
    rebuildSchedule();
}

const Core::Inflight *
Core::liveOp(std::uint32_t slot, InstSeqNum seq) const
{
    if (!st.rob.liveSlot(slot))
        return nullptr;
    const Inflight &f = st.rob.atSlot(slot);
    return f.seq == seq ? &f : nullptr;
}

Core::Inflight *
Core::liveOp(std::uint32_t slot, InstSeqNum seq)
{
    return const_cast<Inflight *>(std::as_const(*this).liveOp(slot, seq));
}

Cycle
Core::execLatency(const Inflight &f)
{
    const MicroOp &op = opOf(f);
    switch (op.cls) {
      case OpClass::IntAlu: return cfg.intAluLat;
      case OpClass::IntMul: return cfg.intMulLat;
      case OpClass::IntDiv: return cfg.intDivLat;
      case OpClass::FpAlu: return cfg.fpLat;
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Ret:
      case OpClass::IndirBr: return cfg.branchLat;
      case OpClass::Store: return cfg.storeLat;
      case OpClass::Barrier:
      case OpClass::Nop: return 1;
      case OpClass::Load: return 0; // resolved in issueStage
    }
    return 1;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

bool
Core::commitStage()
{
    unsigned n = 0;
    while (!st.rob.empty() && n < cfg.retireWidth) {
        Inflight &f = st.rob.front();
        if (!f.done || f.doneCycle > st.now)
            break;
        const MicroOp &op = opOf(f);

        ++st.stats.instructions;
        if (op.isLoad()) {
            ++st.stats.loads;
            lvp_assert(!st.ldq.empty() && st.ldq.front().seq == f.seq,
                       "LDQ out of sync");
            st.ldq.pop_front();
            if (f.speculativeLoad)
                --st.specLoadsInFlight;
            auto it = st.inflightLoadPcs.find(op.pc);
            if (it != st.inflightLoadPcs.end() && --it->second == 0)
                st.inflightLoadPcs.erase(it);
            if (op.isPredictableLoad()) {
                ++st.stats.eligibleLoads;
                const bool used =
                    f.vpDelivered && f.vpReadyCycle <= f.doneCycle;
                if (used) {
                    ++st.stats.predictionsUsed;
                    const auto c = std::size_t(f.pred.component);
                    if (f.vpWrong) {
                        ++st.stats.predictionsWrong;
                        if (c < st.stats.wrongByComponent.size())
                            ++st.stats.wrongByComponent[c];
                    } else {
                        ++st.stats.predictionsCorrect;
                    }
                    if (c < st.stats.usedByComponent.size())
                        ++st.stats.usedByComponent[c];
                }
                LoadOutcome out;
                out.pc = op.pc;
                out.token = f.token;
                out.effAddr = op.effAddr;
                out.size = op.memSize;
                out.value = op.memValue;
                out.predictionUsed = used;
                out.predictionCorrect = used && !f.vpWrong;
                if (st.vpActive)
                    vp->train(out);
            } else if (f.token != 0) {
                vp->abandon(f.token);
            }
        } else if (op.isStore()) {
            ++st.stats.stores;
            lvp_assert(!st.stq.empty() && st.stq.front().seq == f.seq,
                       "STQ out of sync");
            st.stq.pop_front();
        } else if (op.isBranch()) {
            ++st.stats.branches;
        }
        if (commitHook) {
            CommitRecord rec;
            rec.traceIdx = f.traceIdx;
            rec.pc = op.pc;
            rec.cls = op.cls;
            rec.effAddr = op.memAddr();
            rec.memSize = op.memSize;
            rec.value = op.memValue;
            commitHook(rec);
        }
        st.rob.pop_front();
        ++st.committed;
        ++n;
    }
    if (n > 0 && st.vpActive)
        vp->onRetire(n);
    return n > 0;
}

// --------------------------------------------------------------------
// Completion (execution results become visible)
// --------------------------------------------------------------------

void
Core::validateLoad(Inflight &f)
{
    // Validation happens when the load executes (paper Section III-A).
    // Only predictions that were delivered in time can have poisoned
    // consumers; late or dropped predictions are harmless.
    if (!f.vpDelivered || f.vpReadyCycle > f.doneCycle)
        return;
    if (!f.vpWrong)
        return;
    ++st.stats.vpFlushes;
    // Flush everything younger; refetch from the next instruction.
    squashYoungerThan(f.seq + 1, f.traceIdx + 1);
    st.fetchResumeCycle = std::max(st.fetchResumeCycle, f.doneCycle + 1);
}

bool
Core::completeStage()
{
    // Ops completing in the same cycle pop oldest first: validating
    // an older load may squash the younger ones mid-batch, which
    // drops them from the calendar.
    bool any = false;
    for (std::uint32_t slot = completions.first(st.now); slot != noSlot;
         slot = completions.first(st.now)) {
        completions.remove(slot);
        Inflight &f = st.rob.atSlot(slot);
        f.done = true;
        --st.issuedNotDone;
        any = true;
        wakeConsumers(slot);
        const MicroOp &op = opOf(f);

        if (f.branchMispredicted) {
            // The front end may resume along the correct path.
            st.fetchHalted = false;
            st.fetchResumeCycle = std::max(st.fetchResumeCycle, st.now + 1);
        }
        if (op.isLoad()) {
            f.paqPending = false; // probe is useless after execute
            validateLoad(f); // may squash ops younger than f
        }
    }
    return any;
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

bool
Core::issueStage(unsigned &ls_used)
{
    unsigned issued_count = 0;
    unsigned alu_used = 0;
    ls_used = 0;
    if (st.iqCount == 0)
        return false;

    // Ops whose operands and front-end delay are due join the ready
    // list at the start of the cycle.
    wakeups.drain(st.now, [&](std::uint32_t slot) { ready.set(slot); });

    const unsigned alu_lanes = cfg.issueWidth - cfg.lsLanes;

    // Oldest first over the ready list only: everything on it has its
    // operands and is past minIssueCycle, so the remaining tests are
    // the per-cycle issue rules.
    for (std::size_t i = ready.next(st.rob, 0);
         i < st.rob.size() && issued_count < cfg.issueWidth;
         i = ready.next(st.rob, i + 1)) {
        const std::uint32_t slot = std::uint32_t(st.rob.slotOf(i));
        Inflight &f = st.rob.atSlot(slot);
        const MicroOp &op = opOf(f);
        const bool is_ls = op.isLoad() || op.isStore();
        if (is_ls && ls_used >= cfg.lsLanes)
            continue;
        if (!is_ls && alu_used >= alu_lanes)
            continue;
        if (op.cls == OpClass::Barrier && i != 0)
            continue; // barriers issue only when oldest

        Cycle lat = execLatency(f);

        if (op.isLoad()) {
            // Check the store queue for an older overlapping store
            // (addresses are perfectly known; the *policy* is governed
            // by the memory dependence predictor).
            const MemQEntry *conflict = nullptr;
            for (auto it = st.stq.rbegin(); it != st.stq.rend(); ++it) {
                if (it->seq >= f.seq)
                    continue;
                if (rangesOverlap(op.effAddr, op.memSize, it->addr,
                                  it->size)) {
                    conflict = &*it;
                    break;
                }
            }
            if (conflict) {
                const Inflight *store =
                    liveOp(conflict->robSlot, conflict->seq);
                const bool resolved = store && store->issued;
                if (!resolved) {
                    if (memdep.shouldWait(op.pc))
                        continue; // hold the load in the IQ
                    f.speculativeLoad = true;
                    ++st.specLoadsInFlight;
                    const auto res =
                        memory.dataAccess(op.pc, op.effAddr, false);
                    lat = 1 + res.latency;
                } else {
                    lat = 1 + cfg.stlfLat; // store-to-load forwarding
                }
            } else {
                const auto res =
                    memory.dataAccess(op.pc, op.effAddr, false);
                lat = 1 + res.latency;
            }
        } else if (op.isStore()) {
            memory.dataAccess(op.pc, op.effAddr, true);
        }

        f.inIQ = false;
        f.issued = true;
        f.doneCycle = st.now + std::max<Cycle>(1, lat);
        ready.reset(slot);
        iqSlots.reset(slot);
        completions.insert(slot, f.doneCycle, st.now, f.seq);
        --st.iqCount;
        ++st.issuedNotDone;
        ++issued_count;
        if (is_ls)
            ++ls_used;
        else
            ++alu_used;

        if (op.isStore())
            checkStoreOrderViolation(f); // may squash younger ops
    }
    return issued_count > 0;
}

void
Core::checkStoreOrderViolation(const Inflight &store)
{
    // A younger load that already executed speculatively past this
    // then-unresolved store read stale data: memory-order flush,
    // replaying from the load itself. Only loads flagged speculative
    // at issue can violate, so the scan is skipped entirely while
    // none are in flight (the common case).
    if (st.specLoadsInFlight == 0)
        return;
    const MicroOp &sop = opOf(store);
    // The LDQ is seq-sorted; start at the first younger load.
    auto it = std::lower_bound(
        st.ldq.begin(), st.ldq.end(), store.seq,
        [](const MemQEntry &e, InstSeqNum s) { return e.seq <= s; });
    for (; it != st.ldq.end(); ++it) {
        const MemQEntry &e = *it;
        if (!rangesOverlap(e.addr, e.size, sop.effAddr, sop.memSize))
            continue;
        Inflight *ld = liveOp(e.robSlot, e.seq);
        if (!ld || !ld->issued || !ld->speculativeLoad)
            continue;
        ++st.stats.memOrderFlushes;
        memdep.recordViolation(opOf(*ld).pc);
        const std::uint64_t replay_idx = ld->traceIdx;
        squashYoungerThan(ld->seq, replay_idx);
        st.fetchResumeCycle = std::max(st.fetchResumeCycle, st.now + 1);
        return;
    }
}

// --------------------------------------------------------------------
// PAQ: probe the D-cache with predicted addresses on LS bubbles
// --------------------------------------------------------------------

bool
Core::paqStage(unsigned ls_used)
{
    bool any = false;
    unsigned slots =
        cfg.lsLanes > ls_used ? cfg.lsLanes - ls_used : 0;
    while (slots > 0 && !st.paq.empty()) {
        const PaqEntry e = st.paq.front();
        st.paq.pop_front();
        --slots;
        Inflight *f = liveOp(e.robSlot, e.seq);
        if (!f || !f->paqPending || f->done)
            continue;
        f->paqPending = false;
        ++st.stats.paqProbes;
        any = true;
        const auto res = memory.paqProbe(e.addr);
        if (!res.l1Hit) {
            // Paper Figure 1 step 5 (prefetch on miss) is disabled:
            // the prediction is simply dropped.
            ++st.stats.paqMisses;
            continue;
        }
        const MicroOp &op = opOf(*f);
        // Conflicting-store avoidance (DLVP [3]): if an older
        // in-flight store to the probed bytes has not yet written the
        // cache, the probe would return stale data - drop the
        // prediction rather than poison consumers.
        bool conflict = false;
        for (auto it = st.stq.rbegin(); it != st.stq.rend(); ++it) {
            if (it->seq >= f->seq)
                continue;
            if (!rangesOverlap(e.addr, op.memSize, it->addr,
                               it->size))
                continue;
            const Inflight *store = liveOp(it->robSlot, it->seq);
            conflict = store && !store->issued;
            break;
        }
        if (conflict) {
            ++st.stats.paqConflictDrops;
            continue;
        }
        f->vpDelivered = true;
        f->vpReadyCycle = st.now + res.latency;
        // The delivered value is wrong iff the predicted address was
        // wrong (validated when the load executes).
        f->vpWrong = e.addr != op.effAddr;
        // The value may now reach consumers before the load executes.
        wakeConsumers(e.robSlot);
    }
    return any;
}

// --------------------------------------------------------------------
// Dispatch (rename + queue allocation)
// --------------------------------------------------------------------

bool
Core::dispatchStage()
{
    unsigned n = 0;
    while (!st.fetchBuf.empty() && n < cfg.fetchWidth) {
        Inflight &f = st.fetchBuf.front();
        if (f.fetchCycle >= st.now)
            break; // fetched this cycle; dispatch next cycle
        if (st.rob.size() >= cfg.robSize || st.iqCount >= cfg.iqSize)
            break;
        const MicroOp &op = opOf(f);
        if (op.isLoad() && st.ldq.size() >= cfg.ldqSize)
            break;
        if (op.isStore() && st.stq.size() >= cfg.stqSize)
            break;

        // The ROB slot this op is about to occupy: its handle.
        const std::uint32_t slot =
            std::uint32_t(st.rob.slotOf(st.rob.size()));

        // Rename: resolve sources against the last writers.
        for (unsigned s = 0; s < f.depSeq.size(); ++s) {
            const RegId r = op.src[s];
            f.depSeq[s] = (r == invalidReg) ? 0 : st.lastWriter[r];
            f.depSlot[s] = (r == invalidReg) ? noSlot : lastWriterSlot[r];
        }
        if (op.dst != invalidReg) {
            st.lastWriter[op.dst] = f.seq;
            lastWriterSlot[op.dst] = slot;
        }

        f.inIQ = true;
        ++st.iqCount;
        if (op.isLoad())
            st.ldq.push_back({f.seq, op.effAddr, op.memSize, slot});
        if (op.isStore())
            st.stq.push_back({f.seq, op.effAddr, op.memSize, slot});

        // Address predictions enter the PAQ here (paper step 2).
        if (f.pred.isAddress()) {
            if (st.paq.size() < cfg.paqSize) {
                f.paqPending = true;
                st.paq.push_back({f.seq, f.pred.addr, slot});
            } else {
                ++st.stats.paqDropsFull;
                f.pred = Prediction{};
            }
        }

        st.rob.push_back(f);
        st.fetchBuf.pop_front();
        iqSlots.set(slot);
        scheduleOp(slot);
        ++n;
    }
    return n > 0;
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetchOne()
{
    const MicroOp &op = code[st.fetchIdx];
    Inflight f;
    f.traceIdx = std::uint32_t(st.fetchIdx);
    f.seq = st.nextSeq++;
    f.fetchCycle = st.now;
    f.minIssueCycle = st.now + cfg.fetchToExecute - 1;
    const bool first_fetch = st.fetchIdx >= st.contextIdx;

    if (op.isBranch()) {
        bool mispredict = false;
        if (first_fetch) {
            switch (op.cls) {
              case OpClass::Branch: {
                const bool pred = tage.predict(op.pc);
                mispredict = pred != op.taken;
                tage.update(op.pc, op.taken);
                break;
              }
              case OpClass::Call:
                // Direct call: target known at decode; push the RAS.
                ras.push(op.pc + 4);
                tage.updateHistoryOnly(op.pc, true);
                break;
              case OpClass::Ret: {
                const Addr pred = ras.pop();
                mispredict = pred != op.target;
                tage.updateHistoryOnly(op.pc, true);
                break;
              }
              case OpClass::IndirBr: {
                const Addr pred = ittage.predict(op.pc);
                mispredict = pred != op.target;
                ittage.update(op.pc, op.target);
                tage.updateHistoryOnly(op.pc, true);
                break;
              }
              default:
                break;
            }
            if (st.vpActive)
                vp->notifyBranch(op.pc, op.taken, op.target);
            if (mispredict)
                ++st.stats.branchMispredicts;
        }
        f.branchMispredicted = mispredict;
        if (mispredict)
            st.fetchHalted = true;
    } else if (op.isPredictableLoad() && st.vpActive) {
        // During warmup (vpActive == false) predictable loads behave
        // like plain loads: no probe, no token, no notifies — the VP
        // sees nothing until the measurement region begins.
        auto stash = st.refetchStash.find(st.fetchIdx);
        if (stash != st.refetchStash.end()) {
            // Re-fetch after a flush: restore the first-fetch
            // prediction (history-checkpoint semantics).
            f.token = stash->second.token;
            f.pred = stash->second.pred;
            st.refetchStash.erase(stash);
        } else {
            LoadProbe probe;
            probe.pc = op.pc;
            probe.token = st.nextToken++;
            const auto it = st.inflightLoadPcs.find(op.pc);
            probe.inflightSamePc =
                it == st.inflightLoadPcs.end() ? 0 : it->second;
            f.token = probe.token;
            f.pred = vp->predict(probe);
            if (f.pred.valid())
                ++st.stats.predictionsMade;
        }
        if (f.pred.isValue()) {
            f.vpDelivered = true;
            f.vpReadyCycle = st.now; // available from rename onward
            f.vpWrong = f.pred.value != op.memValue;
        }
        if (first_fetch)
            vp->notifyLoad(op.pc);
    }
    if (op.isLoad())
        ++st.inflightLoadPcs[op.pc];

    if (first_fetch)
        st.contextIdx = st.fetchIdx + 1;
    ++st.fetchIdx;
    st.fetchBuf.push_back(f);
}

bool
Core::fetchStage()
{
    if (st.now < st.fetchResumeCycle || st.fetchHalted || st.fetchFrozen)
        return false;
    unsigned n = 0;
    while (n < cfg.fetchWidth && st.fetchIdx < code.size() &&
           st.fetchBuf.size() < 2 * cfg.fetchWidth && !st.fetchHalted) {
        fetchOne();
        ++n;
    }
    return n > 0;
}

// --------------------------------------------------------------------
// Squash / flush
// --------------------------------------------------------------------

void
Core::squashYoungerThan(InstSeqNum oldest_squashed,
                        std::uint64_t new_fetch_idx)
{
    auto drop_load_bookkeeping = [&](const Inflight &f) {
        const MicroOp &op = opOf(f);
        if (op.isLoad()) {
            auto it = st.inflightLoadPcs.find(op.pc);
            if (it != st.inflightLoadPcs.end() && --it->second == 0)
                st.inflightLoadPcs.erase(it);
            if (f.token != 0) {
                // Keep the predictor's per-token state alive when the
                // re-fetched load would predict the same thing: real
                // hardware restores the history checkpoint and probes
                // the *current* tables. A correct prediction would
                // recur; a wrong one would not (the triggering
                // mispredict resets its entry before the re-probe),
                // so wrong predictions are dropped and re-probed.
                const bool wrong =
                    (f.pred.isValue() &&
                     f.pred.value != op.memValue) ||
                    (f.pred.isAddress() &&
                     f.pred.addr != op.effAddr);
                st.refetchStash[f.traceIdx] = {
                    f.token, wrong ? Prediction{} : f.pred};
            }
        }
    };

    while (!st.rob.empty() && st.rob.back().seq >= oldest_squashed) {
        Inflight &f = st.rob.back();
        const std::uint32_t slot =
            std::uint32_t(st.rob.slotOf(st.rob.size() - 1));
        // Youngest first, so every op that waited on this one is
        // already gone.
        LVPSIM_CHECK(waits[slot].head == noSlot,
                     "squashed producer still has waiters");
        if (waits[slot].on != noSlot)
            stopWaiting(slot);
        ready.reset(slot);
        iqSlots.reset(slot);
        wakeups.remove(slot);
        completions.remove(slot);
        if (f.inIQ)
            --st.iqCount;
        if (f.issued && !f.done)
            --st.issuedNotDone;
        if (f.speculativeLoad)
            --st.specLoadsInFlight;
        drop_load_bookkeeping(f);
        ++st.stats.squashedOps;
        st.rob.pop_back();
    }
    while (!st.ldq.empty() && st.ldq.back().seq >= oldest_squashed)
        st.ldq.pop_back();
    while (!st.stq.empty() && st.stq.back().seq >= oldest_squashed)
        st.stq.pop_back();
    while (!st.fetchBuf.empty() &&
           st.fetchBuf.back().seq >= oldest_squashed) {
        drop_load_bookkeeping(st.fetchBuf.back());
        ++st.stats.squashedOps;
        st.fetchBuf.pop_back();
    }
    // The PAQ is filled in dispatch order and drained at the front,
    // so it is always seq-sorted and the squashed entries are exactly
    // its tail.
    while (!st.paq.empty() && st.paq.back().seq >= oldest_squashed)
        st.paq.pop_back();

    if (st.refetchStash.size() > st.stats.refetchStashPeak)
        st.stats.refetchStashPeak = st.refetchStash.size();

    rebuildRenameMap();
    st.fetchIdx = new_fetch_idx;

    // If the mispredicted branch that halted fetch was squashed,
    // fetch may resume; recompute from the surviving window.
    st.fetchHalted = false;
    for (const Inflight &f : st.rob) {
        if (f.branchMispredicted && !f.done) {
            st.fetchHalted = true;
            break;
        }
    }
}

void
Core::rebuildRenameMap()
{
    st.lastWriter.fill(0);
    lastWriterSlot.fill(noSlot);
    for (std::size_t i = 0; i < st.rob.size(); ++i) {
        const Inflight &f = st.rob[i];
        const MicroOp &op = opOf(f);
        if (op.dst != invalidReg) {
            st.lastWriter[op.dst] = f.seq;
            lastWriterSlot[op.dst] = std::uint32_t(st.rob.slotOf(i));
        }
    }
}

// --------------------------------------------------------------------
// Event-driven scheduling
// --------------------------------------------------------------------

void
Core::scheduleOp(std::uint32_t slot)
{
    // Place an IQ op by its operands as of now. A producer that left
    // the ROB, has delivered its predicted value, or has completed is
    // ready. A delivered value that is still in flight has a known
    // ready cycle, so the op is timed: vpReadyCycle, or doneCycle if
    // the producer already issued and that is sooner. (With the
    // modelled latencies a producer that issues after its PAQ probe
    // cannot complete before the probed value arrives.) Any other
    // producer's ready cycle is unknown until it completes or a PAQ
    // probe delivers its value, so the op waits on its wakeup list.
    const Inflight &c = st.rob.atSlot(slot);
    Cycle when = c.minIssueCycle;
    for (unsigned k = 0; k < c.depSeq.size(); ++k) {
        if (c.depSeq[k] == 0)
            continue;
        const Inflight *p = liveOp(c.depSlot[k], c.depSeq[k]);
        if (!p)
            continue; // producer committed (or squashed): ready
        if (p->vpDelivered && p->vpReadyCycle <= st.now)
            continue;
        if (p->done && p->doneCycle <= st.now)
            continue;
        if (!p->vpDelivered) {
            waitOn(slot, c.depSlot[k]);
            return;
        }
        Cycle at = p->vpReadyCycle;
        if (p->issued)
            at = std::min(at, p->doneCycle);
        when = std::max(when, at);
    }
    if (when <= st.now)
        ready.set(slot);
    else
        wakeups.append(slot, when, st.now);
}

void
Core::waitOn(std::uint32_t consumer, std::uint32_t producer)
{
    WaitLinks &c = waits[consumer];
    WaitLinks &p = waits[producer];
    c.on = producer;
    c.prev = noSlot;
    c.next = p.head;
    if (p.head != noSlot)
        waits[p.head].prev = consumer;
    p.head = consumer;
}

void
Core::stopWaiting(std::uint32_t consumer)
{
    WaitLinks &c = waits[consumer];
    if (c.prev != noSlot)
        waits[c.prev].next = c.next;
    else
        waits[c.on].head = c.next;
    if (c.next != noSlot)
        waits[c.next].prev = c.prev;
    c.on = c.next = c.prev = noSlot;
}

void
Core::wakeConsumers(std::uint32_t producer)
{
    std::uint32_t c = waits[producer].head;
    waits[producer].head = noSlot;
    while (c != noSlot) {
        const std::uint32_t next = waits[c].next;
        waits[c].on = waits[c].next = waits[c].prev = noSlot;
        scheduleOp(c); // may wait again, on another producer
        c = next;
    }
}

void
Core::rebuildSchedule()
{
    // Rebuild every scheduler index from st alone. Slot handles in
    // the queues are re-derived from seqs too: decoding a snapshot
    // repacks each ring from slot 0, so saved handles can be stale.
    const std::size_t cap = st.rob.capacity();
    ready.configure(cap);
    iqSlots.configure(cap);
    waits.assign(cap, WaitLinks{});
    const std::size_t span =
        std::max<std::size_t>(64, std::bit_ceil(maxEventDelay() + 1));
    wakeups.configure(cap, span);
    completions.configure(cap, span);

    auto slot_of_seq = [&](InstSeqNum seq) {
        const auto it = std::lower_bound(
            st.rob.begin(), st.rob.end(), seq,
            [](const Inflight &f, InstSeqNum s) { return f.seq < s; });
        return it != st.rob.end() && it->seq == seq
                   ? std::uint32_t(st.rob.slotOf(
                         std::size_t(it - st.rob.begin())))
                   : noSlot;
    };
    for (std::size_t r = 0; r < lastWriterSlot.size(); ++r)
        lastWriterSlot[r] = slot_of_seq(st.lastWriter[r]);
    for (Inflight &f : st.rob)
        for (unsigned k = 0; k < f.depSeq.size(); ++k)
            f.depSlot[k] = slot_of_seq(f.depSeq[k]);
    for (MemQEntry &e : st.ldq)
        e.robSlot = slot_of_seq(e.seq);
    for (MemQEntry &e : st.stq)
        e.robSlot = slot_of_seq(e.seq);
    for (PaqEntry &e : st.paq)
        e.robSlot = slot_of_seq(e.seq);

    for (std::size_t i = 0; i < st.rob.size(); ++i) {
        const Inflight &f = st.rob[i];
        const auto slot = std::uint32_t(st.rob.slotOf(i));
        if (f.issued && !f.done)
            completions.insert(slot, f.doneCycle, st.now, f.seq);
        if (f.inIQ) {
            iqSlots.set(slot);
            scheduleOp(slot);
        }
    }
}

Cycle
Core::maxEventDelay() const
{
    // A completion is due at most one latency ahead: an execution
    // latency, store forwarding (1 + stlfLat) or the slowest data
    // access (1 + maxDataLatency). A timed wakeup is due at its op's
    // minIssueCycle (less than fetchToExecute ahead), when a PAQ
    // probe returns (an L1D latency ahead) or at a producer's
    // completion.
    return std::max({cfg.fetchToExecute, cfg.intAluLat, cfg.intMulLat,
                     cfg.intDivLat, cfg.fpLat, cfg.branchLat,
                     cfg.storeLat, 1 + cfg.stlfLat,
                     1 + memory.maxDataLatency()});
}

void
Core::Calendar::configure(std::size_t slots, std::size_t span)
{
    // span is a power of two of at least 64: one occupancy word per
    // 64 buckets.
    links.assign(slots, Link{});
    heads.assign(span, noSlot);
    tails.assign(span, noSlot);
    occupied.assign(span / 64, 0);
    mask = span - 1;
    count = 0;
}

Cycle
Core::Calendar::earliest(Cycle now) const
{
    if (count == 0)
        return std::numeric_limits<Cycle>::max();
    // Scan the buckets circularly from now + 1. Every entry is due
    // less than span() cycles ahead, so the first occupied bucket
    // holds the earliest cycle.
    const std::size_t start = (now + 1) & mask;
    std::size_t w = start >> 6;
    std::uint64_t bits =
        occupied[w] & (~std::uint64_t(0) << (start & 63));
    while (!bits) {
        w = (w + 1) & (occupied.size() - 1);
        bits = occupied[w];
    }
    const std::size_t b = (w << 6) + std::size_t(std::countr_zero(bits));
    return now + 1 + ((b - start) & mask);
}

void
Core::Calendar::check(Cycle now, bool ordered) const
{
    std::size_t linked = 0;
    for (std::size_t b = 0; b < heads.size(); ++b) {
        LVPSIM_CHECK((heads[b] != noSlot) ==
                         ((occupied[b >> 6] & bit(b)) != 0),
                     "calendar bucket %zu: occupancy bit out of sync", b);
        std::uint32_t prev = noSlot;
        for (std::uint32_t s = heads[b]; s != noSlot; s = links[s].next) {
            const Link &l = links[s];
            LVPSIM_CHECK(linked < count && l.prev == prev &&
                             (l.at & mask) == b,
                         "calendar bucket %zu is corrupt", b);
            LVPSIM_CHECK(l.at > now && l.at - now < span(),
                         "calendar entry due at %llu, now %llu",
                         static_cast<unsigned long long>(l.at),
                         static_cast<unsigned long long>(now));
            LVPSIM_CHECK(!ordered || prev == noSlot ||
                             links[prev].seq < l.seq,
                         "calendar bucket %zu is out of seq order", b);
            prev = s;
            ++linked;
        }
        LVPSIM_CHECK(tails[b] == prev, "calendar bucket %zu: stale tail",
                     b);
    }
    std::size_t marked = 0;
    for (const Link &l : links)
        marked += l.at != 0 ? 1 : 0;
    // With the per-bucket checks above, this puts every marked slot
    // in exactly one bucket.
    LVPSIM_CHECK(linked == count && marked == count,
                 "calendar count %zu, %zu linked, %zu marked", count,
                 linked, marked);
}

// --------------------------------------------------------------------
// Invariants (checked builds only; see common/check.hh)
// --------------------------------------------------------------------

void
Core::checkCycleInvariants() const
{
    // Occupancy bounds from the paper's Table III configuration.
    // These hold *every* cycle: dispatch is the only producer for
    // each structure and stalls when a queue is full.
    LVPSIM_CHECK(st.rob.size() <= cfg.robSize,
                 "ROB overflow: %zu > %u", st.rob.size(), cfg.robSize);
    LVPSIM_CHECK(st.iqCount <= cfg.iqSize,
                 "IQ overflow: %u > %u", st.iqCount, cfg.iqSize);
    LVPSIM_CHECK(st.ldq.size() <= cfg.ldqSize,
                 "LDQ overflow: %zu > %u", st.ldq.size(), cfg.ldqSize);
    LVPSIM_CHECK(st.stq.size() <= cfg.stqSize,
                 "STQ overflow: %zu > %u", st.stq.size(), cfg.stqSize);
    LVPSIM_CHECK(st.paq.size() <= cfg.paqSize,
                 "PAQ overflow: %zu > %u", st.paq.size(), cfg.paqSize);
    LVPSIM_CHECK(st.fetchBuf.size() <= 2 * cfg.fetchWidth,
                 "fetch buffer overflow: %zu > %u", st.fetchBuf.size(),
                 2 * cfg.fetchWidth);
    LVPSIM_CHECK(st.iqCount <= st.rob.size(),
                 "IQ count %u exceeds ROB occupancy %zu", st.iqCount,
                 st.rob.size());
    LVPSIM_CHECK(st.issuedNotDone <= st.rob.size(),
                 "issued-not-done %llu exceeds ROB occupancy %zu",
                 static_cast<unsigned long long>(st.issuedNotDone),
                 st.rob.size());
    LVPSIM_CHECK(st.specLoadsInFlight <= st.ldq.size(),
                 "speculative-load count %llu exceeds LDQ occupancy "
                 "%zu",
                 static_cast<unsigned long long>(st.specLoadsInFlight),
                 st.ldq.size());
    // The refetch stash holds only trace indices ahead of fetchIdx
    // that were in flight when squashed, so it can never outgrow the
    // in-flight window.
    LVPSIM_CHECK(st.refetchStash.size() <= inflightWindow(),
                 "refetch stash overflow: %zu > %zu",
                 st.refetchStash.size(), inflightWindow());
}

void
Core::checkFullInvariants() const
{
    // O(window) structural cross-checks, amortized over
    // fullCheckPeriod cycles.
    InstSeqNum prev = 0;
    unsigned in_iq = 0;
    std::uint64_t issued_not_done = 0;
    std::uint64_t spec_loads = 0;
    std::size_t n_loads = 0, n_stores = 0;
    std::size_t live_tokens = 0;
    for (const Inflight &f : st.rob) {
        LVPSIM_CHECK(f.seq > prev, "ROB not in seq order");
        prev = f.seq;
        in_iq += f.inIQ ? 1 : 0;
        issued_not_done += (f.issued && !f.done) ? 1 : 0;
        spec_loads += f.speculativeLoad ? 1 : 0;
        live_tokens += f.token != 0 ? 1 : 0;
        LVPSIM_CHECK(!(f.inIQ && f.issued),
                     "op both in IQ and issued (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        const auto &op = opOf(f);
        n_loads += op.isLoad() ? 1 : 0;
        n_stores += op.isStore() ? 1 : 0;
    }
    for (const Inflight &f : st.fetchBuf)
        live_tokens += f.token != 0 ? 1 : 0;
    LVPSIM_CHECK(in_iq == st.iqCount,
                 "IQ count drift: cached %u, actual %u", st.iqCount,
                 in_iq);
    LVPSIM_CHECK(issued_not_done == st.issuedNotDone,
                 "issuedNotDone drift: cached %llu, actual %llu",
                 static_cast<unsigned long long>(st.issuedNotDone),
                 static_cast<unsigned long long>(issued_not_done));
    LVPSIM_CHECK(spec_loads == st.specLoadsInFlight,
                 "specLoadsInFlight drift: cached %llu, actual %llu",
                 static_cast<unsigned long long>(st.specLoadsInFlight),
                 static_cast<unsigned long long>(spec_loads));
    // Every pending predictor snapshot belongs to a live token: one
    // held by an in-flight load, or one parked in the refetch stash.
    LVPSIM_CHECK(vp->pendingProbes() <=
                     live_tokens + st.refetchStash.size(),
                 "predictor snapshot leak: %zu pending, %zu live "
                 "tokens + %zu stashed",
                 vp->pendingProbes(), live_tokens,
                 st.refetchStash.size());
    // Every ROB load/store has exactly one LDQ/STQ entry, in order.
    LVPSIM_CHECK(st.ldq.size() == n_loads,
                 "LDQ/ROB drift: %zu entries, %zu loads", st.ldq.size(),
                 n_loads);
    LVPSIM_CHECK(st.stq.size() == n_stores,
                 "STQ/ROB drift: %zu entries, %zu stores",
                 st.stq.size(), n_stores);
    prev = 0;
    for (const MemQEntry &e : st.ldq) {
        LVPSIM_CHECK(e.seq > prev, "LDQ not in seq order");
        prev = e.seq;
        LVPSIM_CHECK(liveOp(e.robSlot, e.seq) != nullptr,
                     "LDQ entry seq %llu has no live ROB handle",
                     static_cast<unsigned long long>(e.seq));
    }
    prev = 0;
    for (const MemQEntry &e : st.stq) {
        LVPSIM_CHECK(e.seq > prev, "STQ not in seq order");
        prev = e.seq;
        LVPSIM_CHECK(liveOp(e.robSlot, e.seq) != nullptr,
                     "STQ entry seq %llu has no live ROB handle",
                     static_cast<unsigned long long>(e.seq));
    }
    checkScheduleInvariants();
}

void
Core::checkScheduleInvariants() const
{
    // Every IQ op is in exactly one place: on one producer's wakeup
    // list, in the wakeup calendar, or on the ready list. Issued ops
    // that have not completed are exactly the completion calendar.
    wakeups.check(st.now, false);
    completions.check(st.now, true);
    std::size_t n_ready = 0, n_waiting = 0;
    Cycle prev_min_issue = 0;
    for (std::size_t i = 0; i < st.rob.size(); ++i) {
        const Inflight &f = st.rob[i];
        const std::size_t slot = st.rob.slotOf(i);
        const WaitLinks &w = waits[slot];
        LVPSIM_CHECK(f.minIssueCycle >= prev_min_issue,
                     "minIssueCycle not monotone along the ROB");
        prev_min_issue = f.minIssueCycle;
        LVPSIM_CHECK(iqSlots.test(slot) == f.inIQ,
                     "IQ set out of sync (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        const bool is_ready = ready.test(slot);
        const bool is_waiting = w.on != noSlot;
        LVPSIM_CHECK(!(is_ready || is_waiting) || f.inIQ,
                     "non-IQ op scheduled (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        LVPSIM_CHECK(!(is_ready && is_waiting),
                     "op both ready and waiting (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        LVPSIM_CHECK(!wakeups.holds(std::uint32_t(slot)) ||
                         (f.inIQ && !is_ready && !is_waiting),
                     "stale wakeup (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        LVPSIM_CHECK(completions.at(std::uint32_t(slot)) ==
                         (f.issued && !f.done ? f.doneCycle : 0),
                     "completion calendar out of sync (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        LVPSIM_CHECK(!is_ready || f.minIssueCycle <= st.now,
                     "ready op before its minIssueCycle");
        n_ready += is_ready ? 1 : 0;
        if (is_waiting) {
            ++n_waiting;
            const Inflight &p = st.rob.atSlot(w.on);
            LVPSIM_CHECK(st.rob.liveSlot(w.on) && p.seq < f.seq &&
                             !p.done && !p.vpDelivered,
                         "op %llu waits on a resolved producer",
                         static_cast<unsigned long long>(f.seq));
        }
        // This op's own wakeup list: consistent links, each waiter
        // pointing back here.
        std::uint32_t prev = noSlot;
        for (std::uint32_t c = w.head; c != noSlot; c = waits[c].next) {
            LVPSIM_CHECK(waits[c].on == slot && waits[c].prev == prev,
                         "wakeup list of seq %llu is corrupt",
                         static_cast<unsigned long long>(f.seq));
            prev = c;
        }
    }
    // Slots outside the live window carry nothing.
    for (std::size_t slot = 0; slot < st.rob.capacity(); ++slot) {
        if (st.rob.liveSlot(slot))
            continue;
        LVPSIM_CHECK(!ready.test(slot) && !iqSlots.test(slot) &&
                         waits[slot].on == noSlot &&
                         waits[slot].head == noSlot &&
                         !wakeups.holds(std::uint32_t(slot)) &&
                         !completions.holds(std::uint32_t(slot)),
                     "dead ROB slot %zu still scheduled", slot);
    }
    LVPSIM_CHECK(n_ready + n_waiting + wakeups.size() == st.iqCount,
                 "IQ ops unaccounted: %zu ready + %zu waiting + %zu "
                 "timed != %u",
                 n_ready, n_waiting, wakeups.size(), st.iqCount);
    LVPSIM_CHECK(completions.size() == st.issuedNotDone,
                 "completion calendar holds %zu, issuedNotDone %llu",
                 completions.size(),
                 static_cast<unsigned long long>(st.issuedNotDone));
}

// --------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------

Cycle
Core::nextEventCycle() const
{
    // The earliest of: the next completion, the smallest minIssueCycle
    // in the IQ (minIssueCycle grows with age, so the oldest IQ op's),
    // and the front end's next step (fetch cycles grow along the
    // fetch buffer too). Timed wakeups need no term of their own:
    // each is at or after its op's minIssueCycle. The target must be
    // exact, because idle cycles have side effects (paqStage spends
    // LS slots popping dead PAQ entries).
    Cycle next = completions.earliest(st.now);
    if (st.iqCount > 0)
        next = std::min(next, st.rob[iqSlots.next(st.rob, 0)].minIssueCycle);
    if (st.fetchResumeCycle > st.now &&
        (st.fetchIdx < code.size() || !st.fetchBuf.empty()))
        next = std::min(next, st.fetchResumeCycle);
    if (!st.fetchBuf.empty())
        next = std::min(next, st.fetchBuf.front().fetchCycle + 1);
    return next;
}

void
Core::simulate(std::uint64_t commit_target)
{
    while ((!st.fetchFrozen && st.fetchIdx < code.size()) || !st.rob.empty() ||
           !st.fetchBuf.empty()) {
        if (commit_target && st.committed >= commit_target)
            break;
        ++st.now;
        bool any = false;
        any |= commitStage();
        any |= completeStage();
        unsigned ls_used = 0;
        any |= issueStage(ls_used);
        any |= paqStage(ls_used);
        any |= dispatchStage();
        any |= fetchStage();

        if (st.committed >= nextProgressAt) {
            progressHook(st.committed);
            nextProgressAt = st.committed + progressEvery;
        }

#if LVPSIM_CHECKS_ENABLED
        checkCycleInvariants();
        if (st.now % fullCheckPeriod == 0)
            checkFullInvariants();
#endif

        if (!any) {
            const Cycle next = nextEventCycle();
            lvp_assert(next != std::numeric_limits<Cycle>::max(),
                       "pipeline deadlock at cycle %llu",
                       static_cast<unsigned long long>(st.now));
            if (next > st.now + 1)
                st.now = next - 1; // the loop header will ++now
        }
    }
}

void
Core::warmup(std::uint64_t n)
{
    if (n == 0)
        return;
    st.vpActive = false;
    simulate(st.committed + n);
    // Drain: freeze fetch and run the in-flight window dry so the
    // measurement (or checkpoint) boundary is quiescent. A squash
    // during the drain may rewind fetchIdx; those instructions are
    // simply re-fetched once measurement resumes fetch.
    st.fetchFrozen = true;
    simulate(0);
    st.fetchFrozen = false;
    st.vpActive = true;
    LVPSIM_CHECK(st.rob.empty() && st.fetchBuf.empty() &&
                     st.refetchStash.empty(),
                 "warmup drain left %zu ROB + %zu fetch-buffer + %zu "
                 "stashed entries",
                 st.rob.size(), st.fetchBuf.size(), st.refetchStash.size());
}

void
Core::drain()
{
    st.fetchFrozen = true;
    simulate(0);
    st.fetchFrozen = false;
    // Squashes during the drain can park predictions (with live
    // predictor tokens) in the refetch stash; nothing will re-fetch
    // them on this core, so release their snapshots. Tokens are
    // abandoned in sorted order — FlatMap iteration order is
    // hash-shaped, and the predictor must see the same sequence on
    // every run.
    std::vector<std::uint64_t> stale;
    stale.reserve(st.refetchStash.size());
    for (const auto &kv : st.refetchStash)
        stale.push_back(kv.second.token);
    std::sort(stale.begin(), stale.end());
    for (std::uint64_t t : stale)
        vp->abandon(t);
    st.refetchStash.clear();
    LVPSIM_CHECK(st.rob.empty() && st.fetchBuf.empty() &&
                     vp->pendingProbes() == 0,
                 "drain left %zu ROB + %zu fetch-buffer entries, %zu "
                 "pending probes",
                 st.rob.size(), st.fetchBuf.size(), vp->pendingProbes());
}

void
Core::functionalWarmup(std::uint64_t n)
{
    lvp_assert(st.rob.empty() && st.fetchBuf.empty(),
               "functionalWarmup needs a quiescent machine");
    const std::uint64_t end =
        std::min<std::uint64_t>(st.fetchIdx + n, code.size());
    // The trace position lives in locals inside the loop (the calls
    // below could alias st) and is written back when a progress tick
    // fires and at the end.
    const std::uint64_t begin = st.fetchIdx;
    const std::uint64_t committedAt0 = st.committed - begin;
    for (std::uint64_t i = begin; i < end; ++i) {
        const MicroOp &op = code[i];
        // Branch-predictor training replicates fetchOne()'s
        // first-fetch sequence exactly; with an empty pipeline every
        // index is a first fetch (fetchIdx >= contextIdx always).
        switch (op.cls) {
          case OpClass::Branch: {
            const bool pred = tage.predict(op.pc);
            (void)pred;
            tage.update(op.pc, op.taken);
            break;
          }
          case OpClass::Call:
            ras.push(op.pc + 4);
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::Ret:
            (void)ras.pop();
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::IndirBr:
            (void)ittage.predict(op.pc);
            ittage.update(op.pc, op.target);
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::Load:
            memory.dataAccess(op.pc, op.effAddr, false);
            break;
          case OpClass::Store:
            memory.dataAccess(op.pc, op.effAddr, true);
            break;
          default:
            break;
        }
        if (committedAt0 + i + 1 >= nextProgressAt) {
            st.contextIdx = st.fetchIdx = i + 1;
            st.committed = committedAt0 + i + 1;
            progressHook(st.committed);
            nextProgressAt = st.committed + progressEvery;
        }
    }
    if (end > begin) {
        st.contextIdx = st.fetchIdx = end;
        st.committed = committedAt0 + end;
    }
}

void
Core::setProgressHook(std::uint64_t every, ProgressHook fn)
{
    if (every == 0 || !fn) {
        progressHook = nullptr;
        progressEvery = 0;
        nextProgressAt = std::numeric_limits<std::uint64_t>::max();
        return;
    }
    progressHook = std::move(fn);
    progressEvery = every;
    nextProgressAt = st.committed + every;
}

SimStats
Core::run(std::uint64_t max_instrs)
{
    // Measure relative to the current (possibly post-warmup) state so
    // warmup cycles and misses never pollute the reported run.
    st.stats = SimStats{};
    const std::uint64_t l1d_miss0 = memory.l1d().misses();
    const std::uint64_t l2_miss0 = memory.l2().misses();
    const Cycle cycle0 = st.now;

    simulate(max_instrs ? st.committed + max_instrs : 0);

    st.stats.cycles = st.now - cycle0;
    st.stats.l1dMisses = memory.l1d().misses() - l1d_miss0;
    st.stats.l2Misses = memory.l2().misses() - l2_miss0;
    if (st.refetchStash.size() > st.stats.refetchStashPeak)
        st.stats.refetchStashPeak = st.refetchStash.size();
    st.stats.vpSnapshotsPeak = vp->pendingProbesPeak();
    // At natural trace exhaustion every stashed prediction must have
    // been consumed by its re-fetch (the stash only holds indices
    // ahead of fetchIdx); an early max_instrs stop may leave some.
    LVPSIM_CHECK(st.fetchIdx < code.size() || !st.rob.empty() ||
                     !st.fetchBuf.empty() || st.refetchStash.empty(),
                 "refetch stash leak: %zu entries at trace "
                 "exhaustion",
                 st.refetchStash.size());
    return st.stats;
}

void
Core::dumpSubstrateStats(std::ostream &os) const
{
    auto rate = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? 100.0 * double(part) / double(whole) : 0.0;
    };
    const auto &l1d = memory.l1dConst();
    const auto &l2 = memory.l2Const();
    const auto &l3 = memory.l3Const();
    const auto &tlb = memory.tlbConst();
    os << "  l1d: " << l1d.hits() << " hits, " << l1d.misses()
       << " misses (" << rate(l1d.misses(),
                              l1d.hits() + l1d.misses())
       << "% miss)\n"
       << "  l2:  " << l2.hits() << " hits, " << l2.misses()
       << " misses\n"
       << "  l3:  " << l3.hits() << " hits, " << l3.misses()
       << " misses\n"
       << "  dtlb: " << tlb.hits() << " hits, " << tlb.misses()
       << " misses\n"
       << "  prefetches issued: " << memory.prefetchesIssued()
       << "\n"
       << "  tage: " << tage.lookups() << " lookups, "
       << tage.mispredicts() << " mispredicts ("
       << rate(tage.mispredicts(), tage.lookups()) << "%)\n"
       << "  ittage: " << ittage.lookups() << " lookups, "
       << ittage.mispredicts() << " mispredicts\n"
       << "  memdep violations: " << memdep.violations() << "\n";
}

// --------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------

void
Core::saveState(Snapshot &s) const
{
    memory.saveState(s.memory);
    memdep.saveState(s.memdep);
    tage.saveState(s.tage);
    ittage.saveState(s.ittage);
    ras.saveState(s.ras);
    s.pipeline = st;
}

void
Core::restoreState(const Snapshot &s)
{
    memory.restoreState(s.memory);
    memdep.restoreState(s.memdep);
    tage.restoreState(s.tage);
    ittage.restoreState(s.ittage);
    ras.restoreState(s.ras);
    st = s.pipeline;
    rebuildSchedule();
}

} // namespace pipe
} // namespace lvpsim
