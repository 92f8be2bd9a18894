#include "pipeline/core.hh"

#include <algorithm>
#include <limits>

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
    : cfg(config), code(trace_code),
      vp(predictor ? predictor : &nullVp), memory(cfg.memory),
      tage(cfg.tage, cfg.seed ^ 0x7a9e),
      ittage(cfg.ittage, cfg.seed ^ 0x177a9e), ras(cfg.rasDepth)
{
    st.rob.configure(cfg.robSize);
    st.fetchBuf.configure(2 * cfg.fetchWidth);
    st.paq.configure(cfg.paqSize);
    st.ldq.configure(cfg.ldqSize);
    st.stq.configure(cfg.stqSize);
    // Both maps are bounded by the in-flight window (the stash only
    // ever holds trace indices that are still ahead of fetchIdx, see
    // squashYoungerThan); pre-sizing makes them allocation-free.
    st.inflightLoadPcs.reserve(inflightWindow());
    st.refetchStash.reserve(inflightWindow());
}

std::size_t
Core::robIndexOfSeq(InstSeqNum seq) const
{
    // ROB seqs are strictly increasing but not contiguous (a squash
    // never rewinds nextSeq), so rob[i].seq >= rob.front().seq + i.
    // Hence seq can only live at index <= seq - front.seq: probe that
    // slot directly (an O(1) hit whenever no squash gap sits below
    // it), else bisect the prefix to its left.
    constexpr std::size_t npos = ~std::size_t(0);
    if (st.rob.empty())
        return npos;
    const InstSeqNum front_seq = st.rob.front().seq;
    if (seq < front_seq || seq > st.rob.back().seq)
        return npos;
    std::size_t hi = std::size_t(seq - front_seq);
    if (hi >= st.rob.size())
        hi = st.rob.size() - 1;
    if (st.rob[hi].seq == seq)
        return hi;
    // rob[hi].seq > seq here, so the match (if any) is in [0, hi).
    std::size_t lo = 0;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (st.rob[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return st.rob[lo].seq == seq ? lo : npos;
}

Core::Inflight *
Core::findBySeq(InstSeqNum seq)
{
    const std::size_t i = robIndexOfSeq(seq);
    return i == ~std::size_t(0) ? nullptr : &st.rob[i];
}

const Core::Inflight *
Core::findBySeqConst(InstSeqNum seq) const
{
    const std::size_t i = robIndexOfSeq(seq);
    return i == ~std::size_t(0) ? nullptr : &st.rob[i];
}

bool
Core::depsReady(Inflight &f) const
{
    // On failure, leave a wake-up hint in f.sleepUntil so the issue
    // scan can skip this op without repeating the producer lookups.
    // now+1 means "cannot bound: recheck next cycle".
    Cycle wake = 0;
    for (InstSeqNum d : f.depSeq) {
        if (d == 0)
            continue;
        const Inflight *p = findBySeqConst(d);
        if (!p)
            continue; // producer committed (or squashed): ready
        // A value-predicted load's result is available through the
        // VPE from vpReadyCycle, even before the load executes.
        if (p->vpDelivered && p->vpReadyCycle <= st.now)
            continue;
        if (p->done && p->doneCycle <= st.now)
            continue;
        Cycle cand;
        if (p->vpDelivered) {
            cand = p->vpReadyCycle;
            if (p->issued)
                cand = std::min(cand, p->doneCycle);
        } else if (p->paqPending) {
            cand = st.now + 1; // a PAQ probe may deliver any cycle
        } else if (p->issued) {
            cand = p->doneCycle;
        } else {
            cand = st.now + 1; // producer not yet issued: unknown
        }
        wake = std::max(wake, cand);
    }
    if (wake == 0)
        return true;
    f.sleepUntil = wake;
    return false;
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
            rec.effAddr = op.effAddr;
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
    if (st.issuedNotDone == 0)
        return false;
    bool any = false;
    for (std::size_t i = 0; i < st.rob.size(); ++i) {
        Inflight &f = st.rob[i];
        if (!f.issued || f.done || f.doneCycle > st.now)
            continue;
        f.done = true;
        --st.issuedNotDone;
        any = true;
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

    const unsigned alu_lanes = cfg.issueWidth - cfg.lsLanes;

    for (std::size_t i = 0;
         i < st.rob.size() && issued_count < cfg.issueWidth; ++i) {
        Inflight &f = st.rob[i];
        if (!f.inIQ || st.now < f.minIssueCycle ||
            st.now < f.sleepUntil)
            continue;
        const MicroOp &op = opOf(f);
        const bool is_ls = op.isLoad() || op.isStore();
        if (is_ls && ls_used >= cfg.lsLanes)
            continue;
        if (!is_ls && alu_used >= alu_lanes)
            continue;
        if (!depsReady(f))
            continue;
        if (op.cls == OpClass::Barrier && f.seq != st.rob.front().seq)
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
                const Inflight *store = findBySeqConst(conflict->seq);
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
        Inflight *ld = findBySeq(e.seq);
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
        Inflight *f = findBySeq(e.seq);
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
            const Inflight *store = findBySeqConst(it->seq);
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

        // Rename: resolve sources against the last writers.
        for (unsigned s = 0; s < f.depSeq.size(); ++s) {
            const RegId r = op.src[s];
            f.depSeq[s] = (r == invalidReg) ? 0 : st.lastWriter[r];
        }
        if (op.dst != invalidReg)
            st.lastWriter[op.dst] = f.seq;

        f.inIQ = true;
        ++st.iqCount;
        if (op.isLoad())
            st.ldq.push_back({f.seq, op.effAddr, op.memSize});
        if (op.isStore())
            st.stq.push_back({f.seq, op.effAddr, op.memSize});

        // Address predictions enter the PAQ here (paper step 2).
        if (f.pred.isAddress()) {
            if (st.paq.size() < cfg.paqSize) {
                f.paqPending = true;
                st.paq.push_back({f.seq, f.pred.addr});
            } else {
                ++st.stats.paqDropsFull;
                f.pred = Prediction{};
            }
        }

        st.rob.push_back(f);
        st.fetchBuf.pop_front();
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
    for (const Inflight &f : st.rob) {
        const MicroOp &op = opOf(f);
        if (op.dst != invalidReg)
            st.lastWriter[op.dst] = f.seq;
    }
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
        LVPSIM_CHECK(findBySeqConst(e.seq) != nullptr,
                     "LDQ entry seq %llu not in ROB",
                     static_cast<unsigned long long>(e.seq));
    }
    prev = 0;
    for (const MemQEntry &e : st.stq) {
        LVPSIM_CHECK(e.seq > prev, "STQ not in seq order");
        prev = e.seq;
        LVPSIM_CHECK(findBySeqConst(e.seq) != nullptr,
                     "STQ entry seq %llu not in ROB",
                     static_cast<unsigned long long>(e.seq));
    }
}

// --------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------

Cycle
Core::nextEventCycle() const
{
    Cycle next = std::numeric_limits<Cycle>::max();
    for (const Inflight &f : st.rob) {
        if (f.issued && !f.done)
            next = std::min(next, f.doneCycle);
        else if (f.inIQ)
            next = std::min(next, f.minIssueCycle);
    }
    if (st.fetchResumeCycle > st.now &&
        (st.fetchIdx < code.size() || !st.fetchBuf.empty()))
        next = std::min(next, st.fetchResumeCycle);
    for (const Inflight &f : st.fetchBuf)
        next = std::min(next, f.fetchCycle + 1);
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
    while (st.fetchIdx < end) {
        const MicroOp &op = code[st.fetchIdx];
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
        st.contextIdx = st.fetchIdx + 1;
        ++st.fetchIdx;
        ++st.committed;
        if (st.committed >= nextProgressAt) {
            progressHook(st.committed);
            nextProgressAt = st.committed + progressEvery;
        }
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
}

} // namespace pipe
} // namespace lvpsim
