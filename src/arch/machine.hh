/**
 * @file
 * Machine: the composed timing model — cycle clock, branch predictor,
 * TLB and cache hierarchies, POLB, VALB, the storeP unit and its
 * store-queue forwarding — over one pool manager. This is the
 * Snipersim-substitute and the only code that charges simulated
 * time. The UPR runtime (src/core/runtime.hh) is its Pin-style
 * frontend: it emits the memory events the instrumented workloads
 * make, either as direct calls or, once a plain Runtime has run long
 * enough, as records through a ring to a companion that applies them
 * on its behalf (arch/model_companion.hh). Trace replay
 * (arch/trace.hh) drives a fresh Machine with a recorded stream of
 * the same events through the same apply().
 *
 * The model is split in two stages by what their state depends on:
 *  - the memory stage (memoryStage: MMU-front bypass predictor, TLBs,
 *    caches) sees only the order of addresses and write flags and
 *    never reads the clock;
 *  - the clock stage (chargeAccess and every other event: clock,
 *    branch predictor, pending-storeP wait, storeP unit, spans, core
 *    counters, trace appends) charges the memory stage's latencies in
 *    event order.
 * memAccess() and apply() run the two back to back; a two-stage
 * companion runs applyMemoryStage() and applyClockStage() on two
 * threads, the first writing each access's latencies into its record.
 *
 * The POLB and VALB are the exception: their lookups return the
 * translated address and can fault, so the frontend probes them
 * synchronously (xlat) and only the latency reaches the clock, as a
 * tick or inside a storeP. Nothing else in here raises a fault (a
 * Trace append can only run out of memory), so a frontend fault
 * leaves every event already emitted valid.
 */

#ifndef UPR_ARCH_MACHINE_HH
#define UPR_ARCH_MACHINE_HH

#include <algorithm>

#include "arch/branch.hh"
#include "arch/bypass.hh"
#include "arch/cache.hh"
#include "arch/params.hh"
#include "arch/pending_storep_table.hh"
#include "arch/polb.hh"
#include "arch/storep_unit.hh"
#include "arch/trace.hh"
#include "arch/tlb.hh"
#include "arch/valb.hh"
#include "common/bits.hh"
#include "obs/histogram.hh"
#include "mem/address_space.hh"
#include "nvm/pool_manager.hh"
#include "obs/metrics.hh"

namespace upr
{

/** The simulated core plus its memory system. */
class Machine
{
  public:
    Machine(const MachineParams &params, const PoolManager &manager)
        // Components reference params_ (our copy), declared first so
        // it outlives them even when the caller passed a temporary.
        : params_(params), caches_(params_), tlbs_(params_),
          bypass_(params_.bypassEntries), bpred_(params_),
          storePUnit_(params_), stats_("core"), polb_(params_, manager),
          valb_(params_, manager)
    {
        stats_.registerCounter("memAccesses", memAccesses_,
                               "data memory accesses");
        stats_.registerCounter("loads", loads_, "load instructions");
        stats_.registerCounter("stores", stores_,
                               "storeD instructions");
        stats_.registerCounter("storePs", storePs_,
                               "storeP instructions");
        stats_.registerCounter("nvmAccesses", nvmAccesses_,
                               "accesses landing in the NVM half");
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Current cycle count. */
    Cycles now() const { return now_; }

    /** Advance the clock by @p n cycles of non-memory work. */
    void
    tick(Cycles n)
    {
        now_ += n;
        if (trace_ && n > 0)
            trace_->append({TraceEvent::Kind::Tick, n});
    }

    /**
     * Attach a trace to record this machine's event stream into
     * (Sniper trace mode); nullptr detaches. For exact replays,
     * attach before the first event.
     */
    void setTrace(Trace *trace) { trace_ = trace; }

    /** Select how the MMU-front probe delay is modeled. */
    void setMmuFrontModel(MmuFrontModel model) { mmuFront_ = model; }

    /** The bypass predictor (stats for the ablation bench). */
    BypassPredictor &bypass() { return bypass_; }

    /**
     * One timed data access at virtual address @p va: TLB translation
     * plus cache hierarchy plus DRAM/NVM latency. Whether the access
     * is persistent is decided by bit 47 of the VA, as in the paper.
     * The memory stage, then the clock stage.
     *
     * @param kind Load or StoreD accounting bucket
     * @return the access latency charged
     */
    enum class AccessKind { Load, StoreD, StoreP };

    Cycles
    memAccess(SimAddr va, bool is_write, AccessKind kind)
    {
        const MemLatency m = memoryStage(va, is_write);
        chargeAccess(va, is_write, kind, m);
        return m.access;
    }

    /**
     * True when no access can take longer than a ring record's
     * latency fields hold, so the memory stage may run ahead on its
     * own thread (always, short of absurd MachineParams).
     */
    bool
    latenciesFitRecord() const
    {
        const MachineParams &p = params_;
        const Cycles worst =
            p.l1TlbLatency + p.l2TlbHitLatency + p.pageWalkLatency +
            p.l1Latency + p.l2Latency + p.l3Latency +
            std::max(p.dramLatency, p.nvmLatency);
        return 2 * p.mmuFrontDelay <= TraceEvent::kFrontMax &&
               worst <= TraceEvent::kAccessMax;
    }

    /**
     * A pointer load at @p va: memAccess, after any wait on an
     * in-flight storeP to the same line. The store queue can usually
     * forward the (unconverted) operand early; when forwarding
     * misses — the load straddles the store or arrives at the wrong
     * LSQ moment — the load waits for the storeP's translation.
     * Forwarding coverage is modeled at 2 of 3 dependent loads. The
     * wait is charged through tick(), so a trace carries it as fixed
     * work.
     * @return the access latency charged (the wait excluded)
     */
    Cycles
    ptrLoad(SimAddr va)
    {
        waitForStoreP(va);
        return memAccess(va, false, AccessKind::Load);
    }

    /**
     * One conditional branch with outcome @p taken at static @p site;
     * charges the misprediction penalty when the predictor is wrong.
     * @return true if mispredicted
     */
    bool
    branch(std::uint64_t site, bool taken)
    {
        if (trace_) {
            trace_->append({TraceEvent::Kind::Branch, site,
                            std::uint64_t(taken)});
        }
        const bool wrong = bpred_.branch(site, taken);
        // One cycle for the branch itself, plus penalty on a miss.
        now_ += 1 + (wrong ? params_.branchMissPenalty : 0);
        return wrong;
    }

    /**
     * Uncharged hardware translations: VALB va2ra for a virtual NVM
     * address, POLB ra2va for a relative one. The caller charges the
     * returned latency — as a tick at effective-address generation or
     * for a conversion the program asks for, or through issueStoreP,
     * whose FSM entry hides a storeP's Rs translation. The frontend
     * calls these on its own core (they return an address and may
     * fault); only the latency reaches the model.
     */
    Va2RaResult xlat(SimAddr va) { return valb_.va2ra(va); }
    XlatResult
    xlat(PoolId id, PoolOffset off)
    {
        return polb_.ra2va(id, off);
    }

    /**
     * Issue a storeP to @p va through the FSM buffer; charges the
     * visible cost. With a nonzero @p rs_latency the store's line
     * stays pending until the translation completes, for ptrLoad.
     */
    void
    issueStoreP(SimAddr va, Cycles rs_latency, Cycles rd_latency = 0)
    {
        if (trace_) {
            trace_->append(
                {TraceEvent::Kind::StorePIssue, rs_latency, rd_latency});
        }
        now_ += storePUnit_.issue(now_, rs_latency, rd_latency);
        if (rs_latency > 0) {
            pendingStoreP_.put(roundDown(va, params_.cacheLineBytes),
                               now_ + rs_latency);
        }
    }

    /**
     * Simulated-cycle spans the frontend brackets with begin/end
     * marks; each completed span records its cycles into a
     * histogram. A span whose end never comes (the frontend faulted
     * inside it) records nothing: the next begin starts afresh.
     */
    enum class Span : std::uint8_t
    {
        Check,  //!< one software dynamic check
        Assign, //!< one pointerAssignment / storeP
    };

    void spanBegin(Span s) { spanT0_[unsigned(s)] = now_; }

    void
    spanEnd(Span s)
    {
        spanCycles_[unsigned(s)].record(now_ - spanT0_[unsigned(s)]);
    }

    /** Cycles per completed span of kind @p s. */
    const obs::LatencyHistogram &
    spanHistogram(Span s) const
    {
        return spanCycles_[unsigned(s)];
    }

    /** Empty both span histograms. */
    void
    resetSpanHistograms()
    {
        for (obs::LatencyHistogram &h : spanCycles_)
            h.reset();
    }

    /**
     * Perform one model event: the call it encodes, exactly as the
     * frontend would have made it, after any tick the record carries.
     * Trace replay and a one-stage companion come through here.
     */
    void apply(const TraceEvent &e) { applyRecord<false>(e); }

    /**
     * Memory stage of a two-stage companion: run the memory stage of
     * a MemAccess/PtrLoad record and write its latencies into the
     * record; other kinds pass untouched.
     */
    void
    applyMemoryStage(TraceEvent &e)
    {
        using Kind = TraceEvent::Kind;
        const Kind k = e.kind();
        if (k != Kind::MemAccess && k != Kind::PtrLoad)
            return;
        const MemLatency m = memoryStage(e.a, (e.b() >> 8) & 1);
        e.kb |= (m.front << TraceEvent::kFrontShift) |
                (m.access << TraceEvent::kAccessShift);
    }

    /**
     * Clock stage of a two-stage companion: apply() on a record the
     * memory stage has filled, charging its latencies in order.
     */
    void applyClockStage(const TraceEvent &e) { applyRecord<true>(e); }

    /** Width of each latency in a StoreP event's payload. */
    static constexpr unsigned kStorePLatencyBits = 28;
    static constexpr Cycles kStorePLatencyMask =
        (Cycles{1} << kStorePLatencyBits) - 1;

    /**
     * Zero every statistic in the machine without disturbing the
     * warmed-up microarchitectural state — used at the start of a
     * measured region (the paper measures the run phase only).
     */
    void
    resetAllStats()
    {
        stats_.resetAll();
        caches_.resetStats();
        tlbs_.resetStats();
        bpred_.resetStats();
        polb_.resetStats();
        valb_.resetStats();
        storePUnit_.resetStats();
        bypass_.resetStats();
    }

    /**
     * Reset caches/TLBs/lookaside buffers (between bench phases).
     * In-flight storePs stay pending.
     */
    void
    flushAll()
    {
        caches_.flushAll();
        tlbs_.flushAll();
        polb_.invalidateAll();
        valb_.invalidateAll();
    }

    const MachineParams &params() const { return params_; }

    CacheHierarchy &caches() { return caches_; }
    TlbHierarchy &tlbs() { return tlbs_; }
    BranchPredictor &bpred() { return bpred_; }
    Polb &polb() { return polb_; }
    Valb &valb() { return valb_; }
    StorePUnit &storePUnit() { return storePUnit_; }

    const StatGroup &stats() const { return stats_; }
    std::uint64_t memAccesses() const { return memAccesses_.value(); }
    std::uint64_t storePCount() const { return storePs_.value(); }

  private:
    /** What the memory stage found for one access. */
    struct MemLatency
    {
        Cycles front;  //!< MMU-front probe delay
        Cycles access; //!< TLB + cache hierarchy + memory
    };

    /**
     * Memory stage of one access: the MMU-front bypass predictor, the
     * TLBs and the caches. Their state and latencies depend only on
     * the order of addresses and write flags, never on the clock.
     */
    MemLatency
    memoryStage(SimAddr va, bool is_write)
    {
        // MMU front: the POLB/VALB probe before the TLB (None by
        // default; Always/Predicted model the paper's future-work
        // discussion — see arch/bypass.hh).
        Cycles front = 0;
        switch (mmuFront_) {
          case MmuFrontModel::None:
            break;
          case MmuFrontModel::Always:
            front = params_.mmuFrontDelay;
            break;
          case MmuFrontModel::Predicted:
            front = bypass_.access(va, params_.mmuFrontDelay);
            break;
        }
        Cycles lat = tlbs_.access(va);
        lat += caches_.access(va, is_write, Layout::isNvm(va));
        return {front, lat};
    }

    /**
     * Clock stage of one access: the core counters, the trace (the
     * front delay as a Tick before the MemAccess) and the clock.
     */
    void
    chargeAccess(SimAddr va, bool is_write, AccessKind kind,
                 MemLatency m)
    {
        ++memAccesses_;
        switch (kind) {
          case AccessKind::Load:   ++loads_; break;
          case AccessKind::StoreD: ++stores_; break;
          case AccessKind::StoreP: ++storePs_; break;
        }
        if (Layout::isNvm(va))
            ++nvmAccesses_;
        if (m.front > 0) {
            now_ += m.front;
            if (trace_)
                trace_->append({TraceEvent::Kind::Tick, m.front});
        }
        if (trace_) {
            trace_->append({TraceEvent::Kind::MemAccess, va,
                            (std::uint64_t(is_write) << 8) |
                                std::uint64_t(kind)});
        }
        now_ += m.access;
    }

    /**
     * A pointer load's wait on an in-flight storeP to its line (see
     * ptrLoad), charged through tick().
     */
    void
    waitForStoreP(SimAddr va)
    {
        if (pendingStoreP_.empty())
            return;
        Cycles ready = 0;
        if (pendingStoreP_.take(roundDown(va, params_.cacheLineBytes),
                                ready) &&
            ready > now_ && ++depLoads_ % 3 == 0) {
            tick(ready - now_);
        }
    }

    /**
     * apply() with the memory stage run here (@p Staged false) or
     * taken from the record (true).
     */
    template <bool Staged>
    void
    applyRecord(const TraceEvent &e)
    {
        using Kind = TraceEvent::Kind;
        const std::uint64_t b = e.b();
        const auto access = [&](bool is_write, AccessKind kind) {
            if (Staged) {
                chargeAccess(e.a, is_write, kind,
                             {e.frontLatency(), e.accessLatency()});
            } else {
                memAccess(e.a, is_write, kind);
            }
        };
        switch (e.kind()) {
          case Kind::MemAccess:
            tick(e.carriedTick());
            access((b >> 8) & 1, static_cast<AccessKind>(b & 0xff));
            break;
          case Kind::Branch:
            tick(e.carriedTick());
            branch(e.a, b & 1);
            break;
          case Kind::Tick:
            tick(e.a);
            break;
          case Kind::StorePIssue:
            // A trace carries no store address: the forwarding wait
            // a pending line causes is already recorded as a Tick.
            issueStoreP(kNullAddr, e.a, b);
            break;
          case Kind::PtrLoad:
            tick(e.carriedTick());
            waitForStoreP(e.a);
            access(false, AccessKind::Load);
            break;
          case Kind::StoreP:
            issueStoreP(e.a, b & kStorePLatencyMask,
                        b >> kStorePLatencyBits);
            break;
          case Kind::SpanBegin:
            spanBegin(static_cast<Span>(e.a));
            break;
          case Kind::SpanEnd:
            spanEnd(static_cast<Span>(e.a));
            break;
        }
    }

    const MachineParams params_;

    // Cache-line boundaries by writer. With a two-stage companion the
    // memory stage's thread writes the first group and the clock
    // stage's thread the second; the POLB and VALB are probed by the
    // frontend's core. A one-stage companion writes both groups.

    // Memory stage.
    alignas(64) CacheHierarchy caches_;
    TlbHierarchy tlbs_;
    BypassPredictor bypass_;
    MmuFrontModel mmuFront_ = MmuFrontModel::None;

    // Clock stage (and the members below it, up to the POLB).
    alignas(64) Cycles now_ = 0;
    BranchPredictor bpred_;
    StorePUnit storePUnit_;

    /** Optional trace recording sink (not owned). */
    Trace *trace_ = nullptr;

    StatGroup stats_;
    Counter memAccesses_;
    Counter loads_;
    Counter stores_;
    Counter storePs_;
    Counter nvmAccesses_;

    /**
     * In-flight storeP completions by cache line: a pointer load that
     * hits a line whose storeP translation is still in the FSM
     * buffer may wait for it — the memory-dependence path through
     * which VALB latency becomes visible (Fig 14 sensitivity).
     */
    PendingStorePTable pendingStoreP_;
    /** Dependent-load round-robin state for forwarding coverage. */
    std::uint64_t depLoads_ = 0;

    /** Open span start times and completed-span cycles, by Span. */
    Cycles spanT0_[2] = {};
    obs::LatencyHistogram spanCycles_[2];

    // Frontend: the synchronous translations (xlat).
    alignas(64) Polb polb_;
    Valb valb_;

    /**
     * Observability federation: every architectural StatGroup joins
     * the process-wide MetricsRegistry for the machine's lifetime.
     * Declared last so they deregister before any group they name
     * is torn down.
     */
    obs::ScopedMetricsGroup obsCore_{stats_};
    obs::ScopedMetricsGroup obsL1_{caches_.l1().stats()};
    obs::ScopedMetricsGroup obsL2_{caches_.l2().stats()};
    obs::ScopedMetricsGroup obsL3_{caches_.l3().stats()};
    obs::ScopedMetricsGroup obsDtlb_{tlbs_.l1().stats()};
    obs::ScopedMetricsGroup obsStlb_{tlbs_.l2().stats()};
    obs::ScopedMetricsGroup obsBpred_{bpred_.stats()};
    obs::ScopedMetricsGroup obsPolb_{polb_.stats()};
    obs::ScopedMetricsGroup obsValb_{valb_.stats()};
    obs::ScopedMetricsGroup obsStoreP_{storePUnit_.stats()};
    obs::ScopedMetricsGroup obsBypass_{bypass_.stats()};
    obs::ScopedMetricsHistogram obsCheckCycles_{
        "upr.checkCycles", spanCycles_[unsigned(Span::Check)]};
    obs::ScopedMetricsHistogram obsPtrAssignCycles_{
        "upr.ptrAssignCycles", spanCycles_[unsigned(Span::Assign)]};
};

} // namespace upr

#endif // UPR_ARCH_MACHINE_HH
