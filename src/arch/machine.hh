/**
 * @file
 * Machine: the composed timing model — cycle clock, branch predictor,
 * TLB and cache hierarchies, POLB, VALB, the storeP unit and its
 * store-queue forwarding — over one pool manager. This is the
 * Snipersim-substitute and the only code that charges simulated
 * time: the UPR runtime (src/core/runtime.hh) drives it with the
 * memory events the instrumented workloads emit, and trace replay
 * (arch/trace.hh) drives a fresh Machine with a recorded stream of
 * the same events.
 */

#ifndef UPR_ARCH_MACHINE_HH
#define UPR_ARCH_MACHINE_HH

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
        : params_(params), caches_(params_), tlbs_(params_), bpred_(params_),
          polb_(params_, manager), valb_(params_, manager),
          storePUnit_(params_), bypass_(params_.bypassEntries),
          stats_("core")
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
            trace_->append({TraceEvent::Kind::Tick, n, 0});
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
     *
     * @param kind Load or StoreD accounting bucket
     * @return the access latency charged
     */
    enum class AccessKind { Load, StoreD, StoreP };

    Cycles
    memAccess(SimAddr va, bool is_write, AccessKind kind)
    {
        ++memAccesses_;
        switch (kind) {
          case AccessKind::Load:   ++loads_; break;
          case AccessKind::StoreD: ++stores_; break;
          case AccessKind::StoreP: ++storePs_; break;
        }
        const bool nvm = Layout::isNvm(va);
        if (nvm)
            ++nvmAccesses_;
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
        if (front > 0) {
            now_ += front;
            if (trace_)
                trace_->append({TraceEvent::Kind::Tick, front, 0});
        }
        if (trace_) {
            trace_->append({TraceEvent::Kind::MemAccess, va,
                            (std::uint64_t(is_write) << 8) |
                                std::uint64_t(kind)});
        }
        Cycles lat = tlbs_.access(va);
        lat += caches_.access(va, is_write, nvm);
        now_ += lat;
        return lat;
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
        if (!pendingStoreP_.empty()) {
            Cycles ready = 0;
            if (pendingStoreP_.take(roundDown(va, params_.cacheLineBytes),
                                    ready) &&
                ready > now_ && ++depLoads_ % 3 == 0) {
                tick(ready - now_);
            }
        }
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
     * Hardware ra2va at effective-address generation: POLB access.
     * Advances the clock by the lookup/walk latency.
     */
    SimAddr
    ra2vaHw(PoolId id, PoolOffset off)
    {
        const XlatResult r = polb_.ra2va(id, off);
        now_ += r.latency;
        // Translation latency replays as fixed work (see trace.hh).
        if (trace_)
            trace_->append({TraceEvent::Kind::Tick, r.latency, 0});
        return r.value;
    }

    /**
     * Hardware va2ra outside a storeP (a conversion the program
     * asks for): VALB access. Advances the clock by the lookup/walk
     * latency.
     */
    Va2RaResult
    va2raHw(SimAddr va)
    {
        const Va2RaResult r = valb_.va2ra(va);
        tick(r.latency);
        return r;
    }

    /**
     * Translate a storeP's Rs operand inside the storeP unit: VALB
     * va2ra for a virtual NVM address, POLB ra2va for a relative
     * one. The latency is returned, not charged: the caller hands it
     * to issueStoreP, whose FSM entry hides it.
     */
    Va2RaResult storePRsXlat(SimAddr va) { return valb_.va2ra(va); }
    XlatResult
    storePRsXlat(PoolId id, PoolOffset off)
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
            trace_->append({TraceEvent::Kind::StorePIssue, rs_latency,
                            rd_latency});
        }
        now_ += storePUnit_.issue(now_, rs_latency, rd_latency);
        if (rs_latency > 0) {
            pendingStoreP_.put(roundDown(va, params_.cacheLineBytes),
                               now_ + rs_latency);
        }
    }

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
    const MachineParams params_;

    Cycles now_ = 0;

    CacheHierarchy caches_;
    TlbHierarchy tlbs_;
    BranchPredictor bpred_;
    Polb polb_;
    Valb valb_;
    StorePUnit storePUnit_;
    BypassPredictor bypass_;
    MmuFrontModel mmuFront_ = MmuFrontModel::None;

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
};

} // namespace upr

#endif // UPR_ARCH_MACHINE_HH
