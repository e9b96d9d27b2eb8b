/**
 * @file
 * The UPR runtime: one simulated process — address space, volatile
 * heap, pool manager, timing machine — plus the user-transparent
 * persistent-reference semantics of paper Figs 3/4, implemented under
 * four interchangeable versions (Sec VII-A):
 *
 *  - Volatile:  native pointers, no NVM anywhere (reference point).
 *  - Sw:        compiler-inserted software checks: every pointer
 *               operation runs determineX/determineY as real branches
 *               through the branch predictor plus software-conversion
 *               call overhead.
 *  - Hw:        the paper's architecture support: conversions happen
 *               at effective-address generation (POLB) and inside the
 *               storeP unit (VALB + FSM buffer); no check branches.
 *  - Explicit:  explicit persistent references [26]: object IDs are
 *               translated through the POLB at *every* access to a
 *               persistent object, with no reuse of conversion
 *               results (contrast paper Fig 12).
 *
 * All counters for Table V (dynamic checks, abs->rel, rel->abs) and
 * Fig 15 (storeP / VALB / POLB access fractions) accumulate here.
 *
 * The runtime is the functional frontend of the timing model: every
 * simulated cost reaches its Machine as a model event (a TraceEvent),
 * built in one place (emit), recorded into an attached Trace, and
 * applied. A plain Runtime applies its first kCompanionAfterEvents
 * events inline through Machine::apply, then moves the model to a
 * companion thread (arch/model_companion.hh) and pushes the events
 * through a ring instead — unless it is a shard of a multi-shard fleet
 * (keepModelInline), an IR executor call is running on it
 * (InlineModelScope), or the process already runs its budget of
 * companions. Either way the results are bit-identical; reads of the
 * model (machine(), the span histograms, a metrics snapshot) first
 * drain the ring.
 */

#ifndef UPR_CORE_RUNTIME_HH
#define UPR_CORE_RUNTIME_HH

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine.hh"
#include "arch/model_companion.hh"
#include "common/stats.hh"
#include "core/pointer_repr.hh"
#include "mem/vmalloc.hh"
#include "nvm/pool_manager.hh"
#include "nvm/redo_log.hh"
#include "nvm/txn.hh"
#include "obs/metrics.hh"

namespace upr
{

/** The four compared implementations (paper Sec VII-A). */
enum class Version
{
    Volatile,
    Sw,
    Hw,
    Explicit,
};

/** Printable version name. */
const char *versionName(Version v);

/**
 * How compiled IR executes against this runtime (see
 * compiler/exec_fast.hh). Model drives every pointer operation
 * through the full timing model and is bit-exact to the Interpreter
 * (same cycles, counters, and histograms); Native skips the timing
 * model for raw host throughput while preserving results, faults,
 * and the executor-level dynamic-check count.
 */
enum class ExecTier
{
    Model,
    Native,
};

/** Printable tier name ("model" / "native", as in BENCH_exec.json). */
const char *execTierName(ExecTier t);

/**
 * Per-store logging hint the compiled code passes down from the
 * persistency analysis (compiler LogMode, mirrored here so the core
 * layer stays independent of the compiler headers). Only consulted
 * while a transaction is open; Log is always sound.
 */
enum class TxnLogHint : std::uint8_t
{
    Log,            //!< full pre-image / journal entry
    ElideFresh,     //!< target pmalloc'd inside this transaction
    ElideDominated, //!< exact range already logged in this transaction
};

namespace detail
{
/**
 * A process-unique nonzero token for the calling thread (dense, not
 * a hash of std::thread::id). Identifies the owner of a claimed
 * Runtime shard.
 */
inline std::uint64_t
threadToken()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t token =
        next.fetch_add(1, std::memory_order_relaxed);
    return token;
}
} // namespace detail

/** Per-check-site identifiers for the branch predictor (SW mode). */
enum class CheckSite : std::uint64_t
{
    ResolveY = 1,      //!< determineY before a dereference
    StoreDetX,         //!< determineX on a store destination
    StoreDetY,         //!< determineY on a stored pointer value
    CmpLhs,            //!< determineY on a comparison's left side
    CmpRhs,            //!< determineY on a comparison's right side
    ArithY,            //!< determineY in pointer arithmetic
    CastY,             //!< determineY in a pointer-to-int cast
};

/** One simulated process running one version. */
class Runtime
{
  public:
    struct Config
    {
        Version version = Version::Hw;
        MachineParams machine = {};
        Placement placement = Placement::Randomized;
        std::uint64_t seed = 0x5eed;
        /**
         * Fault (instead of storing the raw virtual address) when a
         * DRAM pointer is stored into an NVM location — the strict
         * reading of Table I's fault rows.
         */
        bool strictStoreP = false;
        /**
         * Model register reuse of conversion results in HW mode
         * (paper Fig 12). Disabling this is the Fig 12 ablation
         * (bench_harness --only paper, `uprstat --paper fig12`): HW
         * degenerates to Explicit-like per-access translation.
         */
        bool hwConversionReuse = true;

        /**
         * libvmmalloc mode (paper Sec VII-B): transparently override
         * malloc so the *entire heap* is persistent — every
         * mallocBytes() allocation lands in an internal pool and
         * returns an NVM virtual address. This is how the paper ran
         * its soundness campaign on the LLVM test-suite. Ignored
         * under the Volatile version.
         */
        bool persistHeap = false;

        /** Size of the internal libvmmalloc pool. */
        Bytes persistHeapPoolSize = 256ULL << 20;

        /**
         * Default execution tier for compiled-IR runs against this
         * runtime: FastExecutor instances constructed without an
         * explicit tier inherit it (the Interpreter is always
         * Model-equivalent).
         */
        ExecTier execTier = ExecTier::Model;
    };

    /** Construct with default configuration (HW version). */
    Runtime();

    explicit Runtime(Config config);

    /** Drains and joins the companion thread, if one runs. */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    // ------------------------------------------------------------------
    // Subsystems
    // ------------------------------------------------------------------
    Version version() const { return config_.version; }
    const Config &config() const { return config_; }
    AddressSpace &space() { return space_; }
    VolatileHeap &heap() { return heap_; }
    PoolManager &pools() { return pools_; }

    /**
     * The timing model, up to date: drains the companion's ring
     * first, so use it at phase boundaries, not per event (the hot
     * path goes through modelTick/modelBranch and the operations
     * below).
     */
    Machine &
    machine()
    {
        syncModel();
        return machine_;
    }

    // ------------------------------------------------------------------
    // Model events and where the model runs
    // ------------------------------------------------------------------

    /** Model events a plain Runtime calls inline before it tries to
     * move its model to a companion thread (and between retries). */
    static constexpr std::uint64_t kCompanionAfterEvents = 65536;

    // The model* calls are forced inline, as emit is: each sits under
    // a simulated operation, and an outlined copy costs a call per
    // event and loses the constant kind.

    /** Charge @p n cycles of fixed work. Never waits for the model. */
    [[gnu::always_inline]] void
    modelTick(Cycles n)
    {
        emit({TraceEvent::Kind::Tick, n});
    }

    /** One program branch through the predictor; never waits. */
    [[gnu::always_inline]] void
    modelBranch(std::uint64_t site, bool taken)
    {
        emit({TraceEvent::Kind::Branch, site, taken});
    }

    /**
     * Append every model event this runtime emits from now on to
     * @p trace (Sniper trace mode), until it is detached with
     * nullptr; replay it with replayTrace. For an exact replay,
     * attach before the first event. Needs no sync: the owner
     * records each event before it is applied or pushed.
     */
    void setTrace(Trace *trace) { trace_ = trace; }

    /** Return once the model has applied every event emitted so far. */
    void syncModel() const;

    /**
     * Keep the model inline for good (a shard of a fleet whose
     * workers already fill the cores), stopping a running companion.
     */
    void keepModelInline();

    /** Threads of the companion applying this runtime's events now
     * (0 while the model runs inline). */
    unsigned modelStages() const { return ring_ ? ring_->stages() : 0; }

    /**
     * RAII: drive the Machine inline for the scope (an IR executor
     * call, whose per-instruction events cost about as much to
     * interpret as to push). Drains the ring on entry; nests.
     */
    class InlineModelScope
    {
      public:
        explicit InlineModelScope(Runtime &rt) : rt_(rt)
        {
            if (rt_.inlineDepth_ == 0 && rt_.ring_) {
                rt_.ring_->drain();
                rt_.ring_ = nullptr;
            }
            ++rt_.inlineDepth_;
        }
        ~InlineModelScope()
        {
            if (--rt_.inlineDepth_ == 0)
                rt_.ring_ = rt_.companion_.get();
        }
        InlineModelScope(const InlineModelScope &) = delete;
        InlineModelScope &operator=(const InlineModelScope &) = delete;

      private:
        Runtime &rt_;
    };

    // ------------------------------------------------------------------
    // Allocation facade
    // ------------------------------------------------------------------

    /** Volatile allocation; returns a DRAM virtual address. */
    SimAddr mallocBytes(Bytes n);

    /** Free a volatile allocation. */
    void freeBytes(SimAddr va);

    /**
     * Persistent allocation in @p pool. Returns the canonical pointer
     * value of the version: a relative address for Sw/Hw/Explicit
     * (pmalloc returns relative addresses per its definition, Sec
     * V-B), or a plain DRAM address under Volatile (where no NVM
     * exists at all).
     */
    PtrBits pmallocBits(PoolId pool, Bytes n);

    /** Free a persistent (or Volatile-version) allocation. */
    void pfreeBits(PtrBits p);

    /**
     * Create-and-attach a pool (no-op handle under Volatile). The
     * engine choice is persisted in the pool header: it decides how
     * beginTxn() on this pool logs (undo pre-images vs staged redo
     * journal) and how recovery replays after a crash.
     */
    PoolId createPool(const std::string &name, Bytes size,
                      EngineKind engine = EngineKind::Undo);

    // ------------------------------------------------------------------
    // Persistent transactions (paper Sec VI)
    // ------------------------------------------------------------------

    /**
     * Open a transaction on @p pool, speaking whatever engine the
     * pool was created with. While active, every store this runtime
     * performs into that pool — including stores issued from inside
     * recompiled legacy-library code, which is the paper's point: the
     * application's transaction covers the library's writes with no
     * library changes — is covered: an undo pool logs each store's
     * pre-image first; a redo pool stages the store in DRAM until
     * commit journals it. No-op under the Volatile version.
     * @throws Fault{BadUsage} if a transaction is already active
     */
    void beginTxn(PoolId pool);

    /**
     * Commit the active transaction. On an undo pool this is durable
     * on return (log truncated). On a redo pool the transaction
     * enters the group-commit batch; it is durable on return iff the
     * batch reached groupCommitSize() (size 1, the default, makes
     * every commit durable immediately).
     */
    void commitTxn();

    /** Discard the active transaction (undo: roll back; redo: drop). */
    void abortTxn();

    /** True while a transaction is open. */
    bool
    inTxn() const
    {
        return activeTxn_ != nullptr ||
               (redoBatch_ && redoBatch_->txnOpen());
    }

    /**
     * Arm the logging hint for the next store(s). The executors set
     * this from the store's proven LogMode immediately before the
     * write and reset it to Log right after; it changes nothing
     * outside a transaction.
     */
    void setTxnLogHint(TxnLogHint h) { txnLogHint_ = h; }

    /** Current store-logging hint. */
    TxnLogHint txnLogHint() const { return txnLogHint_; }

    /**
     * Batch size for redo group commit: commitTxn() folds redo
     * transactions into a DRAM batch and pays the journal's flushes
     * and fences once every @p n commits. 0 is treated as 1 (flush
     * every commit). Undo pools ignore this. Lowering the size does
     * not flush an already-pending batch — call flushGroup().
     */
    void setGroupCommitSize(unsigned n)
    {
        groupCommitSize_ = n == 0 ? 1 : n;
    }

    /** Current redo group-commit batch size. */
    unsigned groupCommitSize() const { return groupCommitSize_; }

    /** Redo transactions committed but not yet flushed to the pool. */
    std::size_t
    pendingGroupTxns() const
    {
        return redoBatch_ ? redoBatch_->pendingTxns() : 0;
    }

    /**
     * Flush the pending redo group-commit batch now (no-op when
     * nothing is pending). Unflushed batches are *volatile*: anything
     * not flushed before the runtime goes away is discarded.
     * @throws Fault{BadUsage} while a transaction is open
     */
    void flushGroup();

    // ------------------------------------------------------------------
    // Pointer-operation semantics (paper Figs 3 and 4)
    // ------------------------------------------------------------------

    /**
     * Produce the virtual address to feed the memory system for a
     * dereference of @p p (load/storeD effective-address generation).
     * Version-dependent checks/translations are performed and timed.
     *
     * @param site static-instruction id for the SW check branch
     */
    SimAddr resolveForAccess(PtrBits p, std::uint64_t site);

    /** Timed load of a pointer-sized value at location @p loc_va. */
    PtrBits loadPtr(SimAddr loc_va);

    /**
     * pointerAssignment (Fig 3) / storeP (Table I): store pointer
     * value @p value into the location at @p loc_va, converting the
     * value to the canonical form of the destination medium.
     */
    void storePtr(SimAddr loc_va, PtrBits value, std::uint64_t site);

    /** Timed data load of a trivially copyable value. */
    template <typename T>
    T
    loadData(SimAddr va)
    {
        modelMemAccess(va, false, Machine::AccessKind::Load);
        return space_.read<T>(va);
    }

    /** Timed data store (storeD). */
    template <typename T>
    void
    storeData(SimAddr va, const T &value)
    {
        modelMemAccess(va, true, Machine::AccessKind::StoreD);
        space_.write<T>(va, value);
    }

    /** Timed bulk read. */
    void loadBytes(SimAddr va, void *dst, Bytes n);

    /** Timed bulk write. */
    void storeBytes(SimAddr va, const void *src, Bytes n);

    // Value-level operations (Fig 4 rows) --------------------------------

    /** Equality with full Fig 4 semantics (converting as needed). */
    bool ptrEq(PtrBits a, PtrBits b, std::uint64_t site);

    /** Ordering: a < b after normalizing both to virtual addresses. */
    bool ptrLt(PtrBits a, PtrBits b, std::uint64_t site);

    /** Additive operator: p + delta bytes (stays in its form). */
    PtrBits ptrAddBytes(PtrBits p, std::int64_t delta,
                        std::uint64_t site);

    /** Pointer difference in bytes (Fig 4 additive rows). */
    std::int64_t ptrDiffBytes(PtrBits a, PtrBits b, std::uint64_t site);

    /** (I)p cast: a relative pointer converts to its VA first. */
    std::uint64_t ptrToInt(PtrBits p, std::uint64_t site);

    /** (T*)i cast: bits pass through unchanged. */
    PtrBits intToPtr(std::uint64_t i) { return i; }

    /**
     * A program null-check branch: the outcome goes through the
     * branch predictor (identical in every version — this is the
     * program's own control flow, not a UPR check).
     */
    bool nullCheck(bool outcome, std::uint64_t site);

    /**
     * Any other data-dependent program branch (e.g. a key
     * comparison in a search tree); predictor-modeled, all versions.
     */
    bool dataBranch(bool outcome, std::uint64_t site);

    /**
     * Software ra2va with version-appropriate cost. Exposed for the
     * IR interpreter; also used internally.
     */
    SimAddr ra2va(PtrBits p, std::uint64_t site);

    /** Software va2ra with version-appropriate cost. */
    PtrBits va2ra(SimAddr va, std::uint64_t site);

    // ------------------------------------------------------------------
    // Counters (Table V / Fig 15)
    // ------------------------------------------------------------------
    std::uint64_t dynamicChecks() const { return dynChecks_.value(); }
    std::uint64_t absToRel() const { return absToRel_.value(); }
    std::uint64_t relToAbs() const { return relToAbs_.value(); }
    const StatGroup &stats() const { return stats_; }

    // ------------------------------------------------------------------
    // Latency histograms (observability layer)
    // ------------------------------------------------------------------

    /**
     * Cycles charged per software dynamic check (deterministic;
     * recorded by the model, registered as "upr.checkCycles").
     */
    const obs::LatencyHistogram &checkHistogram() const
    {
        syncModel();
        return machine_.spanHistogram(Machine::Span::Check);
    }

    /**
     * Cycles charged per pointerAssignment / storeP (deterministic;
     * assignments that fault are not recorded; "upr.ptrAssignCycles").
     */
    const obs::LatencyHistogram &ptrAssignHistogram() const
    {
        syncModel();
        return machine_.spanHistogram(Machine::Span::Assign);
    }

    /** Host nanoseconds per transaction commit (wall clock). */
    const obs::LatencyHistogram &txnCommitHistogram() const
    {
        return txnCommitNs_;
    }

    /** Reset UPR counters (machine counters are reset separately). */
    void resetCounters();

    /** Attach-epoch passthrough (register-reuse invalidation). */
    std::uint64_t poolEpoch() const { return pools_.epoch(); }

    /** The internal libvmmalloc pool (0 unless persistHeap is on). */
    PoolId vmmallocPool() const { return vmPool_; }

    /** Conversion results reused from registers (Fig 12), HW only. */
    std::uint64_t reuseHits() const { return reuseHits_.value(); }

    // ------------------------------------------------------------------
    // Shard ownership (docs/CONCURRENCY.md)
    // ------------------------------------------------------------------

    /**
     * Claim this runtime for the calling thread (re-entrant: the
     * owning thread may claim again, e.g. nested RuntimeScopes).
     * A Runtime is a *shard*: exactly one thread may drive it at a
     * time — its counters, machine model, and transaction state are
     * all single-owner by design.
     * @throws Fault{WrongShard} if another live thread owns it
     */
    void
    claimOwner()
    {
        const std::uint64_t me = detail::threadToken();
        std::uint64_t expected = 0;
        if (ownerToken_.compare_exchange_strong(
                expected, me, std::memory_order_acquire,
                std::memory_order_acquire)) {
            bindDepth_ = 1;
            return;
        }
        if (expected == me) {
            ++bindDepth_;
            return;
        }
        throw Fault(FaultKind::WrongShard,
                    "Runtime is bound to another thread; each shard "
                    "runtime has exactly one owner at a time");
    }

    /**
     * Release one claim level; frees the shard at depth zero, after
     * the model has caught up with everything the owner emitted.
     */
    void
    releaseOwner()
    {
        upr_assert_msg(
            ownerToken_.load(std::memory_order_relaxed) ==
                detail::threadToken() && bindDepth_ > 0,
            "releaseOwner by a thread that does not own this Runtime");
        if (--bindDepth_ == 0) {
            syncModel();
            ownerToken_.store(0, std::memory_order_release);
        }
    }

    /** Owning thread's token (0 = unowned); tests/diagnostics. */
    std::uint64_t
    ownerToken() const
    {
        return ownerToken_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * The one path of every model event: append it to the attached
     * trace, then push it into the companion's ring or apply it
     * inline (counting it towards a companion start). Forced inline,
     * so each call site's constant kind selects its Machine call and
     * ring path at compile time.
     */
    void emit(const TraceEvent &e);

    [[gnu::always_inline]] void
    modelMemAccess(SimAddr va, bool is_write, Machine::AccessKind kind)
    {
        emit({TraceEvent::Kind::MemAccess, va,
              (std::uint64_t(is_write) << 8) | std::uint64_t(kind)});
    }

    [[gnu::always_inline]] void
    modelSpan(TraceEvent::Kind mark, Machine::Span span)
    {
        emit({mark, std::uint64_t(span)});
    }

    void tryStartCompanion();

    /** POLB ra2va on the frontend; the latency goes out as a tick. */
    SimAddr polbRa2va(PoolId id, PoolOffset off);

    /** SW-mode dynamic check: one predictor branch plus ALU work. */
    bool swCheck(std::uint64_t site, bool outcome);

    /** Data-dependent branches of a software pool-table lookup. */
    void swLookupBranches(std::uint64_t key, std::uint64_t site);

    /** Normalize one comparison operand to a virtual address. */
    SimAddr normalizeCmp(PtrBits p, std::uint64_t site);

    /**
     * Register/temporary reuse of a previous ra2va result for the
     * same pointer value (HW version, Fig 12). Returns the virtual
     * address with zero cost on a hit, or kNullAddr on a miss.
     */
    SimAddr reuseLookup(PtrBits ra);

    /** Park a fresh conversion result for later reuse. */
    void reuseFill(PtrBits ra, SimAddr va);

    struct ReuseEntry
    {
        bool valid = false;
        PtrBits ra = 0;
        SimAddr va = 0;
        std::uint64_t epoch = 0;
    };

    Config config_;

    /**
     * Where model events go: the companion's ring while it drains
     * them (null inside an InlineModelScope or before a companion
     * starts), else straight to machine_.
     */
    ModelCompanion *ring_ = nullptr;
    /** Where emit() records events (not owned; null: nowhere). */
    Trace *trace_ = nullptr;
    /** Inline model events left before the next companion attempt. */
    std::uint64_t untilCompanion_ = kCompanionAfterEvents;
    /** Open InlineModelScopes. */
    unsigned inlineDepth_ = 0;

    AddressSpace space_;
    VolatileHeap heap_;
    PoolManager pools_;
    /** Cache-line aligned: the companion writes it, the owner writes
     * the members around it. */
    alignas(64) Machine machine_;
    std::unique_ptr<ModelCompanion> companion_;

    /** threadToken() of the owning thread; 0 while unclaimed. */
    std::atomic<std::uint64_t> ownerToken_{0};
    /** Re-entrant claim depth; touched only by the owning thread. */
    std::uint32_t bindDepth_ = 0;

    std::vector<ReuseEntry> reuse_;

    /** Internal pool backing libvmmalloc mode (0 = off). */
    PoolId vmPool_ = 0;

    /** Active undo-log transaction, if any. */
    std::unique_ptr<Txn> activeTxn_;
    /**
     * Redo group-commit driver for the pool named by txnPool_, kept
     * across transactions so a batch can span commits. Declared after
     * pools_: it holds a reference into the pool table and must be
     * destroyed first.
     */
    std::unique_ptr<RedoBatch> redoBatch_;
    PoolId txnPool_ = 0;
    /** Re-entrancy guard: the undo log's own writes are not logged. */
    bool txnLogging_ = false;
    /** Armed per store by the executors (persistency proofs). */
    TxnLogHint txnLogHint_ = TxnLogHint::Log;
    /** Redo commits per journal flush (1 = no batching). */
    unsigned groupCommitSize_ = 1;

    StatGroup stats_;
    Counter dynChecks_;
    Counter absToRel_;
    Counter relToAbs_;
    Counter storePOps_;
    Counter reuseHits_;

    /** Host nanoseconds per commitTxn (wall clock, non-model). */
    obs::LatencyHistogram txnCommitNs_;

    /** Observability federation (deregisters on destruction). */
    obs::ScopedMetricsGroup obsStats_{stats_};
    obs::ScopedMetricsHistogram obsTxnCommitNs_{"upr.txnCommitNs",
                                                txnCommitNs_};
};

/**
 * RAII hint armer: sets the runtime's store-logging hint for the
 * duration of one store and restores Log on scope exit (including the
 * faulting paths).
 */
class ScopedTxnLogHint
{
  public:
    ScopedTxnLogHint(Runtime &rt, TxnLogHint h) : rt_(rt)
    {
        rt_.setTxnLogHint(h);
    }
    ~ScopedTxnLogHint() { rt_.setTxnLogHint(TxnLogHint::Log); }
    ScopedTxnLogHint(const ScopedTxnLogHint &) = delete;
    ScopedTxnLogHint &operator=(const ScopedTxnLogHint &) = delete;

  private:
    Runtime &rt_;
};

// ----------------------------------------------------------------------
// Hot-path inline definitions. These sit under every simulated pointer
// operation (millions of calls per benchmark cell); defining them here
// lets callers in other translation units inline them without LTO.
// ----------------------------------------------------------------------

[[gnu::always_inline]] inline void
Runtime::emit(const TraceEvent &e)
{
    if (trace_) [[unlikely]]
        trace_->append(e);
    if (ring_) {
        ring_->push(e);
        return;
    }
    machine_.apply(e);
    if (--untilCompanion_ == 0)
        tryStartCompanion();
}

inline SimAddr
Runtime::polbRa2va(PoolId id, PoolOffset off)
{
    const XlatResult r = machine_.xlat(id, off);
    modelTick(r.latency);
    return r.value;
}

inline bool
Runtime::nullCheck(bool outcome, std::uint64_t site)
{
    modelBranch(site, outcome);
    return outcome;
}

inline bool
Runtime::dataBranch(bool outcome, std::uint64_t site)
{
    modelBranch(site, outcome);
    return outcome;
}

inline SimAddr
Runtime::reuseLookup(PtrBits ra)
{
    if (config_.version != Version::Hw || !config_.hwConversionReuse)
        return kNullAddr;
    const std::size_t idx =
        static_cast<std::size_t>((ra ^ (ra >> 16)) &
                                 (reuse_.size() - 1));
    const ReuseEntry &e = reuse_[idx];
    if (e.valid && e.ra == ra && e.epoch == pools_.epoch()) {
        ++reuseHits_;
        return e.va;
    }
    return kNullAddr;
}

inline void
Runtime::reuseFill(PtrBits ra, SimAddr va)
{
    if (config_.version != Version::Hw || !config_.hwConversionReuse)
        return;
    const std::size_t idx =
        static_cast<std::size_t>((ra ^ (ra >> 16)) &
                                 (reuse_.size() - 1));
    reuse_[idx] = ReuseEntry{true, ra, va, pools_.epoch()};
}

inline SimAddr
Runtime::ra2va(PtrBits p, std::uint64_t site)
{
    (void)site;
    upr_assert_msg(PtrRepr::isRelative(p), "ra2va of non-relative bits");
    const PoolId id = PtrRepr::poolOf(p);
    const PoolOffset off = PtrRepr::offsetOf(p);
    switch (config_.version) {
      case Version::Volatile:
        upr_panic("relative address under the Volatile version");
      case Version::Sw:
        ++relToAbs_;
        modelTick(config_.machine.swConvertLatency);
        swLookupBranches(off, site * 16 + 9);
        return pools_.ra2va(id, off);
      case Version::Hw: {
        // Conversion results live on in registers/temporaries under
        // user transparency (Fig 12): a reuse hit costs nothing and
        // performs no translation.
        if (const SimAddr va = reuseLookup(p); va != kNullAddr)
            return va;
        ++relToAbs_;
        const SimAddr va = polbRa2va(id, off);
        reuseFill(p, va);
        return va;
      }
      case Version::Explicit:
        // The object-ID API cannot park conversions in normal
        // pointers: every access translates anew.
        ++relToAbs_;
        modelTick(config_.machine.explicitApiLatency);
        return polbRa2va(id, off);
    }
    upr_panic("unreachable");
}

inline SimAddr
Runtime::resolveForAccess(PtrBits p, std::uint64_t site)
{
    if (PtrRepr::isNull(p))
        throw Fault(FaultKind::BadUsage, "dereference of null pointer");

    switch (config_.version) {
      case Version::Volatile:
        return PtrRepr::toVa(p);

      case Version::Sw: {
        // determineY as a real branch, then software conversion.
        const bool rel = swCheck(site, PtrRepr::isRelative(p));
        if (rel)
            return ra2va(p, site);
        return PtrRepr::toVa(p);
      }

      case Version::Hw:
        // The check is wired logic at effective-address generation
        // (bit 63): no branch, no ALU cost; relative addresses pay
        // the POLB lookup.
        if (PtrRepr::isRelative(p))
            return ra2va(p, site);
        return PtrRepr::toVa(p);

      case Version::Explicit:
        // Object-ID API: translation at every persistent access.
        if (PtrRepr::isRelative(p))
            return ra2va(p, site);
        return PtrRepr::toVa(p);
    }
    upr_panic("unreachable");
}

inline PtrBits
Runtime::loadPtr(SimAddr loc_va)
{
    emit({TraceEvent::Kind::PtrLoad, loc_va});
    return space_.read<PtrBits>(loc_va);
}

} // namespace upr

#endif // UPR_CORE_RUNTIME_HH
