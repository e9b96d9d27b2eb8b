#include "core/runtime.hh"

#include <chrono>
#include <cstdio>

namespace upr
{

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Volatile: return "Volatile";
      case Version::Sw:       return "SW";
      case Version::Hw:       return "HW";
      case Version::Explicit: return "Explicit";
    }
    return "?";
}

const char *
execTierName(ExecTier t)
{
    switch (t) {
      case ExecTier::Model:  return "model";
      case ExecTier::Native: return "native";
    }
    return "?";
}

Runtime::Runtime() : Runtime(Config{}) {}

namespace
{

/** @p c with the MMU front off where no POLB/VALB sits before the TLB. */
Runtime::Config
withFrontModel(Runtime::Config c)
{
    if (c.version == Version::Volatile || c.version == Version::Sw)
        c.machine.mmuFront = MmuFrontModel::None;
    return c;
}

} // namespace

Runtime::Runtime(Config config)
    : config_(withFrontModel(config)),
      space_(),
      heap_(space_),
      pools_(space_, config.placement, config.seed),
      machine_(config_.machine, pools_),
      reuse_(config.machine.reuseBufferEntries),
      stats_("upr")
{
    upr_assert(isPow2(config_.machine.reuseBufferEntries));
    if (config_.persistHeap && config_.version != Version::Volatile) {
        // libvmmalloc: the whole heap lives in one persistent pool.
        vmPool_ = pools_.createPool("__vmmalloc",
                                    config_.persistHeapPoolSize);
    }
    stats_.registerCounter("dynamicChecks", dynChecks_,
                           "software determineX/determineY checks");
    stats_.registerCounter("absToRel", absToRel_,
                           "virtual-to-relative conversions");
    stats_.registerCounter("relToAbs", relToAbs_,
                           "relative-to-virtual conversions");
    stats_.registerCounter("storePOps", storePOps_,
                           "pointer stores through storeP semantics");
    obs::MetricsRegistry::instance().addSyncHook(this,
                                                 [this] { syncModel(); });
}

Runtime::~Runtime()
{
    obs::MetricsRegistry::instance().removeSyncHook(this);
    // Members torn down after this (a transaction, the redo batch)
    // may still emit events: they go inline, to a Machine that
    // outlives them.
    keepModelInline();
}

// ----------------------------------------------------------------------
// Where the model runs
// ----------------------------------------------------------------------

void
Runtime::syncModel() const
{
    if (companion_)
        companion_->drain();
}

void
Runtime::keepModelInline()
{
    untilCompanion_ = ~std::uint64_t{0};
    ring_ = nullptr;
    companion_.reset();
}

void
Runtime::tryStartCompanion()
{
    untilCompanion_ = kCompanionAfterEvents;
    // Inside an executor call the model stays inline; a companion
    // that already exists resumes when the call returns.
    if (inlineDepth_ > 0 || companion_)
        return;
    companion_ = ModelCompanion::start(machine_);
    ring_ = companion_.get();
}

// ----------------------------------------------------------------------
// Allocation facade
// ----------------------------------------------------------------------

SimAddr
Runtime::mallocBytes(Bytes n)
{
    modelTick(config_.machine.allocatorLatency);
    if (vmPool_ != 0) {
        // libvmmalloc mode: malloc transparently allocates on NVM
        // and hands back an ordinary (virtual) address — the calling
        // code cannot tell, which is the point.
        return pools_.pmalloc(vmPool_, n);
    }
    return heap_.allocate(n);
}

void
Runtime::freeBytes(SimAddr va)
{
    modelTick(config_.machine.allocatorLatency);
    if (Layout::isNvm(va)) {
        pools_.pfree(va);
        return;
    }
    heap_.deallocate(va);
}

PtrBits
Runtime::pmallocBits(PoolId pool, Bytes n)
{
    modelTick(config_.machine.allocatorLatency);
    if (config_.version == Version::Volatile) {
        // The Volatile reference version has no NVM at all: persistent
        // allocations degrade to ordinary heap allocations.
        return PtrRepr::fromVa(heap_.allocate(n));
    }
    const SimAddr va = pools_.pmalloc(pool, n);
    return PtrRepr::makeRelative(
        pool, static_cast<PoolOffset>(va - pools_.baseOf(pool)));
}

void
Runtime::pfreeBits(PtrBits p)
{
    modelTick(config_.machine.allocatorLatency);
    if (config_.version == Version::Volatile) {
        heap_.deallocate(PtrRepr::toVa(p));
        return;
    }
    if (PtrRepr::isRelative(p)) {
        pools_.allocator(PtrRepr::poolOf(p)).free(PtrRepr::offsetOf(p));
        return;
    }
    // A persistent object referenced through its virtual address.
    pools_.pfree(PtrRepr::toVa(p));
}

PoolId
Runtime::createPool(const std::string &name, Bytes size,
                    EngineKind engine)
{
    return pools_.createPool(name, size, engine);
}

// ----------------------------------------------------------------------
// Persistent transactions (Sec VI)
// ----------------------------------------------------------------------

void
Runtime::beginTxn(PoolId pool)
{
    if (config_.version == Version::Volatile)
        return; // no NVM, nothing to make crash-consistent
    if (activeTxn_ || (redoBatch_ && redoBatch_->txnOpen())) {
        throw Fault(FaultKind::BadUsage,
                    "a transaction is already active");
    }
    if (!pools_.isAttached(pool)) {
        throw Fault(FaultKind::PoolDetached,
                    "beginTxn on a detached pool");
    }
    Pool &p = pools_.pool(pool);

    if (p.engineKind() == EngineKind::Redo) {
        // Redo path: no per-store log latency — stores are staged in
        // DRAM by the Backing itself and cost nothing extra until
        // commit journals them. The observer only harvests elision
        // hints: ranges a proof marks fresh skip the journal at
        // flush time.
        if (redoBatch_ && txnPool_ != pool) {
            redoBatch_->flush(); // drain the old pool's batch first
            redoBatch_.reset();
        }
        if (!redoBatch_)
            redoBatch_ = std::make_unique<RedoBatch>(p);
        redoBatch_->begin();
        txnPool_ = pool;
        p.backing().setWriteObserver([this](Bytes off, Bytes n) {
            if (txnLogHint_ == TxnLogHint::ElideFresh && redoBatch_)
                redoBatch_->noteElided(off, n);
        });
        return;
    }
    if (redoBatch_) {
        redoBatch_->flush(); // leaving redo: make its batch durable
        redoBatch_.reset();
    }
    activeTxn_ = std::make_unique<Txn>(p);
    txnPool_ = pool;

    // Log at the backing layer: *every* write into the pool — data,
    // pointer, and allocator/header metadata alike — records its
    // pre-image, so abort restores a fully consistent pool. The
    // guard breaks the recursion on the log's own writes.
    p.backing().setWriteObserver([this](Bytes off, Bytes n) {
        if (txnLogging_)
            return;
        txnLogging_ = true;
        if (txnLogHint_ == TxnLogHint::Log) {
            modelTick(config_.machine.txnLogLatency);
            activeTxn_->recordWrite(static_cast<PoolOffset>(off), n);
        } else {
            // Proven elidable: no pre-image, no fence, no log
            // latency — the range is only remembered for the commit
            // flush.
            activeTxn_->recordElidedWrite(static_cast<PoolOffset>(off),
                                          n);
        }
        txnLogging_ = false;
    });
}

void
Runtime::commitTxn()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_ && redoBatch_->txnOpen()) {
        pools_.pool(txnPool_).backing().setWriteObserver(nullptr);
        const auto t0 = std::chrono::steady_clock::now();
        redoBatch_->commit();
        if (groupCommitSize_ <= 1 ||
            redoBatch_->pendingTxns() >= groupCommitSize_) {
            redoBatch_->flush();
        }
        txnCommitNs_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        return;
    }
    upr_assert_msg(activeTxn_ != nullptr, "commit without beginTxn");
    pools_.pool(txnPool_).backing().setWriteObserver(nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    activeTxn_->commit();
    txnCommitNs_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    activeTxn_.reset();
}

void
Runtime::abortTxn()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_ && redoBatch_->txnOpen()) {
        pools_.pool(txnPool_).backing().setWriteObserver(nullptr);
        redoBatch_->abort();
        return;
    }
    upr_assert_msg(activeTxn_ != nullptr, "abort without beginTxn");
    pools_.pool(txnPool_).backing().setWriteObserver(nullptr);
    activeTxn_->abort();
    activeTxn_.reset();
}

void
Runtime::flushGroup()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_)
        redoBatch_->flush();
}

// ----------------------------------------------------------------------
// Checks and conversions
// ----------------------------------------------------------------------

bool
Runtime::swCheck(std::uint64_t site, bool outcome)
{
    // The span's simulated-cycle cost (ALU + branch, including a
    // possible misprediction penalty) is deterministic, so the bench
    // goldens can assert on the check histogram.
    modelSpan(TraceEvent::Kind::SpanBegin, Machine::Span::Check);
    ++dynChecks_;
    modelTick(config_.machine.swCheckAluLatency);
    modelBranch(site, outcome);
    modelSpan(TraceEvent::Kind::SpanEnd, Machine::Span::Check);
    return outcome;
}

void
Runtime::swLookupBranches(std::uint64_t key, std::uint64_t site)
{
    // The software conversion walks a pool table (hash probe or
    // binary search); its branches turn on address bits and are
    // data-dependent, so they predict poorly across many objects.
    for (unsigned i = 0; i < config_.machine.swConvertBranches; ++i)
        modelBranch(site + i, bit(key, 4 + 5 * i));
}




PtrBits
Runtime::va2ra(SimAddr va, std::uint64_t site)
{
    (void)site;
    ++absToRel_;
    switch (config_.version) {
      case Version::Volatile:
        upr_panic("va2ra under the Volatile version");
      case Version::Sw: {
        modelTick(config_.machine.swConvertLatency);
        swLookupBranches(va, site * 16 + 13);
        auto [id, off] = pools_.va2ra(va);
        return PtrRepr::makeRelative(id, off);
      }
      case Version::Hw:
      case Version::Explicit: {
        if (config_.version == Version::Explicit)
            modelTick(config_.machine.explicitApiLatency);
        const Va2RaResult r = machine_.xlat(va);
        modelTick(r.latency);
        return PtrRepr::makeRelative(r.id, r.offset);
      }
    }
    upr_panic("unreachable");
}

// ----------------------------------------------------------------------
// Dereference path
// ----------------------------------------------------------------------



void
Runtime::storePtr(SimAddr loc_va, PtrBits value, std::uint64_t site)
{
    if (config_.version == Version::Volatile) {
        storeData<PtrBits>(loc_va, value);
        return;
    }

    // A fault inside the span leaves it without an end: unrecorded.
    modelSpan(TraceEvent::Kind::SpanBegin, Machine::Span::Assign);
    const bool dest_nvm =
        PtrRepr::determineX(loc_va) == LocKind::Nvm;
    const PtrForm form = PtrRepr::determineY(value);
    ++storePOps_;

    if (config_.version == Version::Explicit) {
        // Explicit programs store object IDs directly; no conversion
        // is ever needed (nor any check: the types are distinct).
        // (Pre-image already logged above when in a transaction.)
        modelMemAccess(loc_va, true, Machine::AccessKind::StoreD);
        space_.write<PtrBits>(loc_va, value);
        modelSpan(TraceEvent::Kind::SpanEnd, Machine::Span::Assign);
        return;
    }

    if (config_.version == Version::Sw) {
        // pointerAssignment (Fig 3) in software: two checks plus a
        // conversion when formats disagree with the destination.
        const bool is_rel =
            swCheck(site * 4 + 1, form == PtrForm::Relative);
        swCheck(site * 4 + 2, dest_nvm);
        PtrBits out = value;
        if (!PtrRepr::isNull(value)) {
            if (dest_nvm && !is_rel) {
                if (form == PtrForm::VirtualNvm) {
                    out = va2ra(PtrRepr::toVa(value), site);
                } else if (config_.strictStoreP) {
                    throw Fault(FaultKind::StorePFault,
                                "DRAM pointer stored into NVM");
                }
            } else if (!dest_nvm && is_rel) {
                out = PtrRepr::fromVa(ra2va(value, site));
            }
        }
        modelMemAccess(loc_va, true, Machine::AccessKind::StoreD);
        space_.write<PtrBits>(loc_va, out);
        modelSpan(TraceEvent::Kind::SpanEnd, Machine::Span::Assign);
        return;
    }

    // HW version: the storeP instruction (Table I). Rs may need
    // translation through VALB (va2ra) or POLB (ra2va) inside the
    // FSM; Rd here is already a virtual address (Machine::issueStoreP).
    Cycles rs_latency = 0;
    PtrBits out = value;
    if (!PtrRepr::isNull(value)) {
        if (dest_nvm && form == PtrForm::VirtualNvm) {
            const Va2RaResult r =
                machine_.xlat(PtrRepr::toVa(value));
            ++absToRel_;
            rs_latency = r.latency;
            out = PtrRepr::makeRelative(r.id, r.offset);
        } else if (dest_nvm && form == PtrForm::VirtualDram &&
                   config_.strictStoreP) {
            throw Fault(FaultKind::StorePFault,
                        "DRAM pointer stored into NVM");
        } else if (dest_nvm && form == PtrForm::Relative &&
                   reuseLookup(value) != kNullAddr) {
            // The program holds this pointer as a converted virtual
            // address in a register (paper Fig 7: pointer values pass
            // through stack temporaries in VA form); the compiled
            // storeP stores the VA operand and converts it back
            // through the VALB. The stored bits are the same
            // canonical relative value either way.
            const Va2RaResult r =
                machine_.xlat(reuseLookup(value));
            ++absToRel_;
            rs_latency = r.latency;
            upr_assert(PtrRepr::makeRelative(r.id, r.offset) == value);
        } else if (!dest_nvm && form == PtrForm::Relative) {
            const XlatResult r = machine_.xlat(
                PtrRepr::poolOf(value), PtrRepr::offsetOf(value));
            ++relToAbs_;
            rs_latency = r.latency;
            out = PtrRepr::fromVa(r.value);
        }
    }
    emit({TraceEvent::Kind::StoreP, loc_va, rs_latency});
    modelMemAccess(loc_va, true, Machine::AccessKind::StoreP);
    space_.write<PtrBits>(loc_va, out);
    modelSpan(TraceEvent::Kind::SpanEnd, Machine::Span::Assign);
}

void
Runtime::loadBytes(SimAddr va, void *dst, Bytes n)
{
    const Bytes line = config_.machine.cacheLineBytes;
    for (SimAddr a = roundDown(va, line); a < va + n; a += line)
        modelMemAccess(a, false, Machine::AccessKind::Load);
    space_.readBytes(va, dst, n);
}

void
Runtime::storeBytes(SimAddr va, const void *src, Bytes n)
{
    const Bytes line = config_.machine.cacheLineBytes;
    for (SimAddr a = roundDown(va, line); a < va + n; a += line)
        modelMemAccess(a, true, Machine::AccessKind::StoreD);
    space_.writeBytes(va, src, n);
}

// ----------------------------------------------------------------------
// Value-level Fig 4 operations
// ----------------------------------------------------------------------

bool
Runtime::ptrEq(PtrBits a, PtrBits b, std::uint64_t site)
{
    // The comparison result feeds a conditional branch in the
    // program (all versions): run it through the predictor so the
    // Fig 13 baseline is a real branch stream, not zero.
    // p op NULL: direct comparison, no conversion (Fig 4).
    if (PtrRepr::isNull(a) || PtrRepr::isNull(b)) {
        const bool r = a == b;
        modelBranch(site * 8 + 1, r);
        return r;
    }
    if (config_.version == Version::Volatile ||
        config_.version == Version::Explicit) {
        // Volatile: plain compare. Explicit: object IDs compare
        // directly (the typed API guarantees both sides are IDs).
        const bool r = a == b;
        modelBranch(site * 8 + 1, r);
        return r;
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 1);
    const SimAddr vb = normalizeCmp(b, site * 8 + 2);
    const bool r = va_a == vb;
    modelBranch(site * 8 + 3, r);
    return r;
}

bool
Runtime::ptrLt(PtrBits a, PtrBits b, std::uint64_t site)
{
    if (config_.version == Version::Volatile) {
        const bool r = a < b;
        modelBranch(site * 8 + 3, r);
        return r;
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 3);
    const SimAddr vb = normalizeCmp(b, site * 8 + 4);
    const bool r = va_a < vb;
    modelBranch(site * 8 + 5, r);
    return r;
}



PtrBits
Runtime::ptrAddBytes(PtrBits p, std::int64_t delta, std::uint64_t site)
{
    if (config_.version == Version::Sw)
        swCheck(site * 8 + 5, PtrRepr::isRelative(p));
    if (PtrRepr::isRelative(p)) {
        // Relative pointers carry a 32-bit offset; arithmetic that
        // leaves [0, 2^32) cannot name anything in the pool. Raise a
        // catchable fault rather than dying on the representation
        // assert inside PtrRepr::addBytes.
        const std::int64_t off =
            static_cast<std::int64_t>(PtrRepr::offsetOf(p)) + delta;
        if (off < 0 || off > 0xffffffffLL) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "pointer arithmetic wraps the 32-bit offset "
                          "(offset %llu, delta %lld)",
                          (unsigned long long)PtrRepr::offsetOf(p),
                          (long long)delta);
            throw Fault(FaultKind::OffsetOutOfPool, buf);
        }
    }
    modelTick(1);
    return PtrRepr::addBytes(p, delta);
}

std::int64_t
Runtime::ptrDiffBytes(PtrBits a, PtrBits b, std::uint64_t site)
{
    // pxr - pxr' within one pool subtracts offsets directly (Fig 4).
    if (PtrRepr::isRelative(a) && PtrRepr::isRelative(b) &&
        PtrRepr::poolOf(a) == PtrRepr::poolOf(b)) {
        if (config_.version == Version::Sw) {
            swCheck(site * 8 + 6, true);
            swCheck(site * 8 + 7, true);
        }
        modelTick(1);
        return static_cast<std::int64_t>(PtrRepr::offsetOf(a)) -
               static_cast<std::int64_t>(PtrRepr::offsetOf(b));
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 6);
    const SimAddr vb = normalizeCmp(b, site * 8 + 7);
    modelTick(1);
    return static_cast<std::int64_t>(va_a) -
           static_cast<std::int64_t>(vb);
}

std::uint64_t
Runtime::ptrToInt(PtrBits p, std::uint64_t site)
{
    // (I)pxv passes through; (I)pxr converts to the virtual address.
    if (config_.version == Version::Sw)
        swCheck(site * 8 + 1, PtrRepr::isRelative(p));
    if (PtrRepr::isRelative(p) && config_.version != Version::Volatile)
        return ra2va(p, site);
    return p;
}

SimAddr
Runtime::normalizeCmp(PtrBits p, std::uint64_t site)
{
    if (config_.version == Version::Sw) {
        const bool rel = swCheck(site, PtrRepr::isRelative(p));
        return rel ? ra2va(p, site) : PtrRepr::toVa(p);
    }
    if (PtrRepr::isRelative(p))
        return ra2va(p, site);
    return PtrRepr::toVa(p);
}

void
Runtime::resetCounters()
{
    stats_.resetAll();
    // The histograms cover the same measured region as the counters:
    // resetting one without the other would break the
    // count-equals-counter invariants the obs tests assert.
    syncModel();
    machine_.resetSpanHistograms();
    txnCommitNs_.reset();
}

} // namespace upr
