#include "compiler/exec_fast.hh"

#include <cstring>

#if defined(__GNUC__) || defined(__clang__)
#define UPR_EXEC_GOTO 1
#else
#define UPR_EXEC_GOTO 0
#endif

namespace upr
{

using namespace ir;

FastExecutor::FastExecutor(Runtime &rt, const LoweredModule &lm,
                           Config config)
    : rt_(rt), mod_(&lm), config_(config), fuelLeft_(config.fuel)
{
    upr_assert_msg(lm.version == rt.version(),
                   "module lowered for %s run against a %s runtime",
                   versionName(lm.version),
                   versionName(rt.version()));
}

FastExecutor::FastExecutor(Runtime &rt, const LoweredModule &lm)
    : FastExecutor(rt, lm, [&rt] {
          Config c;
          c.tier = rt.config().execTier;
          return c;
      }())
{
}

template <typename T>
T
FastExecutor::nativeRead(Frame &f, SimAddr va)
{
    // Single compare: winLim is size - 8 of a valid window, and an
    // invalid window's base (kNoWindow) puts every off past it.
    static_assert(sizeof(T) == 8, "the IR only moves 8-byte values");
    const Bytes off = va - f.winBase;
    if (off <= f.winLim) {
        T value;
        std::memcpy(&value, f.winData + off, sizeof(T));
        return value;
    }
    return nativeReadSlow<T>(f, va);
}

template <typename T>
T
FastExecutor::nativeReadSlow(Frame &f, SimAddr va)
{
    const auto r = rt_.space().rawRegion(va);
    if (r.data && va - r.base + sizeof(T) <= r.size) {
        f.winBase = r.base;
        f.winLim = r.size - sizeof(T);
        f.winData = r.data;
        T value;
        std::memcpy(&value, r.data + (va - r.base), sizeof(T));
        return value;
    }
    // Not plain memory (stage overlay, observers, quarantine, domain
    // tracking) or unmapped: the full path keeps exact semantics.
    return rt_.space().read<T>(va);
}

template <typename T>
void
FastExecutor::nativeWrite(Frame &f, SimAddr va, T value)
{
    static_assert(sizeof(T) == 8, "the IR only moves 8-byte values");
    const Bytes off = va - f.winBase;
    if (off <= f.winLim) {
        std::memcpy(f.winData + off, &value, sizeof(T));
        return;
    }
    nativeWriteSlow<T>(f, va, value);
}

template <typename T>
void
FastExecutor::nativeWriteSlow(Frame &f, SimAddr va, T value)
{
    const auto r = rt_.space().rawRegion(va);
    if (r.data && va - r.base + sizeof(T) <= r.size) {
        f.winBase = r.base;
        f.winLim = r.size - sizeof(T);
        f.winData = r.data;
        std::memcpy(r.data + (va - r.base), &value, sizeof(T));
        return;
    }
    rt_.space().write<T>(va, value);
}

void
FastExecutor::burnBlock(Frame &f, std::uint64_t n)
{
    if (f.fuel < n) {
        // Clamp so instructionCount() reports the full budget, like
        // the Interpreter's count at its per-instruction exhaustion.
        f.fuel = 0;
        throw Fault(FaultKind::BadUsage,
                    "interpreter fuel exhausted (infinite loop?)");
    }
    f.fuel -= n;
}

SimAddr
FastExecutor::fastRa2va(Frame &f, PtrBits p)
{
    // No attach-epoch check: only pool attach/detach moves a pool,
    // no executed op can do either, and the cache dies with the
    // frame, so a valid entry is current for the whole run.
    const PoolId id = PtrRepr::poolOf(p);
    const PoolOffset off = PtrRepr::offsetOf(p);
    if (id == f.cachePool && off < f.cacheSize)
        return f.cacheBase + off;
    // Slow path: the manager raises the typed faults (unknown pool /
    // detached / out of range) and its success refills the cache.
    const SimAddr va = rt_.pools().ra2va(id, off);
    f.cachePool = id;
    f.cacheBase = va - off;
    f.cacheSize = rt_.pools().pool(id).size();
    return va;
}

PoolId
FastExecutor::poolForSlot(std::int64_t slot)
{
    if (slot == 0)
        return config_.pool;
    auto it = txPools_.find(slot);
    if (it != txPools_.end())
        return it->second;
    PoolId id = 0;
    if (rt_.version() == Version::Volatile) {
        // No NVM anywhere: beginTxn is a no-op on any handle.
        id = config_.pool;
    } else {
        const std::string name = "txslot" + std::to_string(slot);
        id = rt_.pools().idByName(name);
        if (id == 0) {
            id = rt_.createPool(
                name, Bytes{16} << 20,
                rt_.pools().pool(config_.pool).engineKind());
        }
    }
    txPools_.emplace(slot, id);
    return id;
}

PtrBits
FastExecutor::fastVa2ra(Frame &f, SimAddr va)
{
    if (f.cacheSize != 0 && va >= f.cacheBase &&
        va - f.cacheBase < f.cacheSize) {
        return PtrRepr::makeRelative(
            f.cachePool, static_cast<PoolOffset>(va - f.cacheBase));
    }
    auto [id, off] = rt_.pools().va2ra(va);
    f.cachePool = id;
    f.cacheBase = va - off;
    f.cacheSize = rt_.pools().pool(id).size();
    return PtrRepr::makeRelative(id, off);
}

template <ExecTier Tier>
SimAddr
FastExecutor::resolveAddr(Frame &f, std::uint64_t bits, AddrMode mode,
                          std::uint64_t site)
{
    switch (mode) {
      case AddrMode::Dynamic:
        // Counted before the null test, like the Interpreter's
        // dynamic path (the check runs; the fault follows it).
        ++f.dynChecks;
        if constexpr (Tier == ExecTier::Model) {
            return rt_.resolveForAccess(bits, site);
        } else {
            if (PtrRepr::isNull(bits)) {
                throw Fault(FaultKind::BadUsage,
                            "dereference of null pointer");
            }
            if (PtrRepr::isRelative(bits))
                return fastRa2va(f, bits);
            return PtrRepr::toVa(bits);
        }
      case AddrMode::Refined:
        if (bits == 0) {
            throw Fault(FaultKind::BadUsage,
                        "null dereference in IR");
        }
        if (PtrRepr::isRelative(bits)) {
            if constexpr (Tier == ExecTier::Model)
                return rt_.ra2va(bits, site);
            else
                return fastRa2va(f, bits);
        }
        return PtrRepr::toVa(bits);
      case AddrMode::StaticConvert:
        if constexpr (Tier == ExecTier::Model)
            return rt_.ra2va(bits, site);
        else
            return fastRa2va(f, bits);
      case AddrMode::Plain:
        break;
    }
    if (bits == 0)
        throw Fault(FaultKind::BadUsage, "null dereference in IR");
    return PtrRepr::toVa(bits);
}

template <ExecTier Tier>
std::uint64_t
FastExecutor::cmpNorm(Frame &f, std::uint64_t bits, CmpMode mode,
                      std::uint64_t site)
{
    if (bits == 0)
        return 0;
    switch (mode) {
      case CmpMode::Dynamic:
        ++f.dynChecks;
        if constexpr (Tier == ExecTier::Model) {
            return rt_.resolveForAccess(bits, site);
        } else {
            if (PtrRepr::isRelative(bits))
                return fastRa2va(f, bits);
            return PtrRepr::toVa(bits);
        }
      case CmpMode::Static:
        if (PtrRepr::isRelative(bits)) {
            if constexpr (Tier == ExecTier::Model)
                return rt_.ra2va(bits, site);
            else
                return fastRa2va(f, bits);
        }
        return bits;
      case CmpMode::Raw:
      case CmpMode::Int:
        break;
    }
    return bits;
}

void
FastExecutor::nativeStorePtr(Frame &f, SimAddr loc_va, PtrBits value)
{
    if (rt_.version() == Version::Explicit) {
        // Object IDs store directly: no conversion, no fault.
        nativeWrite<PtrBits>(f, loc_va, value);
        return;
    }
    // Sw and Hw canonicalize to the destination medium's form and
    // agree on the stored bits; only their (skipped) timing differs.
    const bool dest_nvm = Layout::isNvm(loc_va);
    const PtrForm form = PtrRepr::determineY(value);
    PtrBits out = value;
    if (!PtrRepr::isNull(value)) {
        if (dest_nvm && form == PtrForm::VirtualNvm) {
            out = fastVa2ra(f, PtrRepr::toVa(value));
        } else if (dest_nvm && form == PtrForm::VirtualDram &&
                   rt_.config().strictStoreP) {
            throw Fault(FaultKind::StorePFault,
                        "DRAM pointer stored into NVM");
        } else if (!dest_nvm && form == PtrForm::Relative) {
            out = PtrRepr::fromVa(fastRa2va(f, value));
        }
    }
    nativeWrite<PtrBits>(f, loc_va, out);
}

template <ExecTier Tier>
void
FastExecutor::execStoreP(Frame &f, std::uint64_t value,
                         SimAddr dest_va, const LoweredInst &in)
{
    const std::uint64_t site = in.site + 1;
    switch (in.storep) {
      case StorePMode::Raw:
        if constexpr (Tier == ExecTier::Model)
            rt_.storeData<PtrBits>(dest_va, value);
        else
            nativeWrite<PtrBits>(f, dest_va, value);
        return;
      case StorePMode::Dynamic:
        f.dynChecks += (in.destDynamic ? 1 : 0) +
                       (in.valueDynamic ? 1 : 0);
        if constexpr (Tier == ExecTier::Model)
            rt_.storePtr(dest_va, value, site);
        else
            nativeStorePtr(f, dest_va, value);
        return;
      case StorePMode::Static:
        break;
    }
    // Fully static: the compiler planted the exact conversion.
    PtrBits out = value;
    const bool dest_nvm = Layout::isNvm(dest_va);
    if (value != 0) {
        const PtrForm form = PtrRepr::determineY(value);
        if (dest_nvm && form == PtrForm::VirtualNvm) {
            if constexpr (Tier == ExecTier::Model)
                out = rt_.va2ra(PtrRepr::toVa(value), site);
            else
                out = fastVa2ra(f, PtrRepr::toVa(value));
        } else if (!dest_nvm && form == PtrForm::Relative) {
            if constexpr (Tier == ExecTier::Model)
                out = PtrRepr::fromVa(rt_.ra2va(value, site));
            else
                out = PtrRepr::fromVa(fastRa2va(f, value));
        } else if (dest_nvm && form == PtrForm::VirtualDram &&
                   in.destElided && rt_.config().strictStoreP) {
            // The destination check was elided, not proved away:
            // keep the dynamic path's strict storeP fault.
            throw Fault(FaultKind::StorePFault,
                        "DRAM pointer stored into NVM");
        }
    }
    if constexpr (Tier == ExecTier::Model)
        rt_.storeData<PtrBits>(dest_va, out);
    else
        nativeWrite<PtrBits>(f, dest_va, out);
}

namespace
{

/** ptrAddBytes minus the timing model (same wrap fault). */
PtrBits
nativeAddBytes(PtrBits p, std::int64_t delta)
{
    if (PtrRepr::isRelative(p)) {
        const std::int64_t off =
            static_cast<std::int64_t>(PtrRepr::offsetOf(p)) + delta;
        if (off < 0 || off > 0xffffffffLL) {
            throw Fault(FaultKind::OffsetOutOfPool,
                        "pointer arithmetic wraps the 32-bit offset");
        }
    }
    return PtrRepr::addBytes(p, delta);
}

} // namespace

template <ExecTier Tier>
std::uint64_t
FastExecutor::exec(const LoweredFunction &lf,
                   std::vector<std::uint64_t> &regs,
                   std::uint32_t depth)
{
    if (depth >= config_.maxDepth)
        throw Fault(FaultKind::BadUsage, "IR call depth exceeded");

    const LoweredInst *const code = lf.code.data();
    const PhiMove *const moves = lf.movePool.data();
    // Hoisted data pointer: regs never reallocates inside a frame,
    // but the compiler cannot prove that across opaque runtime calls.
    std::uint64_t *const R = regs.data();
    std::vector<SimAddr> allocas;
    std::uint64_t ret_value = 0;
    std::uint32_t pc = 0;
    std::uint32_t blockEnd = 0;
    const LoweredInst *in = nullptr;

    // The frame's hot state (exec_fast.hh Frame): the executor's
    // members hold the truth only between frames; within one, fuel
    // and the check count live here and flush at every exit below.
    Frame f;
    f.fuel = fuelLeft_;

    // Fuel is batched: one subtraction per block entered covers the
    // edge's phi moves (one each, like the Interpreter's per-phi
    // burn) and every non-phi instruction of the block — blocks only
    // exit at the end, via their terminator, or by throwing, and the
    // catch below refunds the unexecuted tail of a throwing block.
    auto take_edge = [&](std::uint32_t mb, std::uint32_t me,
                         std::uint32_t target, std::uint32_t len) {
        pc = target;
        blockEnd = target; // nothing of the new block executed yet
        burnBlock(f, (me - mb) + len);
        blockEnd = target + len;
        const std::uint32_t n = me - mb;
        if (n == 1) {
            // Single move: trivially parallel, no scratch needed.
            R[moves[mb].dst] = R[moves[mb].src];
        } else if (n != 0) {
            // Parallel-copy semantics: read all, then write all.
            if (phiScratch_.size() < n)
                phiScratch_.resize(n);
            for (std::uint32_t m = 0; m < n; ++m)
                phiScratch_[m] = R[moves[mb + m].src];
            for (std::uint32_t m = 0; m < n; ++m)
                R[moves[mb + m].dst] = phiScratch_[m];
        }
    };

    // Per-op bodies shared by the solo handlers and the fused
    // superinstructions (exec_lower.hh ExecOp): a fused handler runs
    // two bodies back to back — identical work, identical order,
    // identical Model-tier runtime calls — with one dispatch.
    auto do_load = [&](const LoweredInst &ld) {
        const SimAddr va =
            resolveAddr<Tier>(f, R[ld.a], ld.addr, ld.site);
        if constexpr (Tier == ExecTier::Model) {
            R[ld.result] = ld.type == Type::Ptr
                ? rt_.loadPtr(va)
                : rt_.loadData<std::uint64_t>(va);
        } else {
            R[ld.result] = nativeRead<std::uint64_t>(f, va);
        }
    };
    auto do_store = [&](const LoweredInst &st) {
        const SimAddr va =
            resolveAddr<Tier>(f, R[st.b], st.addr, st.site);
        ScopedTxnLogHint hint(rt_, st.logHint);
        if constexpr (Tier == ExecTier::Model)
            rt_.storeData<std::uint64_t>(va, R[st.a]);
        else
            nativeWrite<std::uint64_t>(f, va, R[st.a]);
    };
    auto do_storep = [&](const LoweredInst &sp) {
        const SimAddr va =
            resolveAddr<Tier>(f, R[sp.b], sp.addr, sp.site);
        ScopedTxnLogHint hint(rt_, sp.logHint);
        execStoreP<Tier>(f, R[sp.a], va, sp);
    };
    auto do_gep = [&](const LoweredInst &g) {
        if constexpr (Tier == ExecTier::Model) {
            R[g.result] =
                rt_.ptrAddBytes(R[g.a], g.imm, g.site);
        } else {
            R[g.result] = nativeAddBytes(R[g.a], g.imm);
        }
    };
    auto do_add = [&](const LoweredInst &ad) {
        if constexpr (Tier == ExecTier::Model)
            rt_.modelTick(1);
        R[ad.result] = R[ad.a] + R[ad.b];
    };

    try {
        burnBlock(f, lf.entryFuel);
        blockEnd = lf.entryFuel;

#if UPR_EXEC_GOTO
    // Direct threading: one indirect jump per instruction, no
    // bounds-checked switch. Label order must match ExecOp.
    static const void *const kOpLabels[] = {
        &&op_Const,         &&op_Alloca,        &&op_Malloc,
        &&op_Pmalloc,       &&op_Free,          &&op_Pfree,
        &&op_Load,          &&op_Store,         &&op_StoreP,
        &&op_Gep,           &&op_PtrToInt,      &&op_IntToPtr,
        &&op_Eq,            &&op_Lt,            &&op_Add,
        &&op_Sub,           &&op_Mul,           &&op_Br,
        &&op_Jmp,           &&op_Phi,           &&op_Call,
        &&op_Ret,           &&op_TxBegin,       &&op_TxCommit,
        &&op_TxAbort,       &&op_FuseGepLoad,   &&op_FuseLoadLoad,
        &&op_FuseLoadStore, &&op_FuseStoreStore,
        &&op_FuseStoreGep,  &&op_FuseLoadStoreP,
        &&op_FuseAddAdd,
    };
#define UPR_OP(name) op_##name
#define UPR_NEXT()                                                    \
    do {                                                              \
        in = &code[pc++];                                             \
        goto *kOpLabels[static_cast<std::size_t>(in->op)];            \
    } while (0)
    UPR_NEXT();
#else
#define UPR_OP(name) case ExecOp::name
#define UPR_NEXT() continue
    for (;;) {
        in = &code[pc++];
        switch (in->op) {
#endif

    UPR_OP(Const) : {
        R[in->result] = static_cast<std::uint64_t>(in->imm);
        UPR_NEXT();
    }
    UPR_OP(Alloca) : {
        f.dropWindow(); // heap growth can remap or move the backing
        const SimAddr p =
            rt_.mallocBytes(static_cast<Bytes>(in->imm));
        allocas.push_back(p);
        R[in->result] = p;
        UPR_NEXT();
    }
    UPR_OP(Malloc) : {
        f.dropWindow();
        R[in->result] =
            rt_.mallocBytes(static_cast<Bytes>(in->imm));
        UPR_NEXT();
    }
    UPR_OP(Pmalloc) : {
        f.dropWindow();
        R[in->result] = rt_.pmallocBits(
            config_.pool, static_cast<Bytes>(in->imm));
        UPR_NEXT();
    }
    UPR_OP(Free) : {
        f.dropWindow();
        const SimAddr va =
            resolveAddr<Tier>(f, R[in->a], in->addr, in->site);
        rt_.freeBytes(va);
        UPR_NEXT();
    }
    UPR_OP(Pfree) : {
        f.dropWindow();
        rt_.pfreeBits(R[in->a]);
        UPR_NEXT();
    }
    UPR_OP(Load) : {
        do_load(*in);
        UPR_NEXT();
    }
    UPR_OP(Store) : {
        do_store(*in);
        UPR_NEXT();
    }
    UPR_OP(StoreP) : {
        do_storep(*in);
        UPR_NEXT();
    }
    UPR_OP(Gep) : {
        do_gep(*in);
        UPR_NEXT();
    }
    UPR_OP(PtrToInt) : {
        R[in->result] =
            cmpNorm<Tier>(f, R[in->a], in->cmp0, in->site);
        UPR_NEXT();
    }
    UPR_OP(IntToPtr) : {
        R[in->result] = R[in->a];
        UPR_NEXT();
    }
    UPR_OP(Eq) : {
        std::uint64_t a = R[in->a];
        std::uint64_t b = R[in->b];
        if (in->cmp0 != CmpMode::Int)
            a = cmpNorm<Tier>(f, a, in->cmp0, in->site);
        if (in->cmp1 != CmpMode::Int)
            b = cmpNorm<Tier>(f, b, in->cmp1, in->site + 2);
        if constexpr (Tier == ExecTier::Model)
            rt_.modelTick(1);
        R[in->result] = a == b;
        UPR_NEXT();
    }
    UPR_OP(Lt) : {
        std::uint64_t a = R[in->a];
        std::uint64_t b = R[in->b];
        if (in->cmp0 != CmpMode::Int)
            a = cmpNorm<Tier>(f, a, in->cmp0, in->site);
        if (in->cmp1 != CmpMode::Int)
            b = cmpNorm<Tier>(f, b, in->cmp1, in->site + 2);
        if constexpr (Tier == ExecTier::Model)
            rt_.modelTick(1);
        R[in->result] = a < b;
        UPR_NEXT();
    }
    UPR_OP(Add) : {
        do_add(*in);
        UPR_NEXT();
    }
    UPR_OP(Sub) : {
        if constexpr (Tier == ExecTier::Model)
            rt_.modelTick(1);
        R[in->result] = R[in->a] - R[in->b];
        UPR_NEXT();
    }
    UPR_OP(Mul) : {
        if constexpr (Tier == ExecTier::Model)
            rt_.modelTick(1);
        R[in->result] = R[in->a] * R[in->b];
        UPR_NEXT();
    }
    UPR_OP(Br) : {
        const bool taken = R[in->a] != 0;
        if constexpr (Tier == ExecTier::Model)
            rt_.modelBranch(in->site, taken);
        if (taken)
            take_edge(in->m0Begin, in->m0End, in->target0, in->len0);
        else
            take_edge(in->m1Begin, in->m1End, in->target1, in->len1);
        UPR_NEXT();
    }
    UPR_OP(Jmp) : {
        take_edge(in->m0Begin, in->m0End, in->target0, in->len0);
        UPR_NEXT();
    }
    UPR_OP(Phi) : {
        upr_panic("phi in lowered code");
    }
    UPR_OP(Call) : {
        std::uint64_t rv;
        // Inner scope: a computed goto does not run destructors, so
        // every nontrivial local must die before UPR_NEXT().
        {
            const LoweredFunction &callee =
                mod_->functions[in->calleeIdx];
            std::vector<std::uint64_t> inner(callee.numRegs, 0);
            const Function &cfn = *callee.fn;
            for (std::uint32_t i = in->argBegin; i < in->argEnd;
                 ++i) {
                inner[cfn.paramValues[i - in->argBegin]] =
                    R[lf.argPool[i]];
            }
            // The callee runs off the members; hand the frame's
            // counts over and take the survivors back. If it
            // throws, reload fuel so this frame's catch refunds
            // only its own tail.
            fuelLeft_ = f.fuel;
            dynChecks_ += f.dynChecks;
            f.dynChecks = 0;
            try {
                rv = exec<Tier>(callee, inner, depth + 1);
            } catch (...) {
                f.fuel = fuelLeft_;
                throw;
            }
            f.fuel = fuelLeft_;
        }
        // The callee may have remapped heap backings (alloca/malloc
        // or its frame teardown); its pools stayed put.
        f.dropWindow();
        if (in->result != kNoValue)
            R[in->result] = rv;
        UPR_NEXT();
    }
    UPR_OP(Ret) : {
        if (in->a != kNoValue)
            ret_value = R[in->a];
        goto fn_done;
    }
    UPR_OP(TxBegin) : {
        // Logging stages/observes writes through the backing, so the
        // raw window must not bypass the space while a txn is open.
        f.dropWindow();
        rt_.beginTxn(poolForSlot(in->imm));
        UPR_NEXT();
    }
    UPR_OP(TxCommit) : {
        // The runtime asserts (process abort) on a commit with no
        // transaction; IR programs get a catchable fault instead.
        if (rt_.version() != Version::Volatile && !rt_.inTxn()) {
            throw Fault(FaultKind::BadUsage,
                        "txcommit with no open transaction");
        }
        f.dropWindow();
        rt_.commitTxn();
        UPR_NEXT();
    }
    UPR_OP(TxAbort) : {
        if (rt_.version() != Version::Volatile && !rt_.inTxn()) {
            throw Fault(FaultKind::BadUsage,
                        "txabort with no open transaction");
        }
        f.dropWindow();
        rt_.abortTxn();
        UPR_NEXT();
    }
    UPR_OP(FuseGepLoad) : {
        do_gep(*in);
        do_load(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseLoadLoad) : {
        do_load(*in);
        do_load(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseLoadStore) : {
        do_load(*in);
        do_store(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseStoreStore) : {
        do_store(*in);
        do_store(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseStoreGep) : {
        do_store(*in);
        do_gep(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseLoadStoreP) : {
        do_load(*in);
        do_storep(code[pc++]);
        UPR_NEXT();
    }
    UPR_OP(FuseAddAdd) : {
        do_add(*in);
        do_add(code[pc++]);
        UPR_NEXT();
    }

#if !UPR_EXEC_GOTO
        }
        upr_panic("unhandled op in lowered code");
    }
#endif
#undef UPR_OP
#undef UPR_NEXT

    } catch (Fault &) {
        // Refund the throwing block's unexecuted tail (pc has moved
        // past every retired instruction, a fused pair's first half
        // included) so instructionCount() counts exactly the
        // instructions that ran, like the Interpreter's.
        fuelLeft_ = f.fuel + (blockEnd - pc);
        dynChecks_ += f.dynChecks;
        throw;
    }

  fn_done:
    fuelLeft_ = f.fuel;
    dynChecks_ += f.dynChecks;
    // Frame teardown: allocas die with the stack frame. The caller's
    // Call handler drops its window, so the remapping is covered.
    for (auto it = allocas.rbegin(); it != allocas.rend(); ++it)
        rt_.freeBytes(*it);
    return ret_value;
}

std::uint64_t
FastExecutor::call(const std::string &name,
                   const std::vector<std::uint64_t> &args)
{
    const auto it = mod_->indexByName.find(name);
    upr_assert_msg(it != mod_->indexByName.end(), "no function @%s",
                   name.c_str());
    const LoweredFunction &lf = mod_->functions[it->second];
    upr_assert_msg(args.size() == lf.fn->paramTypes.size(),
                   "call @%s: bad argument count", name.c_str());

    std::vector<std::uint64_t> regs(lf.numRegs, 0);
    for (std::size_t i = 0; i < args.size(); ++i)
        regs[lf.fn->paramValues[i]] = args[i];
    // Per-instruction events cost about as much to interpret as to
    // push, so the model stays inline for the call.
    Runtime::InlineModelScope inlineModel(rt_);

    // Tally dispatches (faulting runs included) into the exec group.
    const std::uint64_t start = instructionCount();
    struct Tally
    {
        const FastExecutor &e;
        std::uint64_t start;
        ~Tally()
        {
            Counter &c = e.config_.tier == ExecTier::Model
                ? execCounters().modelDispatches
                : execCounters().nativeDispatches;
            c.add(e.instructionCount() - start);
        }
    } tally{*this, start};

    return config_.tier == ExecTier::Model
        ? exec<ExecTier::Model>(lf, regs, 0)
        : exec<ExecTier::Native>(lf, regs, 0);
}

namespace
{

struct TierOutcome
{
    std::uint64_t result;
    std::uint64_t checks;
    std::uint64_t insts;
};

TierOutcome
runPlanTier(const Module &mod, const CheckPlan &plan,
            const std::string &entry,
            const std::vector<std::uint64_t> &args, ExecTier tier)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.execTier = tier;
    Runtime rt(cfg);
    FastExecutor::Config xcfg;
    xcfg.pool = rt.createPool("elide", 32 << 20);
    xcfg.tier = tier;
    const LoweredModule lm = lowerModule(mod, plan, rt.version());
    FastExecutor ex(rt, lm, xcfg);
    const std::uint64_t r = ex.call(entry, args);
    return TierOutcome{r, ex.dynamicCheckCount(),
                       ex.instructionCount()};
}

} // namespace

ElisionValidation
validateElisionTier(const Module &mod, const CheckPlan &before,
                    const CheckPlan &after, const std::string &entry,
                    const std::vector<std::uint64_t> &args,
                    ExecTier tier)
{
    const TierOutcome b = runPlanTier(mod, before, entry, args, tier);
    const TierOutcome a = runPlanTier(mod, after, entry, args, tier);
    ElisionValidation v;
    v.resultBefore = b.result;
    v.resultAfter = a.result;
    v.checksBefore = b.checks;
    v.checksAfter = a.checks;
    v.bitIdentical = b.result == a.result && b.insts == a.insts;
    return v;
}

} // namespace upr
