#include "compiler/interpreter.hh"

#include <functional>

namespace upr
{

using namespace ir;

namespace
{

/** Runtime hint for a store's proven LogMode. */
TxnLogHint
hintOf(LogMode m)
{
    switch (m) {
      case LogMode::MustLog:             return TxnLogHint::Log;
      case LogMode::ElideFreshAlloc:     return TxnLogHint::ElideFresh;
      case LogMode::ElideDominatedWrite:
        return TxnLogHint::ElideDominated;
    }
    return TxnLogHint::Log;
}

} // namespace

Interpreter::Interpreter(Runtime &rt, const Module &mod,
                         const CheckPlan &plan, Config config)
    : rt_(rt), mod_(mod), plan_(plan), config_(config),
      fuelLeft_(config.fuel)
{
}

void
Interpreter::burnFuel()
{
    if (fuelLeft_ == 0) {
        throw Fault(FaultKind::BadUsage,
                    "interpreter fuel exhausted (infinite loop?)");
    }
    --fuelLeft_;
    ++instCount_;
}

SimAddr
Interpreter::resolveAddr(std::uint64_t bits, bool dynamic,
                         bool static_convert, bool refined,
                         std::uint64_t site)
{
    if (rt_.version() == Version::Volatile) {
        // Native compilation: no UPR pass ran; every pointer is a
        // plain virtual address.
        if (bits == 0)
            throw Fault(FaultKind::BadUsage, "null dereference in IR");
        return PtrRepr::toVa(bits);
    }
    if (dynamic) {
        ++dynChecks_;
        return rt_.resolveForAccess(bits, site);
    }
    if (refined) {
        // Checked earlier in this block (tail-duplication model):
        // the form is known on this path, only the conversion runs.
        if (bits == 0)
            throw Fault(FaultKind::BadUsage, "null dereference in IR");
        if (PtrRepr::isRelative(bits))
            return rt_.ra2va(bits, site);
        return PtrRepr::toVa(bits);
    }
    if (static_convert) {
        // The compiler proved the value is relative: it plants the
        // conversion with no check.
        return rt_.ra2va(bits, site);
    }
    // Statically known virtual address.
    if (bits == 0)
        throw Fault(FaultKind::BadUsage, "null dereference in IR");
    return PtrRepr::toVa(bits);
}

std::uint64_t
Interpreter::cmpOperand(std::uint64_t bits, bool dynamic,
                        std::uint64_t site)
{
    if (bits == 0)
        return 0;
    if (rt_.version() == Version::Volatile)
        return bits;
    if (dynamic) {
        ++dynChecks_;
        return rt_.resolveForAccess(bits, site);
    }
    if (PtrRepr::isRelative(bits))
        return rt_.ra2va(bits, site);
    return bits;
}

void
Interpreter::execStoreP(std::uint64_t value_bits, SimAddr dest_va,
                        const InstPlan &plan, std::uint64_t site)
{
    if (rt_.version() == Version::Volatile) {
        rt_.storeData<PtrBits>(dest_va, value_bits);
        return;
    }
    if (plan.destDynamic || plan.valueDynamic) {
        // Dynamic pointerAssignment through the runtime (counts its
        // own checks there).
        dynChecks_ += (plan.destDynamic ? 1 : 0) +
                      (plan.valueDynamic ? 1 : 0);
        rt_.storePtr(dest_va, value_bits, site);
        return;
    }

    // Fully static: the compiler planted the exact conversion.
    PtrBits out = value_bits;
    const bool dest_nvm = Layout::isNvm(dest_va);
    if (value_bits != 0 && rt_.version() != Version::Volatile) {
        const PtrForm form = PtrRepr::determineY(value_bits);
        if (dest_nvm && form == PtrForm::VirtualNvm) {
            out = rt_.va2ra(PtrRepr::toVa(value_bits), site);
        } else if (!dest_nvm && form == PtrForm::Relative) {
            out = PtrRepr::fromVa(rt_.ra2va(value_bits, site));
        } else if (dest_nvm && form == PtrForm::VirtualDram &&
                   plan.destElided && rt_.config().strictStoreP) {
            // The destination check was elided, not proved away:
            // keep the dynamic path's strict storeP fault.
            throw Fault(FaultKind::StorePFault,
                        "DRAM pointer stored into NVM");
        }
    }
    rt_.storeData<PtrBits>(dest_va, out);
}

PoolId
Interpreter::poolForSlot(std::int64_t slot)
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

std::uint64_t
Interpreter::call(const std::string &name,
                  const std::vector<std::uint64_t> &args)
{
    const Function &fn = mod_.get(name);
    upr_assert_msg(args.size() == fn.paramTypes.size(),
                   "call @%s: bad argument count", name.c_str());
    Frame frame;
    frame.fn = &fn;
    frame.regs.assign(fn.numValues(), 0);
    for (std::size_t i = 0; i < args.size(); ++i)
        frame.regs[fn.paramValues[i]] = args[i];
    // The model stays inline for the call (see FastExecutor::call).
    Runtime::InlineModelScope inlineModel(rt_);
    return exec(frame, 0);
}

std::uint64_t
Interpreter::exec(Frame &frame, std::uint32_t depth)
{
    if (depth >= config_.maxDepth) {
        throw Fault(FaultKind::BadUsage, "IR call depth exceeded");
    }
    const Function &fn = *frame.fn;
    const FunctionPlan &fplan = plan_.perFunction.at(fn.name);

    BlockId cur = 0;
    BlockId prev = kNoBlock;
    std::uint64_t ret_value = 0;

    for (;;) {
        const Block &block = fn.blocks[cur];

        // Phis evaluate first, atomically, from the predecessor.
        std::size_t idx = 0;
        std::vector<std::pair<ValueId, std::uint64_t>> phi_writes;
        while (idx < block.insts.size() &&
               block.insts[idx].op == Op::Phi) {
            const Inst &in = block.insts[idx];
            burnFuel();
            bool matched = false;
            for (std::size_t i = 0; i < in.phiBlocks.size(); ++i) {
                if (in.phiBlocks[i] == prev) {
                    phi_writes.emplace_back(
                        in.result, frame.regs[in.operands[i]]);
                    matched = true;
                    break;
                }
            }
            upr_assert_msg(matched, "@%s: phi has no edge from "
                           "predecessor", fn.name.c_str());
            ++idx;
        }
        for (auto [r, v] : phi_writes)
            frame.regs[r] = v;

        for (; idx < block.insts.size(); ++idx) {
            const Inst &in = block.insts[idx];
            const InstPlan &ip = fplan.at(cur, idx);
            burnFuel();
            const std::uint64_t site =
                (static_cast<std::uint64_t>(cur) << 20) ^ (idx << 4) ^
                std::hash<std::string>{}(fn.name);

            switch (in.op) {
              case Op::Const:
                frame.regs[in.result] =
                    static_cast<std::uint64_t>(in.imm);
                break;
              case Op::Alloca: {
                const SimAddr p = rt_.mallocBytes(
                    static_cast<Bytes>(in.imm));
                frame.allocas.push_back(p);
                frame.regs[in.result] = p;
                break;
              }
              case Op::Malloc:
                frame.regs[in.result] = rt_.mallocBytes(
                    static_cast<Bytes>(in.imm));
                break;
              case Op::Pmalloc:
                frame.regs[in.result] = rt_.pmallocBits(
                    config_.pool, static_cast<Bytes>(in.imm));
                break;
              case Op::Free: {
                const SimAddr va = resolveAddr(
                    frame.regs[in.operands[0]], ip.addrDynamic,
                    ip.addrStaticConvert, ip.addrRefined, site);
                rt_.freeBytes(va);
                break;
              }
              case Op::Pfree:
                rt_.pfreeBits(frame.regs[in.operands[0]]);
                break;
              case Op::Load: {
                const SimAddr va = resolveAddr(
                    frame.regs[in.operands[0]], ip.addrDynamic,
                    ip.addrStaticConvert, ip.addrRefined, site);
                if (in.type == Type::Ptr) {
                    frame.regs[in.result] = rt_.loadPtr(va);
                } else {
                    frame.regs[in.result] =
                        rt_.loadData<std::uint64_t>(va);
                }
                break;
              }
              case Op::Store: {
                const SimAddr va = resolveAddr(
                    frame.regs[in.operands[1]], ip.addrDynamic,
                    ip.addrStaticConvert, ip.addrRefined, site);
                ScopedTxnLogHint hint(rt_, hintOf(ip.logMode));
                rt_.storeData<std::uint64_t>(
                    va, frame.regs[in.operands[0]]);
                break;
              }
              case Op::StoreP: {
                const SimAddr va = resolveAddr(
                    frame.regs[in.operands[1]], ip.addrDynamic,
                    ip.addrStaticConvert, ip.addrRefined, site);
                ScopedTxnLogHint hint(rt_, hintOf(ip.logMode));
                execStoreP(frame.regs[in.operands[0]], va, ip,
                           site + 1);
                break;
              }
              case Op::Gep:
                frame.regs[in.result] = rt_.ptrAddBytes(
                    frame.regs[in.operands[0]], in.imm, site);
                break;
              case Op::PtrToInt:
                frame.regs[in.result] = cmpOperand(
                    frame.regs[in.operands[0]], ip.cmp0Dynamic,
                    site);
                break;
              case Op::IntToPtr:
                frame.regs[in.result] = frame.regs[in.operands[0]];
                break;
              case Op::Eq:
              case Op::Lt: {
                std::uint64_t a = frame.regs[in.operands[0]];
                std::uint64_t b = frame.regs[in.operands[1]];
                // Pointer sides normalize to virtual addresses; the
                // plan says which sides still need dynamic checks.
                if (fn.valueTypes[in.operands[0]] == Type::Ptr)
                    a = cmpOperand(a, ip.cmp0Dynamic, site);
                if (fn.valueTypes[in.operands[1]] == Type::Ptr)
                    b = cmpOperand(b, ip.cmp1Dynamic, site + 2);
                rt_.modelTick(1);
                frame.regs[in.result] =
                    in.op == Op::Eq ? (a == b) : (a < b);
                break;
              }
              case Op::Add:
                rt_.modelTick(1);
                frame.regs[in.result] = frame.regs[in.operands[0]] +
                                        frame.regs[in.operands[1]];
                break;
              case Op::Sub:
                rt_.modelTick(1);
                frame.regs[in.result] = frame.regs[in.operands[0]] -
                                        frame.regs[in.operands[1]];
                break;
              case Op::Mul:
                rt_.modelTick(1);
                frame.regs[in.result] = frame.regs[in.operands[0]] *
                                        frame.regs[in.operands[1]];
                break;
              case Op::Br: {
                const bool taken = frame.regs[in.operands[0]] != 0;
                rt_.modelBranch(site, taken);
                prev = cur;
                cur = taken ? in.target0 : in.target1;
                goto next_block;
              }
              case Op::Jmp:
                prev = cur;
                cur = in.target0;
                goto next_block;
              case Op::Phi:
                upr_panic("phi after non-phi instruction");
              case Op::Call: {
                const Function &callee = mod_.get(in.callee);
                Frame inner;
                inner.fn = &callee;
                inner.regs.assign(callee.numValues(), 0);
                for (std::size_t i = 0; i < in.operands.size(); ++i) {
                    inner.regs[callee.paramValues[i]] =
                        frame.regs[in.operands[i]];
                }
                const std::uint64_t rv = exec(inner, depth + 1);
                if (in.result != kNoValue)
                    frame.regs[in.result] = rv;
                break;
              }
              case Op::TxBegin:
                rt_.beginTxn(poolForSlot(in.imm));
                break;
              case Op::TxCommit:
                // The runtime asserts (process abort) on a commit
                // with no transaction; IR programs get a catchable
                // fault instead.
                if (rt_.version() != Version::Volatile &&
                    !rt_.inTxn()) {
                    throw Fault(FaultKind::BadUsage,
                                "txcommit with no open transaction");
                }
                rt_.commitTxn();
                break;
              case Op::TxAbort:
                if (rt_.version() != Version::Volatile &&
                    !rt_.inTxn()) {
                    throw Fault(FaultKind::BadUsage,
                                "txabort with no open transaction");
                }
                rt_.abortTxn();
                break;
              case Op::Ret:
                if (!in.operands.empty())
                    ret_value = frame.regs[in.operands[0]];
                goto done;
            }
        }
        upr_panic("@%s: block '%s' fell through", fn.name.c_str(),
                  block.name.c_str());
      next_block:;
    }

  done:
    // Frame teardown: allocas die with the stack frame.
    for (auto it = frame.allocas.rbegin(); it != frame.allocas.rend();
         ++it) {
        rt_.freeBytes(*it);
    }
    return ret_value;
}

} // namespace upr
