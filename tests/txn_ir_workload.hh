/**
 * @file
 * The elision-enabled transactional IR workload shared by the crash
 * sweep and the hostile-media fault sweep (ISSUE 9 acceptance): every
 * call of @round runs two transactions over one freshly pmalloc'd
 * cell, exercising every LogMode the persistency analysis can prove —
 * fresh-alloc elision in the first transaction, then a must-log
 * pre-image followed by a dominated-write elision in the second. The
 * sweeps crash (and corrupt) it at every persistence event and assert
 * that proof-driven logging elision never costs recoverability.
 */

#ifndef UPR_TESTS_TXN_IR_WORKLOAD_HH
#define UPR_TESTS_TXN_IR_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/analysis/abstract_interp.hh"
#include "compiler/analysis/persistency.hh"
#include "compiler/check_insertion.hh"
#include "compiler/exec_fast.hh"
#include "compiler/exec_lower.hh"
#include "compiler/interpreter.hh"
#include "compiler/ir_parser.hh"
#include "compiler/type_inference.hh"
#include "core/runtime.hh"
#include "crash/crash_sweep.hh"
#include "nvm/pool_allocator.hh"

namespace upr::txnir
{

/**
 * Two transactions per call. The first pmallocs the round's cell and
 * initializes both words — every store is provably fresh, so the
 * analysis elides their pre-image logging. The second transaction
 * reopens and overwrites word 0 twice: the first store must log (the
 * cell outlived its allocating transaction), the repeat is dominated
 * by it and elides. A crash anywhere must recover to word0 in
 * {v, 3v} and word1 == v once the cell is durable — the exact
 * soundness claim behind both elision proofs.
 */
inline const char *kRoundSource = R"(
func @round(%v: i64) -> ptr {
entry:
  txbegin 0
  %cell = pmalloc 64
  store %v, %cell
  %tail = gep %cell, 8
  store %v, %tail
  txcommit
  txbegin 0
  %v2 = add %v, %v
  store %v2, %cell
  %v3 = add %v2, %v
  store %v3, %cell
  txcommit
  ret %cell
}
)";

/** Calls per workload run (one durable cell each). */
constexpr std::size_t kRounds = 5;

/** The value seed of round @p r; the cell commits as {3v, v}. */
inline std::uint64_t
roundValue(std::size_t r)
{
    return 500 + 100 * static_cast<std::uint64_t>(r);
}

/** @round compiled to its check plan, with or without elision proofs. */
struct Program
{
    ir::Module mod;
    CheckPlan plan;
    PersistencyResult persistency;
};

inline Program
compile(bool elide)
{
    Program p;
    p.mod = ir::parseModule(kRoundSource);
    const InferenceResult inf = inferPointerKinds(p.mod, true);
    FlowAnalysis flow(p.mod, inf);
    p.plan = insertChecks(p.mod, &inf);
    if (elide)
        p.persistency = analyzePersistency(p.mod, flow, &p.plan);
    return p;
}

/** The sweeps' fixed runtime config: deterministic, Hw version. */
inline Runtime::Config
config()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234;
    return cfg;
}

/** Which execution engine drives the rounds. */
enum class Tier
{
    Interp,
    Model,
    Native,
};

/**
 * Run kRounds calls of @round on a fresh runtime whose config pool
 * uses @p engine. With @p inj, the crash window opens before round 0
 * (pool formatting stays outside it). @p committedCalls ticks after
 * each completed call — a crash leaves it at the in-flight round's
 * index. @p finalImage, when non-null, receives the pool bytes after
 * the last round.
 * @return the cell pointer bits @round returned, one per round
 */
inline std::vector<std::uint64_t>
run(const Program &p, EngineKind engine, Tier tier,
    CrashInjector *inj = nullptr, std::size_t *committedCalls = nullptr,
    std::vector<std::uint8_t> *finalImage = nullptr)
{
    Runtime::Config cfg = config();
    cfg.execTier =
        tier == Tier::Native ? ExecTier::Native : ExecTier::Model;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("txnir", 1 << 20, engine);
    if (committedCalls)
        *committedCalls = 0;
    if (inj)
        inj->attach(rt.pools().pool(pool).backing());

    std::vector<std::uint64_t> cells;
    const auto record = [&](std::uint64_t bits) {
        cells.push_back(bits);
        if (committedCalls)
            ++*committedCalls;
    };
    if (tier == Tier::Interp) {
        Interpreter::Config icfg;
        icfg.pool = pool;
        Interpreter in(rt, p.mod, p.plan, icfg);
        for (std::size_t r = 0; r < kRounds; ++r)
            record(in.call("round", {roundValue(r)}));
    } else {
        const LoweredModule lm =
            lowerModule(p.mod, p.plan, rt.version());
        FastExecutor::Config xcfg;
        xcfg.pool = pool;
        xcfg.tier =
            tier == Tier::Native ? ExecTier::Native : ExecTier::Model;
        FastExecutor ex(rt, lm, xcfg);
        for (std::size_t r = 0; r < kRounds; ++r)
            record(ex.call("round", {roundValue(r)}));
    }
    if (finalImage)
        *finalImage = rt.pools().pool(pool).backing().raw().toVector();
    return cells;
}

/** Pool offsets of the returned cell pointers. */
inline std::vector<PoolOffset>
cellOffsets(const std::vector<std::uint64_t> &cells)
{
    std::vector<PoolOffset> off;
    for (std::uint64_t bits : cells)
        off.push_back(PtrRepr::offsetOf(bits));
    return off;
}

/**
 * Check a recovered (or recovered-and-repaired) image against the
 * round contract. @p cellOff comes from a crash-free reference run —
 * the workload is deterministic, so a swept run allocates the same
 * cells. @p committedCalls is how many calls had returned when
 * the crash hit.
 *
 * The contract: the arena validates; exactly the committed rounds'
 * cells are live, plus at most the in-flight one (its first
 * transaction may have committed); every fully-committed cell reads
 * {3v, v}; the in-flight cell, if durable, reads word1 == v and
 * word0 in {v, 3v} — v is the pre-image the *retained* log entry
 * restores when the dominated elided repeat rolled back, 3v means the
 * second commit just made it. Any other word0 is elision-induced
 * corruption.
 *
 * @return "" if the image is a state a pure crash could leave, else
 *         a description of the violation
 */
inline std::string
checkImage(const std::vector<std::uint8_t> &image,
           const std::vector<PoolOffset> &cellOff,
           std::size_t committedCalls)
{
    try {
        Backing b;
        b.assign(image);
        Runtime rt(config());
        RuntimeScope scope(rt);
        const PoolId id = rt.pools().adoptImage(std::move(b), "v");

        const ArenaReport arena =
            rt.pools().allocator(id).inspectArena();
        if (!arena.tagsValid || !arena.freeListValid ||
            !arena.usedBytesMatch)
            return "arena invalid: " + arena.what;
        const std::size_t live = rt.pools().allocator(id).liveBlocks();
        if (live != committedCalls && live != committedCalls + 1) {
            return "live blocks " + std::to_string(live) +
                   " with " + std::to_string(committedCalls) +
                   " committed calls";
        }

        const Pool &pool = rt.pools().pool(id);
        const auto read64 = [&pool](Bytes off) {
            std::uint64_t v = 0;
            pool.backing().read(off, &v, sizeof(v));
            return v;
        };
        for (std::size_t r = 0; r < live && r < cellOff.size(); ++r) {
            const std::uint64_t v = roundValue(r);
            const std::uint64_t head = read64(cellOff[r]);
            const std::uint64_t tail = read64(cellOff[r] + 8);
            if (tail != v) {
                return "round " + std::to_string(r) + " word1 " +
                       std::to_string(tail) + " != " +
                       std::to_string(v);
            }
            const bool ok = r < committedCalls
                                ? head == 3 * v
                                : head == v || head == 3 * v;
            if (!ok) {
                return "round " + std::to_string(r) + " word0 " +
                       std::to_string(head) + " not a commit-atomic "
                       "state of v=" + std::to_string(v);
            }
        }
        return "";
    } catch (const std::exception &e) {
        return std::string("image validation threw: ") + e.what();
    }
}

} // namespace upr::txnir

#endif // UPR_TESTS_TXN_IR_WORKLOAD_HH
