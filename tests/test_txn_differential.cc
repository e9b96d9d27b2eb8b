/** @file Differential equivalence of the two transaction engines
 * (ISSUE 7 acceptance): the same randomized transactional workload is
 * run against an undo pool and a redo pool, and the engines must be
 * observationally identical — byte-identical user data after a full
 * run, and at every crash point each engine recovers to a state from
 * the same committed-prefix family (all-or-nothing per transaction,
 * against one shared reference model). Aborts, overwrites, and empty
 * transactions are part of the workload on both sides. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "crash/crash_sweep.hh"
#include "kvstore/kv_store.hh"
#include "nvm/engine.hh"
#include "nvm/txn.hh"

using namespace upr;

namespace
{

using Tree = RbTree<std::uint64_t, std::uint64_t>;

/** SplitMix64: the repo's standard deterministic test RNG. */
std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9E37'79B9'7F4A'7C15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xBF58'476D'1CE4'E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D0'49BB'1331'11EBULL;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kWorkloadSeed = 0xD1FF'5EEDULL;
constexpr std::uint64_t kSetupKeys = 12;
constexpr std::size_t kTxns = 24;

/** One transaction of the randomized workload. */
struct TxnPlan
{
    bool abort = false;  //!< discarded instead of committed
    bool empty = false;  //!< begin/commit with no operations
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sets;
    std::vector<std::uint64_t> erases;
};

/**
 * The workload is derived from the seed once; both engines (and the
 * reference model) consume the exact same plan.
 */
const std::vector<TxnPlan> &
plans()
{
    static const std::vector<TxnPlan> kPlans = [] {
        std::vector<TxnPlan> out;
        std::uint64_t rng = kWorkloadSeed;
        for (std::size_t t = 0; t < kTxns; ++t) {
            TxnPlan p;
            const std::uint64_t shape = mix(rng) % 8;
            p.abort = shape == 0;
            p.empty = shape == 1;
            if (!p.empty) {
                const std::size_t n = 1 + mix(rng) % 3;
                for (std::size_t i = 0; i < n; ++i) {
                    // Small key space on purpose: overwrites and
                    // erase-then-reinsert collisions are the point.
                    const std::uint64_t key = mix(rng) % 20;
                    if (mix(rng) % 4 == 0)
                        p.erases.push_back(key);
                    else
                        p.sets.emplace_back(key, mix(rng));
                }
            }
            out.push_back(std::move(p));
        }
        return out;
    }();
    return kPlans;
}

/**
 * Reference state after the setup phase plus the first @p n
 * *committed* transactions. @p n counts successful commits the same
 * way runWorkload() does: plans the workload aborts never advance it
 * (and never affect durable state).
 */
std::map<std::uint64_t, std::uint64_t>
referenceState(std::size_t n)
{
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        m[i] = i * 7;
    std::size_t done = 0;
    for (const TxnPlan &p : plans()) {
        if (done == n)
            break;
        if (p.abort)
            continue;
        for (const auto &[k, v] : p.sets)
            m[k] = v;
        for (std::uint64_t k : p.erases)
            m.erase(k);
        ++done;
    }
    return m;
}

Runtime::Config
config()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234;
    return cfg;
}

/**
 * Run the full workload on a pool of @p engine; returns the final
 * image bytes. @p injector (optional) opens the crash window after
 * setup. @p committed counts *successful* transactions — txns the
 * plan aborts do not advance it, matching referenceState().
 */
std::vector<std::uint8_t>
runWorkload(EngineKind engine, CrashInjector *injector,
            std::size_t &committed)
{
    committed = 0;
    Runtime rt(config());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("diff", 1 << 20, engine);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    KvStore<Tree> store(env);
    rt.pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(store.index().header().bits())));
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        store.set(i, i * 7);

    if (injector)
        injector->attach(rt.pools().pool(pool).backing());

    for (const TxnPlan &p : plans()) {
        rt.beginTxn(pool);
        for (const auto &[k, v] : p.sets)
            store.set(k, v);
        for (std::uint64_t k : p.erases)
            store.index().erase(k); // returns false when absent
        if (p.abort) {
            rt.abortTxn();
        } else {
            rt.commitTxn();
            ++committed;
        }
    }
    return rt.pools().pool(pool).backing().raw().toVector();
}

/** Read the recovered tree of @p image into a map, validating it. */
std::map<std::uint64_t, std::uint64_t>
treeContents(std::vector<std::uint8_t> image)
{
    Backing b;
    b.assign(std::move(image));
    Runtime rt(config());
    RuntimeScope scope(rt);
    const PoolId id = rt.pools().adoptImage(std::move(b), "adopted");
    rt.pools().allocator(id).checkConsistency();
    const PoolOffset root = rt.pools().pool(id).rootOff();
    EXPECT_NE(root, 0u);
    MemEnv env = MemEnv::persistentEnv(rt, id);
    Tree tree(env, Ptr<Tree::Header>::fromBits(
                       PtrRepr::makeRelative(id, root)));
    tree.validate();
    std::map<std::uint64_t, std::uint64_t> out;
    tree.forEach([&](std::uint64_t k, std::uint64_t v) {
        out.emplace(k, v);
    });
    return out;
}

class QuietWarnings
{
  public:
    QuietWarnings()
    {
        setLogSink(+[](LogLevel level, const std::string &msg) {
            if (level == LogLevel::Panic || level == LogLevel::Fatal)
                std::fprintf(stderr, "%s\n", msg.c_str());
        });
    }
    ~QuietWarnings() { setLogSink(nullptr); }
};

} // namespace

/**
 * No-crash differential: after the full workload, the *user data* of
 * the undo pool and the redo pool is byte-identical — every arena
 * byte, not just the logical tree contents. Only the log region (and
 * the engine tag in the header) may differ between the two images.
 */
TEST(TxnDifferential, FullRunUserDataIsByteIdentical)
{
    std::size_t committed_u = 0, committed_r = 0;
    const auto undo =
        runWorkload(EngineKind::Undo, nullptr, committed_u);
    const auto redo =
        runWorkload(EngineKind::Redo, nullptr, committed_r);
    ASSERT_EQ(committed_u, committed_r);
    ASSERT_EQ(undo.size(), redo.size());

    PoolHeader hu, hr;
    std::memcpy(&hu, undo.data(), sizeof(hu));
    std::memcpy(&hr, redo.data(), sizeof(hr));
    ASSERT_EQ(hu.arenaStart, hr.arenaStart);
    ASSERT_EQ(hu.rootOff, hr.rootOff);

    std::size_t mismatches = 0;
    for (std::size_t i = static_cast<std::size_t>(hu.arenaStart);
         i < undo.size(); ++i)
        mismatches += undo[i] != redo[i];
    EXPECT_EQ(mismatches, 0u)
        << mismatches << " arena bytes differ between the engines";

    // And both match the reference model exactly.
    const auto expect = referenceState(committed_u);
    EXPECT_EQ(treeContents(undo), expect);
    EXPECT_EQ(treeContents(redo), expect);
}

namespace
{

/**
 * Crash-point differential half: sweep every crash point of one
 * engine and require recovery to land exactly on a committed-prefix
 * state of the shared reference model. Running this for both engines
 * proves crash-recovery equivalence: neither engine can reach a state
 * the other (or the model) cannot.
 */
void
runCrashDifferential(EngineKind engine, CrashMode mode)
{
    QuietWarnings quiet;
    std::size_t committed = 0;
    CrashSweepConfig cfg;
    cfg.mode = mode;
    cfg.seed = 7;

    const CrashSweepResult result = crashSweep(
        [&committed, engine](CrashInjector &inj) {
            // committed is written incrementally: the sweep checks
            // every crash point mid-run, so it must be current at
            // every commit, not just at workload end.
            (void)runWorkload(engine, &inj, committed);
        },
        [&committed, engine](Pool &pool, std::uint64_t n, bool) {
            const auto actual =
                treeContents(pool.backing().raw().toVector());
            const auto before = referenceState(committed);
            const auto after = referenceState(committed + 1);
            EXPECT_TRUE(actual == before || actual == after)
                << engineKindName(engine) << " crash point " << n
                << ": recovered state matches no committed prefix ("
                << committed << " committed, actual size "
                << actual.size() << ")";
        },
        cfg);

    EXPECT_GT(result.crashPoints, 10u);
    EXPECT_GT(result.rollbacks, 0u);
    EXPECT_GT(result.cleanImages, 0u);
}

} // namespace

TEST(TxnDifferential, UndoRecoversToCommittedPrefixAtEveryCrashPoint)
{
    runCrashDifferential(EngineKind::Undo, CrashMode::DiscardUnfenced);
}

TEST(TxnDifferential, RedoRecoversToCommittedPrefixAtEveryCrashPoint)
{
    runCrashDifferential(EngineKind::Redo, CrashMode::DiscardUnfenced);
}

TEST(TxnDifferential, UndoRecoversUnderRetainRandom)
{
    runCrashDifferential(EngineKind::Undo, CrashMode::RetainRandom);
}

TEST(TxnDifferential, RedoRecoversUnderRetainRandom)
{
    runCrashDifferential(EngineKind::Redo, CrashMode::RetainRandom);
}

/**
 * Cross-engine guard: driving a pool with the wrong engine's API is a
 * typed EngineMismatch fault, not a misparse of the log region.
 */
TEST(TxnDifferential, WrongEngineIsATypedFault)
{
    Pool undo_pool(1, "u", 1 << 20, EngineKind::Undo);
    Pool redo_pool(2, "r", 1 << 20, EngineKind::Redo);

    EXPECT_THROW((void)RedoBatch(undo_pool), Fault);
    EXPECT_THROW((void)Txn(redo_pool), Fault);
    try {
        Txn txn(redo_pool);
        FAIL() << "undo Txn accepted a redo pool";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::EngineMismatch);
    }
    try {
        RedoBatch batch(undo_pool);
        FAIL() << "RedoBatch accepted an undo pool";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::EngineMismatch);
    }
    // Recovery entry points are guarded the same way.
    EXPECT_THROW((void)Txn::recover(redo_pool), Fault);
    EXPECT_THROW((void)RedoLog::recover(undo_pool), Fault);
    // The dispatching facade, by contrast, accepts both.
    EXPECT_FALSE(TxnEngine::recover(undo_pool));
    EXPECT_FALSE(TxnEngine::recover(redo_pool));
}
