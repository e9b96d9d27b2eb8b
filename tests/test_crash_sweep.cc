/** @file The exhaustive crash-schedule sweep (ISSUE 1 acceptance):
 * a persistent RbTree-backed kv-store workload is crashed at every
 * persistence-event index, each durable image is recovered through
 * Txn::recover, and structural invariants plus committed-data
 * durability are asserted on all of them — under both the strict
 * discard schedule and the random-retention (torn/reordered write)
 * schedule. Plus: checksum detection of corrupted undo entries. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "crash/crash_sweep.hh"
#include "kvstore/kv_store.hh"
#include "nvm/txn.hh"
#include "obs/metrics.hh"
#include "txn_ir_workload.hh"

using namespace upr;

namespace
{

using Tree = RbTree<std::uint64_t, std::uint64_t>;

/** One workload operation, applied inside its own transaction. */
struct Op
{
    enum class Kind { Set, Erase };
    Kind kind;
    std::uint64_t key;
    std::uint64_t value;
};

constexpr std::uint64_t kSetupKeys = 16;

/** The transactional phase: inserts, updates, and deletes. */
const std::vector<Op> &
ops()
{
    static const std::vector<Op> kOps = {
        {Op::Kind::Set, 100, 1000}, // fresh insert
        {Op::Kind::Set, 3, 333},    // overwrite an existing key
        {Op::Kind::Erase, 7, 0},    // delete (tree rebalances)
        {Op::Kind::Set, 101, 1010},
        {Op::Kind::Erase, 0, 0},
        {Op::Kind::Set, 3, 444},    // second overwrite of the same key
    };
    return kOps;
}

/** Reference state after the setup phase plus the first @p n ops. */
std::map<std::uint64_t, std::uint64_t>
referenceState(std::size_t n)
{
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        m[i] = i * 10;
    for (std::size_t i = 0; i < n && i < ops().size(); ++i) {
        const Op &op = ops()[i];
        if (op.kind == Op::Kind::Set) {
            m[op.key] = op.value;
        } else {
            m.erase(op.key);
        }
    }
    return m;
}

Runtime::Config
sweepConfig()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234; // fixed: the sweep requires a deterministic run
    return cfg;
}

/**
 * Build the store, open the crash window, and run every op in its own
 * transaction (under @p engine; @p group > 1 batches redo commits).
 * @p committed reports how many ops had committed when the crash hit
 * — with group commit, commits beyond the last flushed batch are
 * volatile by design.
 */
void
runWorkload(CrashInjector &injector, std::size_t &committed,
            EngineKind engine, unsigned group)
{
    committed = 0;
    Runtime rt(sweepConfig());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("sweep", 1 << 20, engine);
    rt.setGroupCommitSize(group);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    KvStore<Tree> store(env);
    rt.pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(store.index().header().bits())));

    // Setup phase: outside the crash window; becomes the durable
    // baseline when the injector enables the persistence domain.
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        store.set(i, i * 10);

    injector.attach(rt.pools().pool(pool).backing());

    for (const Op &op : ops()) {
        rt.beginTxn(pool);
        if (op.kind == Op::Kind::Set) {
            store.set(op.key, op.value);
        } else {
            store.index().erase(op.key);
        }
        rt.commitTxn();
        ++committed;
    }
}

/**
 * Reopen @p recovered in a fresh runtime and assert every invariant:
 * the tree is structurally valid, the allocator arena is consistent,
 * and the contents are exactly the committed prefix — with the
 * in-flight op either fully applied or fully absent, never torn.
 */
void
validateImage(Pool &recovered, std::size_t committed,
              std::uint64_t crashPoint, unsigned group)
{
    Backing image;
    image.assign(recovered.backing().raw());

    Runtime rt(sweepConfig());
    RuntimeScope scope(rt);
    const PoolId id = rt.pools().adoptImage(std::move(image), "crashed");

    rt.pools().allocator(id).checkConsistency();

    const PoolOffset root = rt.pools().pool(id).rootOff();
    ASSERT_NE(root, 0u) << "crash point " << crashPoint;
    MemEnv env = MemEnv::persistentEnv(rt, id);
    Tree tree(env, Ptr<Tree::Header>::fromBits(
                       PtrRepr::makeRelative(id, root)));
    tree.validate();

    std::map<std::uint64_t, std::uint64_t> actual;
    tree.forEach([&](std::uint64_t k, std::uint64_t v) {
        actual.emplace(k, v);
    });

    if (group <= 1) {
        const auto before = referenceState(committed);
        const auto after = referenceState(committed + 1);
        EXPECT_TRUE(actual == before || actual == after)
            << "crash point " << crashPoint
            << ": state matches neither " << committed << " nor "
            << (committed + 1) << " committed ops (actual size "
            << actual.size() << ")";
        return;
    }
    // Group commit coarsens atomicity to the batch boundary: the
    // durable state is the last flushed batch, or — if the crash hit
    // mid-flush — the one being flushed, and never anything between.
    const std::size_t floor_batch = committed - committed % group;
    const std::size_t next_batch =
        std::min(floor_batch + group, ops().size());
    const auto before = referenceState(floor_batch);
    const auto after = referenceState(next_batch);
    EXPECT_TRUE(actual == before || actual == after)
        << "crash point " << crashPoint
        << ": state matches neither batch boundary " << floor_batch
        << " nor " << next_batch << " (committed " << committed
        << ", actual size " << actual.size() << ")";
}

/**
 * Silence the (expected, numerous) torn-log warnings of a sweep —
 * but never a Panic/Fatal, which is about to abort the process and
 * whose message is the only clue to which crash point blew up.
 */
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

void
runSweep(CrashMode mode, EngineKind engine = EngineKind::Undo,
         unsigned group = 1)
{
    QuietWarnings quiet;
    std::size_t committed = 0;
    CrashSweepConfig cfg;
    cfg.mode = mode;
    cfg.seed = 99;

    const CrashSweepResult result = crashSweep(
        [&committed, engine, group](CrashInjector &inj) {
            runWorkload(inj, committed, engine, group);
        },
        [&committed, group](Pool &pool, std::uint64_t n, bool) {
            validateImage(pool, committed, n, group);
        },
        cfg);

    if (engine == EngineKind::Undo) {
        // The acceptance bar: hundreds of distinct crash points, and
        // the sweep exercised both recovery paths (active log rolled
        // back, and between-transaction clean images).
        EXPECT_GT(result.crashPoints, 200u);
        EXPECT_GT(result.rollbacks, 0u);
    } else {
        // Redo stages writes in DRAM, so its persistence-event stream
        // is far shorter (only the journal flush sequence) — but the
        // sweep must still catch images mid-commit (a committed
        // journal replayed forward) and between commits.
        EXPECT_GT(result.crashPoints, 20u);
        EXPECT_GT(result.rollbacks, 0u);
    }
    EXPECT_GT(result.cleanImages, 0u);
}

} // namespace

TEST(CrashSweep, EveryCrashPointRecoversDiscardUnfenced)
{
    runSweep(CrashMode::DiscardUnfenced);
}

TEST(CrashSweep, EveryCrashPointRecoversRetainRandom)
{
    runSweep(CrashMode::RetainRandom);
}

TEST(CrashSweep, EveryCrashPointRecoversRetainEpoch)
{
    runSweep(CrashMode::RetainEpoch);
}

TEST(CrashSweep, EveryCrashPointRecoversRetainBoundedStale)
{
    runSweep(CrashMode::RetainBoundedStale);
}

// Same four schedules against the redo engine: journal committed at
// the control-block publish, replayed forward on recovery.

TEST(CrashSweepRedo, EveryCrashPointRecoversDiscardUnfenced)
{
    runSweep(CrashMode::DiscardUnfenced, EngineKind::Redo);
}

TEST(CrashSweepRedo, EveryCrashPointRecoversRetainRandom)
{
    runSweep(CrashMode::RetainRandom, EngineKind::Redo);
}

TEST(CrashSweepRedo, EveryCrashPointRecoversRetainEpoch)
{
    runSweep(CrashMode::RetainEpoch, EngineKind::Redo);
}

TEST(CrashSweepRedo, EveryCrashPointRecoversRetainBoundedStale)
{
    runSweep(CrashMode::RetainBoundedStale, EngineKind::Redo);
}

// And group commit (batches of 2): atomicity coarsens to the batch
// boundary but no crash point may ever show a half-batch.

TEST(CrashSweepGroupCommit, EveryCrashPointRecoversDiscardUnfenced)
{
    runSweep(CrashMode::DiscardUnfenced, EngineKind::Redo, 2);
}

TEST(CrashSweepGroupCommit, EveryCrashPointRecoversRetainRandom)
{
    runSweep(CrashMode::RetainRandom, EngineKind::Redo, 2);
}

TEST(CrashSweepGroupCommit, EveryCrashPointRecoversRetainEpoch)
{
    runSweep(CrashMode::RetainEpoch, EngineKind::Redo, 2);
}

TEST(CrashSweepGroupCommit, EveryCrashPointRecoversRetainBoundedStale)
{
    runSweep(CrashMode::RetainBoundedStale, EngineKind::Redo, 2);
}

// ---------------------------------------------------------------------
// Proof-driven logging elision under the same sweeps (ISSUE 9): the
// transactional IR workload whose plan the persistency analysis
// elided — fresh-alloc and dominated-write — crashed at every
// persistence event, under both txn engines and all four schedules.
// ---------------------------------------------------------------------

namespace
{

void
runElidedIrSweep(CrashMode mode, EngineKind engine)
{
    QuietWarnings quiet;
    const txnir::Program p = txnir::compile(/*elide=*/true);
    // The sweep proves nothing unless the plan actually elides: two
    // fresh-alloc stores and one dominated repeat per round.
    ASSERT_EQ(p.persistency.diags.errorCount(), 0u)
        << p.persistency.diags.render();
    ASSERT_EQ(p.persistency.elidedFresh, 2u);
    ASSERT_EQ(p.persistency.elidedDominated, 1u);

    // Crash-free reference run: the workload is deterministic, so
    // the swept run allocates its cells at these offsets too.
    const std::vector<PoolOffset> off = txnir::cellOffsets(
        txnir::run(p, engine, txnir::Tier::Interp));
    ASSERT_EQ(off.size(), txnir::kRounds);

    std::size_t committed = 0;
    CrashSweepConfig cfg;
    cfg.mode = mode;
    cfg.seed = 99;
    const CrashSweepResult result = crashSweep(
        [&](CrashInjector &inj) {
            txnir::run(p, engine, txnir::Tier::Interp, &inj,
                       &committed);
        },
        [&](Pool &pool, std::uint64_t n, bool) {
            const std::string err = txnir::checkImage(
                pool.backing().raw().toVector(), off, committed);
            EXPECT_TRUE(err.empty())
                << "crash point " << n << ": " << err;
        },
        cfg);

    EXPECT_GT(result.crashPoints, 10u);
    EXPECT_GT(result.rollbacks, 0u);
    EXPECT_GT(result.cleanImages, 0u);
}

} // namespace

TEST(CrashSweepElidedIr, UndoRecoversDiscardUnfenced)
{
    runElidedIrSweep(CrashMode::DiscardUnfenced, EngineKind::Undo);
}

TEST(CrashSweepElidedIr, UndoRecoversRetainRandom)
{
    runElidedIrSweep(CrashMode::RetainRandom, EngineKind::Undo);
}

TEST(CrashSweepElidedIr, UndoRecoversRetainEpoch)
{
    runElidedIrSweep(CrashMode::RetainEpoch, EngineKind::Undo);
}

TEST(CrashSweepElidedIr, UndoRecoversRetainBoundedStale)
{
    runElidedIrSweep(CrashMode::RetainBoundedStale, EngineKind::Undo);
}

TEST(CrashSweepElidedIr, RedoRecoversDiscardUnfenced)
{
    runElidedIrSweep(CrashMode::DiscardUnfenced, EngineKind::Redo);
}

TEST(CrashSweepElidedIr, RedoRecoversRetainRandom)
{
    runElidedIrSweep(CrashMode::RetainRandom, EngineKind::Redo);
}

TEST(CrashSweepElidedIr, RedoRecoversRetainEpoch)
{
    runElidedIrSweep(CrashMode::RetainEpoch, EngineKind::Redo);
}

TEST(CrashSweepElidedIr, RedoRecoversRetainBoundedStale)
{
    runElidedIrSweep(CrashMode::RetainBoundedStale, EngineKind::Redo);
}

// Elision must change the cost, never the data: the unelided plan and
// the elided plan — through the Interpreter and both FastExecutor
// tiers — commit every cell to byte-identical contents, while the
// log traffic measurably shrinks. Each engine's win shows up in its
// own currency: undo skips pre-image log appends, so its flush stream
// thins; redo keeps elided runs out of the journal (they flush
// straight to media in phase 0), so journaled bytes drop while raw
// flush count may not.
TEST(CrashSweepElidedIr, ElisionShrinksTheLogNotTheData)
{
    const txnir::Program plain = txnir::compile(/*elide=*/false);
    const txnir::Program elided = txnir::compile(/*elide=*/true);

    struct RunOut
    {
        std::vector<PoolOffset> off;
        std::vector<std::uint8_t> cells;
        std::uint64_t flushes = 0;
        std::uint64_t journal = 0;
        std::uint64_t elisions = 0;
    };

    for (EngineKind engine : {EngineKind::Undo, EngineKind::Redo}) {
        const bool undo = engine == EngineKind::Undo;
        SCOPED_TRACE(undo ? "undo" : "redo");
        const auto counter = [&](const obs::MetricsSnapshot &d,
                                 const std::string &name) {
            const auto it = d.counters.find(name);
            return it == d.counters.end() ? 0 : it->second;
        };
        const auto runOne = [&](const txnir::Program &p,
                                txnir::Tier tier) {
            const auto before =
                obs::MetricsRegistry::instance().snapshot();
            std::vector<std::uint8_t> image;
            const auto cells = txnir::run(p, engine, tier, nullptr,
                                          nullptr, &image);
            const auto d = obs::MetricsRegistry::instance()
                               .snapshot()
                               .minus(before);
            RunOut out;
            out.off = txnir::cellOffsets(cells);
            for (const PoolOffset o : out.off) {
                out.cells.insert(out.cells.end(), image.begin() + o,
                                 image.begin() + o + 64);
            }
            out.flushes = counter(
                d, undo ? "txn.undoFlushes" : "txn.redoFlushes");
            out.journal = counter(d, "txn.redoJournalBytes");
            out.elisions =
                counter(d, undo ? "txn.undoElidedWrites"
                                : "txn.redoElidedRuns");
            return out;
        };

        const RunOut base = runOne(plain, txnir::Tier::Interp);
        EXPECT_EQ(base.elisions, 0u);
        EXPECT_GT(base.flushes, 0u);
        for (txnir::Tier tier :
             {txnir::Tier::Interp, txnir::Tier::Model,
              txnir::Tier::Native}) {
            const RunOut run = runOne(elided, tier);
            EXPECT_EQ(run.off, base.off);
            EXPECT_EQ(run.cells, base.cells); // user data identical
            EXPECT_GT(run.elisions, 0u);
            if (undo)
                EXPECT_LT(run.flushes, base.flushes);
            else
                EXPECT_LT(run.journal, base.journal);
        }
    }
}

// ---------------------------------------------------------------------
// Checksum detection of corrupted undo entries
// ---------------------------------------------------------------------

namespace
{

/** Offset of the first log entry's payload within a fresh pool. */
constexpr Bytes kEntry0Payload = Pool::kHeaderSize + 16 /*control*/ +
                                 16 /*entry header*/;

std::uint64_t
peek64(const Pool &pool, Bytes off)
{
    std::uint64_t v;
    pool.backing().read(off, &v, sizeof(v));
    return v;
}

void
poke64(Pool &pool, Bytes off, std::uint64_t v)
{
    pool.backing().write(off, &v, sizeof(v));
}

} // namespace

TEST(CrashRecoveryHardening, FlippedPayloadByteIsDetectedNotReplayed)
{
    Pool pool(1, "t", 1 << 20);
    const PoolOffset data =
        static_cast<PoolOffset>(pool.header().arenaStart);
    poke64(pool, data, 100);

    const std::uint64_t warns_before = warnCount();
    {
        Txn txn(pool);
        txn.recordWrite(data, 8);
        poke64(pool, data, 111);

        // Crash snapshot, then a media bit-flip inside the logged
        // pre-image.
        Pool crashed("crashed", Backing(pool.backing()));
        std::uint8_t byte;
        crashed.backing().read(kEntry0Payload, &byte, 1);
        byte ^= 0x40;
        crashed.backing().write(kEntry0Payload, &byte, 1);

        EXPECT_TRUE(Txn::isActive(crashed));
        EXPECT_TRUE(Txn::recover(crashed));
        // The corrupt pre-image (which would have decoded as 100 ^
        // 0x40 << 8...) was NOT replayed: the new value stays.
        EXPECT_EQ(peek64(crashed, data), 111u);
        EXPECT_FALSE(Txn::isActive(crashed));
        txn.commit();
    }
    EXPECT_GT(warnCount(), warns_before);
}

TEST(CrashRecoveryHardening, CorruptMiddleEntryTruncatesTheLogTail)
{
    Pool pool(1, "t", 1 << 20);
    const PoolOffset a =
        static_cast<PoolOffset>(pool.header().arenaStart);
    const PoolOffset b = a + 64;
    poke64(pool, a, 100);
    poke64(pool, b, 200);

    Txn txn(pool);
    txn.recordWrite(a, 8);
    poke64(pool, a, 111);
    txn.recordWrite(b, 8);
    poke64(pool, b, 222);

    Pool crashed("crashed", Backing(pool.backing()));
    // Corrupt the FIRST entry: it and everything after it (the entry
    // boundary chain can no longer be trusted) must be discarded.
    std::uint8_t byte;
    crashed.backing().read(kEntry0Payload, &byte, 1);
    byte ^= 0x01;
    crashed.backing().write(kEntry0Payload, &byte, 1);

    EXPECT_TRUE(Txn::recover(crashed));
    EXPECT_EQ(peek64(crashed, a), 111u); // bad bytes not replayed
    EXPECT_EQ(peek64(crashed, b), 222u); // tail after the bad entry too
    EXPECT_FALSE(Txn::isActive(crashed));
    txn.commit();
}
