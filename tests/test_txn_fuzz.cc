/** @file Seed-deterministic transaction fuzzer (ISSUE 7): random
 * operation sequences — overlapping and nested raw-byte writes,
 * overwrites within a transaction, aborts, empty transactions, and
 * group-commit batch boundaries — are run under both engines and
 * crashed at every persistence event, with every recovered image
 * checked against a shadow model of the committed prefixes.
 *
 * Replay: every workload derives from a single 64-bit seed printed in
 * the failure banner; set UPR_CRASH_SEED=<seed> to rerun exactly that
 * workload (and only it) under both engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/ptr.hh"
#include "core/runtime.hh"
#include "crash/crash_sweep.hh"
#include "nvm/engine.hh"
#include "nvm/txn.hh"

using namespace upr;

namespace
{

std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9E37'79B9'7F4A'7C15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xBF58'476D'1CE4'E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D0'49BB'1331'11EBULL;
    return x ^ (x >> 31);
}

/** Raw-byte window inside the arena the fuzzer scribbles over. */
constexpr Bytes kRegion = 2048;

/** One write of a fuzz transaction (offsets relative to the window). */
struct FuzzWrite
{
    Bytes off;
    Bytes len;
    std::uint8_t fill;
};

struct FuzzTxn
{
    bool abort = false;
    std::vector<FuzzWrite> writes; //!< empty => empty transaction
};

struct FuzzPlan
{
    std::uint64_t seed = 0;
    unsigned group = 1; //!< redo group-commit size (1 = solo)
    std::vector<FuzzTxn> txns;
};

/**
 * Everything about a fuzz run — transaction count, write shapes,
 * aborts, batch size — is a pure function of the seed.
 */
FuzzPlan
makePlan(std::uint64_t seed)
{
    FuzzPlan plan;
    plan.seed = seed;
    std::uint64_t rng = seed;
    plan.group = 1 + mix(rng) % 4; // 1..4: solo and batched shapes
    const std::size_t txns = 6 + mix(rng) % 6;
    for (std::size_t t = 0; t < txns; ++t) {
        FuzzTxn txn;
        const std::uint64_t shape = mix(rng) % 10;
        txn.abort = shape == 0;
        const std::size_t writes = shape == 1 ? 0 : 1 + mix(rng) % 4;
        for (std::size_t w = 0; w < writes; ++w) {
            FuzzWrite fw;
            // Lengths up to 96 over a 2 KiB window: plenty of
            // overlapping and fully-nested ranges across (and within)
            // transactions.
            fw.len = 1 + mix(rng) % 96;
            fw.off = mix(rng) % (kRegion - fw.len);
            fw.fill = static_cast<std::uint8_t>(mix(rng));
            txn.writes.push_back(fw);
        }
        plan.txns.push_back(std::move(txn));
    }
    return plan;
}

/**
 * Shadow model: the window contents after each *successful* commit.
 * snapshots[c] is the durable window after c committed transactions.
 */
std::vector<std::vector<std::uint8_t>>
shadowSnapshots(const FuzzPlan &plan)
{
    std::vector<std::vector<std::uint8_t>> snaps;
    std::vector<std::uint8_t> cur(kRegion, 0);
    for (Bytes i = 0; i < kRegion; ++i)
        cur[i] = static_cast<std::uint8_t>(i * 13 + 7);
    snaps.push_back(cur);
    for (const FuzzTxn &txn : plan.txns) {
        if (txn.abort)
            continue;
        for (const FuzzWrite &w : txn.writes)
            for (Bytes i = 0; i < w.len; ++i)
                cur[w.off + i] = static_cast<std::uint8_t>(
                    w.fill + static_cast<std::uint8_t>(i));
        snaps.push_back(cur);
    }
    return snaps;
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
 * Execute the plan against a pool of @p engine. Writes go straight
 * through the pool backing — under undo they are observed and logged;
 * under redo they are staged. @p committed tracks successful commits
 * incrementally (the sweep checks every crash point mid-run).
 */
void
runPlan(const FuzzPlan &plan, EngineKind engine,
        CrashInjector *injector, std::size_t &committed)
{
    committed = 0;
    Runtime rt(config());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("fuzz", 256 << 10, engine);
    rt.setGroupCommitSize(plan.group);
    Pool &p = rt.pools().pool(pool);
    const Bytes base = p.header().arenaStart;

    std::vector<std::uint8_t> init(kRegion);
    for (Bytes i = 0; i < kRegion; ++i)
        init[i] = static_cast<std::uint8_t>(i * 13 + 7);
    p.backing().write(base, init.data(), init.size());

    if (injector)
        injector->attach(p.backing());

    for (const FuzzTxn &txn : plan.txns) {
        rt.beginTxn(pool);
        for (const FuzzWrite &w : txn.writes) {
            std::vector<std::uint8_t> bytes(w.len);
            for (Bytes i = 0; i < w.len; ++i)
                bytes[i] = static_cast<std::uint8_t>(
                    w.fill + static_cast<std::uint8_t>(i));
            p.backing().write(base + w.off, bytes.data(), w.len);
        }
        if (txn.abort)
            rt.abortTxn();
        else {
            rt.commitTxn();
            ++committed;
        }
    }
    rt.flushGroup(); // drain any trailing group-commit batch
}

/** The failure banner: everything needed to replay this exact run. */
std::string
banner(const FuzzPlan &plan, EngineKind engine, std::uint64_t point)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[txn-fuzz] engine=%s seed=%llu group=%u "
                  "crash-point=%llu — replay with UPR_CRASH_SEED=%llu",
                  engineKindName(engine),
                  (unsigned long long)plan.seed, plan.group,
                  (unsigned long long)point,
                  (unsigned long long)plan.seed);
    return buf;
}

void
fuzzOneSeed(std::uint64_t seed, EngineKind engine, CrashMode mode)
{
    setLogSink(+[](LogLevel level, const std::string &msg) {
        if (level == LogLevel::Panic || level == LogLevel::Fatal)
            std::fprintf(stderr, "%s\n", msg.c_str());
    });

    const FuzzPlan plan = makePlan(seed);
    const auto snaps = shadowSnapshots(plan);
    const unsigned group =
        engine == EngineKind::Redo ? plan.group : 1;
    std::size_t committed = 0;

    CrashSweepConfig cfg;
    cfg.mode = mode;
    cfg.seed = seed ^ 0xF0F0;

    const CrashSweepResult result = crashSweep(
        [&](CrashInjector &inj) {
            runPlan(plan, engine, &inj, committed);
        },
        [&](Pool &pool, std::uint64_t point, bool) {
            std::vector<std::uint8_t> actual(kRegion);
            pool.backing().read(pool.header().arenaStart,
                                actual.data(), kRegion);
            // Durable states: the last flushed batch boundary, or the
            // batch whose flush the crash interrupted. Solo commits
            // (and the undo engine) are batches of one.
            const std::size_t last = snaps.size() - 1;
            const std::size_t floor_batch =
                std::min<std::size_t>(committed - committed % group,
                                      last);
            const std::size_t next_batch =
                std::min<std::size_t>(floor_batch + group, last);
            const bool ok = actual == snaps[floor_batch] ||
                            actual == snaps[next_batch];
            EXPECT_TRUE(ok)
                << banner(plan, engine, point) << "\n  recovered "
                << "window matches neither " << floor_batch << " nor "
                << next_batch << " committed txns (of " << last
                << ")";
        },
        cfg);
    setLogSink(nullptr);

    EXPECT_GT(result.crashPoints, 0u) << banner(plan, engine, 0);
    // A full uncrashed run must land exactly on the final shadow
    // state; the sweep already reran recovery for idempotency at
    // every point.
    std::size_t full_committed = 0;
    std::uint64_t snap_count = 0;
    for (const FuzzTxn &t : plan.txns)
        snap_count += !t.abort;
    runPlan(plan, engine, nullptr, full_committed);
    EXPECT_EQ(full_committed, snap_count);
}

/** Seeds per engine; UPR_CRASH_SEED overrides with a single seed. */
std::vector<std::uint64_t>
seeds()
{
    if (const auto seed = crashSeedOverride())
        return {*seed};
    return {1, 0xBEEF, 0xC0FFEE};
}

} // namespace

TEST(TxnFuzz, UndoRandomWorkloadsSurviveEveryCrashPoint)
{
    for (std::uint64_t seed : seeds()) {
        fuzzOneSeed(seed, EngineKind::Undo,
                    CrashMode::DiscardUnfenced);
        fuzzOneSeed(seed, EngineKind::Undo, CrashMode::RetainRandom);
    }
}

TEST(TxnFuzz, RedoRandomWorkloadsSurviveEveryCrashPoint)
{
    for (std::uint64_t seed : seeds()) {
        fuzzOneSeed(seed, EngineKind::Redo,
                    CrashMode::DiscardUnfenced);
        fuzzOneSeed(seed, EngineKind::Redo, CrashMode::RetainRandom);
    }
}
