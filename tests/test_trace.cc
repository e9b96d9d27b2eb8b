/** @file Tests for trace record/replay: exact-replay equivalence
 * and parameter re-simulation. */

#include <gtest/gtest.h>

#include "arch/trace.hh"
#include "containers/rb_tree.hh"

using namespace upr;

namespace
{

/** A recorded run: its trace and the live Machine's counters. */
struct Recorded
{
    Trace trace;
    ReplayResult live;
};

/**
 * Record a small RB-tree workload; with @p txn, every tenth insert
 * runs in its own undo-log transaction.
 */
Recorded
recordWorkload(Version version, const MachineParams &params,
               MmuFrontModel front = MmuFrontModel::None,
               bool txn = false)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.machine = params;
    cfg.mmuFront = front;
    cfg.seed = 5;
    Runtime rt(cfg);
    RuntimeScope scope(rt);

    Recorded rec;
    rt.machine().setTrace(&rec.trace); // before the first event

    const PoolId pool = rt.createPool("t", 16 << 20);
    RbTree<std::uint64_t, std::uint64_t> tree(
        MemEnv::persistentEnv(rt, pool));
    for (std::uint64_t i = 0; i < 400; ++i) {
        const bool in_txn = txn && i % 10 == 0;
        if (in_txn)
            rt.beginTxn(pool);
        tree.insert(i * 13 % 1000, i);
        if (in_txn)
            rt.commitTxn();
    }
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 1000; ++i)
        sum += tree.find(i).value_or(0);
    tree.forEach([&](std::uint64_t k, std::uint64_t v) {
        sum ^= k + v;
    });
    (void)sum;

    rt.machine().setTrace(nullptr);
    Machine &m = rt.machine();
    rec.live.cycles = m.now();
    rec.live.memAccesses = m.memAccesses();
    rec.live.branches = m.bpred().branches();
    rec.live.branchMisses = m.bpred().mispredicts();
    rec.live.l1Misses = m.caches().l1().misses();
    rec.live.storePs = m.storePUnit().issuedCount();
    return rec;
}

/** Replay under the recording parameters matches the live run. */
void
expectReplayMatchesLive(const Recorded &rec, const MachineParams &params)
{
    ASSERT_GT(rec.trace.size(), 0u);
    const ReplayResult r = replayTrace(rec.trace, params);
    EXPECT_EQ(r.cycles, rec.live.cycles);
    EXPECT_EQ(r.memAccesses, rec.live.memAccesses);
    EXPECT_EQ(r.branches, rec.live.branches);
    EXPECT_EQ(r.branchMisses, rec.live.branchMisses);
    EXPECT_EQ(r.l1Misses, rec.live.l1Misses);
    EXPECT_EQ(r.storePs, rec.live.storePs);
}

} // namespace

TEST(Trace, ReplaySameParamsReproducesCyclesExactly)
{
    for (Version v : {Version::Volatile, Version::Sw, Version::Hw,
                      Version::Explicit}) {
        SCOPED_TRACE(versionName(v));
        MachineParams params;
        expectReplayMatchesLive(recordWorkload(v, params), params);
    }
}

TEST(Trace, ReplayReproducesPredictedMmuFrontAndTransactions)
{
    MachineParams params;
    {
        SCOPED_TRACE("HW, predicted MMU front");
        expectReplayMatchesLive(
            recordWorkload(Version::Hw, params, MmuFrontModel::Predicted),
            params);
    }
    for (Version v : {Version::Sw, Version::Hw}) {
        SCOPED_TRACE(std::string(versionName(v)) + ", transactional");
        expectReplayMatchesLive(
            recordWorkload(v, params, MmuFrontModel::None, true),
            params);
    }
}

TEST(Trace, ReplayCountsMatchSemantics)
{
    MachineParams params;
    const Trace trace = recordWorkload(Version::Hw, params).trace;
    const ReplayResult r = replayTrace(trace, params);
    EXPECT_GT(r.memAccesses, 0u);
    EXPECT_GT(r.branches, 0u);
    EXPECT_GT(r.storePs, 0u);
    EXPECT_GT(r.l1Misses, 0u);
    EXPECT_LT(r.l1Misses, r.memAccesses);
}

TEST(Trace, ReplayWithSlowerNvmCostsMore)
{
    MachineParams base;
    const Trace trace = recordWorkload(Version::Hw, base).trace;

    MachineParams slow = base;
    slow.nvmLatency = 960;
    const ReplayResult fast = replayTrace(trace, base);
    const ReplayResult slowed = replayTrace(trace, slow);
    EXPECT_GT(slowed.cycles, fast.cycles);
    // Access counts are properties of the trace, not the parameters.
    EXPECT_EQ(slowed.memAccesses, fast.memAccesses);
    EXPECT_EQ(slowed.branches, fast.branches);
}

TEST(Trace, ReplayWithTinyCachesMissesMore)
{
    MachineParams base;
    const Trace trace = recordWorkload(Version::Hw, base).trace;

    MachineParams tiny = base;
    tiny.l1Size = 1024;
    tiny.l2Size = 4096;
    tiny.l3Size = 16384;
    const ReplayResult big = replayTrace(trace, base);
    const ReplayResult small = replayTrace(trace, tiny);
    EXPECT_GT(small.l1Misses, big.l1Misses);
    EXPECT_GT(small.cycles, big.cycles);
}

TEST(Trace, DetachedSinkRecordsNothing)
{
    Runtime rt;
    RuntimeScope scope(rt);
    Trace trace;
    rt.machine().setTrace(&trace);
    rt.machine().setTrace(nullptr);
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);
    rt.storeData<std::uint64_t>(rt.resolveForAccess(p, 1), 5);
    EXPECT_EQ(trace.size(), 0u);
}
