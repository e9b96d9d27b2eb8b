/** @file The sharded runtime's ownership model (ISSUE 10): typed
 * NoRuntimeBound/WrongShard faults replace the old null-dereference
 * failure mode, the explicit bind/unbind API enforces one owner
 * thread per shard runtime, and each shard's metrics federate into
 * the registry under shard-prefixed names. */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/sharded_runtime.hh"
#include "obs/metrics.hh"

using namespace upr;

namespace
{

Runtime::Config
makeConfig()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 42;
    return cfg;
}

FaultKind
faultKindOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const Fault &f) {
        return f.kind();
    }
    ADD_FAILURE() << "expected a Fault";
    return FaultKind::BadUsage;
}

} // namespace

// First in the file so that, even when the whole binary runs in one
// process, the fleet below is the process's first TxnStats use: the
// process-wide singleton is then built inside shard 0's registration
// prefix (createPool formats the log through it).
TEST(ShardedRuntime, ProcessWideTxnGroupRegistersUnprefixed)
{
    ShardedRuntime::Config cfg;
    cfg.shards = 2;
    cfg.runtime = makeConfig();
    ShardedRuntime fleet(cfg);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.count("txn.undoCommits"), 1u);
    EXPECT_EQ(snap.counters.count("shard0.txn.undoCommits"), 1u);
    EXPECT_EQ(snap.counters.count("shard1.txn.undoCommits"), 1u);
    for (const auto &[name, value] : snap.counters)
        EXPECT_EQ(name.find('#'), std::string::npos) << name;
    for (const auto &[name, data] : snap.histograms)
        EXPECT_EQ(name.find('#'), std::string::npos) << name;
}

TEST(RuntimeBinding, UnboundThreadFaultsTypedNotNullDeref)
{
    // A worker thread that forgot to bind gets a catchable typed
    // fault, on its own thread, not a process crash.
    FaultKind seen = FaultKind::BadUsage;
    std::thread worker([&] {
        try {
            (void)currentRuntime();
        } catch (const Fault &f) {
            seen = f.kind();
        }
    });
    worker.join();
    EXPECT_EQ(seen, FaultKind::NoRuntimeBound);
}

TEST(RuntimeBinding, BindUnbindPairsAndFaults)
{
    Runtime rt(makeConfig());
    ASSERT_FALSE(hasCurrentRuntime());

    bindRuntime(rt);
    EXPECT_TRUE(hasCurrentRuntime());
    EXPECT_EQ(&currentRuntime(), &rt);

    // Double-bind on one thread is a usage error, not a leak.
    EXPECT_EQ(faultKindOf([&] { bindRuntime(rt); }),
              FaultKind::BadUsage);

    unbindRuntime();
    EXPECT_FALSE(hasCurrentRuntime());
    EXPECT_EQ(faultKindOf([] { unbindRuntime(); }),
              FaultKind::NoRuntimeBound);
}

TEST(RuntimeBinding, SecondThreadClaimingBoundRuntimeFaultsWrongShard)
{
    Runtime rt(makeConfig());
    RuntimeScope scope(rt); // this thread owns the shard

    FaultKind seen = FaultKind::BadUsage;
    std::thread intruder([&] {
        try {
            RuntimeScope steal(rt);
        } catch (const Fault &f) {
            seen = f.kind();
        }
    });
    intruder.join();
    EXPECT_EQ(seen, FaultKind::WrongShard);
}

TEST(RuntimeBinding, SameThreadRebindIsReentrant)
{
    Runtime a(makeConfig());
    Runtime b(makeConfig());
    RuntimeScope outer(a);
    {
        RuntimeScope inner(b); // different runtime, same thread
        EXPECT_EQ(&currentRuntime(), &b);
        {
            RuntimeScope again(a); // re-entrant claim of a
            EXPECT_EQ(&currentRuntime(), &a);
        }
        EXPECT_EQ(&currentRuntime(), &b);
    }
    EXPECT_EQ(&currentRuntime(), &a);
}

TEST(RuntimeBinding, ReleasedRuntimeIsClaimableByAnotherThread)
{
    Runtime rt(makeConfig());
    {
        RuntimeScope scope(rt);
    }
    // The first owner is gone; a second thread may now claim.
    std::atomic<bool> claimed{false};
    std::thread successor([&] {
        RuntimeScope scope(rt);
        claimed = true;
    });
    successor.join();
    EXPECT_TRUE(claimed);
}

TEST(ShardedRuntime, ShardOfKeyCoversAllShardsDeterministically)
{
    ShardedRuntime::Config cfg;
    cfg.shards = 4;
    cfg.runtime = makeConfig();
    ShardedRuntime fleet(cfg);

    std::set<unsigned> seen;
    for (std::uint64_t k = 0; k < 256; ++k) {
        const unsigned s = fleet.shardOf(k);
        ASSERT_LT(s, 4u);
        EXPECT_EQ(s, ShardedRuntime::shardOfKey(k, 4));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardedRuntime, RunOnShardsBindsEachShardToItsWorker)
{
    ShardedRuntime::Config cfg;
    cfg.shards = 4;
    cfg.runtime = makeConfig();
    ShardedRuntime fleet(cfg);

    std::vector<int> visited(4, 0);
    fleet.runOnShards([&](unsigned s) {
        EXPECT_EQ(&currentRuntime(), &fleet.runtime(s));
        // Real work on the shard's own pool proves the binding is
        // usable, not just set: allocate and store persistently.
        Ptr<std::uint64_t> p = Ptr<std::uint64_t>::fromBits(
            fleet.runtime(s).pmallocBits(fleet.pool(s), 8));
        p.store(0x5000 + s);
        EXPECT_EQ(p.load(), 0x5000 + s);
        ++visited[s];
    });
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(visited[s], 1) << "shard " << s;
}

TEST(ShardedRuntime, WorkerExceptionIsRethrownAfterJoin)
{
    ShardedRuntime::Config cfg;
    cfg.shards = 2;
    cfg.runtime = makeConfig();
    ShardedRuntime fleet(cfg);

    try {
        fleet.runOnShards([&](unsigned s) {
            if (s == 1)
                throw Fault(FaultKind::BadUsage, "worker 1 exploded");
        });
        FAIL() << "expected the worker's Fault to be rethrown";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadUsage);
    }
}

TEST(ShardedRuntime, MetricsFederateUnderShardPrefixes)
{
    ShardedRuntime::Config cfg;
    cfg.shards = 2;
    cfg.runtime = makeConfig();
    ShardedRuntime fleet(cfg);

    // Commit one transaction on each shard so both the runtime ("upr")
    // and transaction ("txn") groups have non-zero, shard-attributable
    // counters.
    fleet.runOnShards([&](unsigned s) {
        Runtime &rt = fleet.runtime(s);
        const PtrBits p = rt.pmallocBits(fleet.pool(s), 64);
        rt.beginTxn(fleet.pool(s));
        Ptr<std::uint64_t>::fromBits(p).store(11 + s);
        rt.commitTxn();
        // Shard 1 commits twice: the per-shard counters must differ,
        // proving they are NOT summed into one fleet-wide bucket.
        if (s == 1) {
            rt.beginTxn(fleet.pool(s));
            Ptr<std::uint64_t>::fromBits(p).store(99);
            rt.commitTxn();
        }
    });

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("shard0.txn.undoCommits"), 1u);
    EXPECT_EQ(snap.counters.at("shard1.txn.undoCommits"), 2u);
    // The machine model's groups and the runtime's histograms carry
    // the prefix too.
    EXPECT_GT(snap.counters.at("shard0.core.memAccesses"), 0u);
    EXPECT_GT(snap.counters.at("shard1.core.memAccesses"), 0u);
    ASSERT_NE(snap.histograms.find("shard0.upr.txnCommitNs"),
              snap.histograms.end());
    EXPECT_EQ(snap.histograms.at("shard0.upr.txnCommitNs").count, 1u);
    EXPECT_EQ(snap.histograms.at("shard1.upr.txnCommitNs").count, 2u);
}
