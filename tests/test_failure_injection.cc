/** @file Failure-injection tests: the typed faults of Table I and
 * Fig 10 raised from realistic situations — pool exhaustion inside
 * container growth, detach during use, strict storeP violations,
 * heap exhaustion — and that the system stays consistent after. */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "containers/hash_map.hh"
#include "containers/rb_tree.hh"

using namespace upr;

namespace
{

Runtime::Config
makeConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.seed = 37;
    return cfg;
}

} // namespace

TEST(FailureInjection, PoolExhaustionDuringInsertSurfacesPoolFull)
{
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    // A deliberately tiny pool (minimum size).
    const PoolId pool = rt.createPool("tiny", 16 * 1024);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    RbTree<std::uint64_t, std::uint64_t> tree(env);

    bool filled = false;
    std::uint64_t inserted = 0;
    try {
        for (std::uint64_t i = 0; i < 100000; ++i) {
            tree.insert(i, i);
            ++inserted;
        }
    } catch (const Fault &f) {
        filled = true;
        EXPECT_EQ(f.kind(), FaultKind::PoolFull);
    }
    ASSERT_TRUE(filled);
    EXPECT_GT(inserted, 10u);

    // Freeing space makes the pool usable again; the failed insert
    // left the size counter consistent with reachable nodes.
    std::uint64_t reachable = 0;
    tree.forEach([&](std::uint64_t, std::uint64_t) { ++reachable; });
    EXPECT_EQ(reachable, tree.size());
    for (std::uint64_t i = 0; i < inserted; i += 2)
        tree.erase(i);
    EXPECT_NO_THROW(tree.insert(999999, 1));
}

TEST(FailureInjection, DetachWhileContainerLiveFaultsOnNextAccess)
{
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("p", 8 << 20);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    RbTree<std::uint64_t, std::uint64_t> tree(env);
    for (std::uint64_t i = 0; i < 100; ++i)
        tree.insert(i, i);

    rt.pools().detach(pool);
    try {
        (void)tree.find(5);
        FAIL() << "find on a detached pool must fault";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolDetached);
    }

    // Reattach and everything works again (relocated).
    rt.pools().openPool("p");
    EXPECT_EQ(tree.find(5).value(), 5u);
    tree.validate();
}

TEST(FailureInjection, StrictStorePRejectsDramPointerIntoContainer)
{
    for (Version v : {Version::Sw, Version::Hw}) {
        SCOPED_TRACE(versionName(v));
        Runtime::Config cfg = makeConfig(v);
        cfg.strictStoreP = true;
        Runtime rt(cfg);
        RuntimeScope scope(rt);
        const PoolId pool = rt.createPool("p", 8 << 20);

        struct Node
        {
            Ptr<Node> next;
        };
        MemEnv penv = MemEnv::persistentEnv(rt, pool);
        MemEnv venv = MemEnv::volatileEnv(rt);
        Ptr<Node> pers = penv.alloc<Node>();
        Ptr<Node> vol = venv.alloc<Node>();

        // Persistent -> persistent: fine.
        EXPECT_NO_THROW(pers.setPtrField(&Node::next, pers));
        // Volatile -> persistent location: Table I fault.
        try {
            pers.setPtrField(&Node::next, vol);
            FAIL();
        } catch (const Fault &f) {
            EXPECT_EQ(f.kind(), FaultKind::StorePFault);
        }
        // Persistent -> volatile location: always fine (converted).
        EXPECT_NO_THROW(vol.setPtrField(&Node::next, pers));
    }
}

TEST(FailureInjection, HeapExhaustionThrowsHeapFull)
{
    Runtime rt(makeConfig(Version::Volatile));
    RuntimeScope scope(rt);
    bool threw = false;
    std::vector<SimAddr> blocks;
    try {
        for (int i = 0; i < 1000; ++i)
            blocks.push_back(rt.mallocBytes(64 << 20));
    } catch (const Fault &f) {
        threw = true;
        EXPECT_EQ(f.kind(), FaultKind::HeapFull);
    }
    EXPECT_TRUE(threw);
    // Previously allocated blocks remain usable.
    ASSERT_FALSE(blocks.empty());
    rt.storeData<std::uint64_t>(blocks[0], 7);
    EXPECT_EQ(rt.loadData<std::uint64_t>(blocks[0]), 7u);
#if !defined(UPR_SANITIZE) && !defined(UPR_TSAN)
    // The heap grew to its cap by doubling; growth must not touch the
    // pages nothing wrote (sanitizer shadow memory would swamp this).
    rusage ru{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
    EXPECT_LT(ru.ru_maxrss, 256L * 1024) << "peak RSS, KiB";
#endif
}

TEST(FailureInjection, DanglingRelativePointerAfterDestroyFaults)
{
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("gone", 8 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);
    rt.pools().destroy(pool);
    try {
        rt.resolveForAccess(p, 1);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadRelativeAddress);
    }
}

TEST(FailureInjection, OffsetPastPoolEndFaults)
{
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("p", 1 << 20);
    // Forge a relative address pointing past the pool end.
    const PtrBits bad = PtrRepr::makeRelative(pool, (1 << 20) + 64);
    try {
        rt.resolveForAccess(bad, 1);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::OffsetOutOfPool);
    }
}

TEST(FailureInjection, HashRehashMidFaultStaysUsable)
{
    // Fill a pool so the rehash's big bucket-array allocation fails,
    // then verify the old table is still intact and queryable.
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("p", 64 * 1024);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    HashMap<std::uint64_t, std::uint64_t> map(env);

    std::uint64_t ok = 0;
    try {
        for (std::uint64_t i = 0; i < 10000; ++i) {
            map.insert(i, i);
            ++ok;
        }
        FAIL() << "expected the pool to fill";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolFull);
    }
    // All successfully inserted keys are still reachable.
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < ok; ++i)
        found += map.contains(i) ? 1 : 0;
    EXPECT_EQ(found, ok);
}

TEST(FailureInjection, FaultDuringTxnStillAbortsCleanly)
{
    Runtime rt(makeConfig(Version::Hw));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("p", 256 * 1024);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    RbTree<std::uint64_t, std::uint64_t> tree(env);
    for (std::uint64_t i = 0; i < 20; ++i)
        tree.insert(i, i);

    rt.beginTxn(pool);
    try {
        for (std::uint64_t i = 20; i < 100000; ++i)
            tree.insert(i, i); // will hit PoolFull (or log-full)
        FAIL();
    } catch (const Fault &) {
        rt.abortTxn();
    }
    // Abort restored the pre-txn state despite the mid-txn fault.
    EXPECT_EQ(tree.size(), 20u);
    tree.validate();
    for (std::uint64_t i = 0; i < 20; ++i)
        ASSERT_EQ(tree.find(i).value(), i);
}
