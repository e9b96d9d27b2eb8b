/** @file Tests for trace record/replay: exact-replay equivalence,
 * parameter re-simulation, and file round-trips. */

#include <gtest/gtest.h>

#include <cstdio>

#include "arch/trace.hh"
#include "containers/rb_tree.hh"
#include "temp_path.hh"

using namespace upr;

namespace
{

/** Record a small RB-tree workload; return (trace, recorded cycles). */
std::pair<Trace, Cycles>
recordWorkload(Version version, const MachineParams &params)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.machine = params;
    cfg.seed = 5;
    Runtime rt(cfg);
    RuntimeScope scope(rt);

    Trace trace;
    rt.machine().setTrace(&trace); // before the first event

    const PoolId pool = rt.createPool("t", 16 << 20);
    RbTree<std::uint64_t, std::uint64_t> tree(
        MemEnv::persistentEnv(rt, pool));
    for (std::uint64_t i = 0; i < 400; ++i)
        tree.insert(i * 13 % 1000, i);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 1000; ++i)
        sum += tree.find(i).value_or(0);
    tree.forEach([&](std::uint64_t k, std::uint64_t v) {
        sum ^= k + v;
    });
    (void)sum;

    rt.machine().setTrace(nullptr);
    return {std::move(trace), rt.machine().now()};
}

} // namespace

TEST(Trace, ReplaySameParamsReproducesCyclesExactly)
{
    for (Version v : {Version::Volatile, Version::Sw, Version::Hw,
                      Version::Explicit}) {
        SCOPED_TRACE(versionName(v));
        MachineParams params;
        auto [trace, recorded_cycles] = recordWorkload(v, params);
        ASSERT_GT(trace.size(), 0u);

        const ReplayResult replayed = replayTrace(trace, params);
        EXPECT_EQ(replayed.cycles, recorded_cycles);
    }
}

TEST(Trace, ReplayCountsMatchSemantics)
{
    MachineParams params;
    auto [trace, cycles] = recordWorkload(Version::Hw, params);
    (void)cycles;
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
    auto [trace, cycles] = recordWorkload(Version::Hw, base);
    (void)cycles;

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
    auto [trace, cycles] = recordWorkload(Version::Hw, base);
    (void)cycles;

    MachineParams tiny = base;
    tiny.l1Size = 1024;
    tiny.l2Size = 4096;
    tiny.l3Size = 16384;
    const ReplayResult big = replayTrace(trace, base);
    const ReplayResult small = replayTrace(trace, tiny);
    EXPECT_GT(small.l1Misses, big.l1Misses);
    EXPECT_GT(small.cycles, big.cycles);
}

TEST(Trace, SaveLoadRoundTrip)
{
    MachineParams params;
    auto [trace, cycles] = recordWorkload(Version::Hw, params);
    (void)cycles;

    const std::string path = test::tempPath("t.trace");
    trace.save(path);
    const Trace loaded = Trace::load(path);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 997) {
        EXPECT_EQ(static_cast<int>(loaded.events()[i].kind),
                  static_cast<int>(trace.events()[i].kind));
        EXPECT_EQ(loaded.events()[i].a, trace.events()[i].a);
        EXPECT_EQ(loaded.events()[i].b, trace.events()[i].b);
    }
    // A loaded trace replays identically.
    EXPECT_EQ(replayTrace(loaded, params).cycles,
              replayTrace(trace, params).cycles);
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsGarbage)
{
    const std::string path = test::tempPath("garbage.trace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_THROW(Trace::load(path), Fault);
    std::remove(path.c_str());
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
