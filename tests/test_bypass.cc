/** @file Tests for the non-PMO bypass predictor (paper future work). */

#include <gtest/gtest.h>

#include "containers/rb_tree.hh"

using namespace upr;

TEST(BypassPredictor, LearnsStablePages)
{
    BypassPredictor bp(256);
    const SimAddr dram = 0x10000;
    const SimAddr nvm = Layout::kNvmBase + 0x10000;

    // Warm up both pages.
    for (int i = 0; i < 8; ++i) {
        bp.access(dram, 1);
        bp.access(nvm, 1);
    }
    const auto miss_before = bp.mispredicts();
    Cycles dram_cost = 0, nvm_cost = 0;
    for (int i = 0; i < 100; ++i) {
        dram_cost += bp.access(dram, 1);
        nvm_cost += bp.access(nvm, 1);
    }
    EXPECT_EQ(bp.mispredicts(), miss_before); // fully learned
    EXPECT_EQ(dram_cost, 0u);   // non-PMO accesses bypass entirely
    EXPECT_EQ(nvm_cost, 100u);  // PMO accesses pay the probe
}

TEST(BypassPredictor, ColdPmoPageMispredictsOnceThenLearns)
{
    BypassPredictor bp(256);
    const SimAddr nvm = Layout::kNvmBase + 0x123000;
    // Counters initialize to weak non-PMO: the first PMO access at a
    // cold entry mispredicts and pays double...
    EXPECT_EQ(bp.access(nvm, 10), 20u);
    EXPECT_EQ(bp.mispredicts(), 1u);
    // ...the second access predicts PMO and pays the single probe.
    EXPECT_EQ(bp.access(nvm, 10), 10u);
    EXPECT_EQ(bp.mispredicts(), 1u);
}

TEST(MmuFront, PredictionHelpsMixedWorkloads)
{
    // A mixed workload: one persistent tree, one volatile tree, both
    // exercised — roughly half the traffic can bypass the probe.
    auto runCycles = [](MmuFrontModel model) {
        Runtime::Config cfg;
        cfg.version = Version::Hw;
        cfg.seed = 9;
        cfg.machine.mmuFront = model;
        Runtime rt(cfg);
        RuntimeScope scope(rt);
        const PoolId pool = rt.createPool("p", 16 << 20);
        RbTree<std::uint64_t, std::uint64_t> pers(
            MemEnv::persistentEnv(rt, pool));
        RbTree<std::uint64_t, std::uint64_t> vol(
            MemEnv::volatileEnv(rt));
        for (std::uint64_t i = 0; i < 500; ++i) {
            pers.insert(i, i);
            vol.insert(i, i);
        }
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < 500; ++i)
            sum += pers.find(i).value() + vol.find(i).value();
        EXPECT_EQ(sum, 2 * (500u * 499 / 2));
        return rt.machine().now();
    };

    const Cycles none = runCycles(MmuFrontModel::None);
    const Cycles always = runCycles(MmuFrontModel::Always);
    const Cycles predicted = runCycles(MmuFrontModel::Predicted);

    // Always > Predicted > None: prediction recovers much of the
    // probe delay; PMO accesses still pay it.
    EXPECT_GT(always, predicted);
    EXPECT_GT(predicted, none);
}

TEST(MmuFront, VolatileAndSwUnaffected)
{
    for (Version v : {Version::Volatile, Version::Sw}) {
        SCOPED_TRACE(versionName(v));
        auto runCycles = [&](MmuFrontModel model) {
            Runtime::Config cfg;
            cfg.version = v;
            cfg.seed = 9;
            cfg.machine.mmuFront = model;
            Runtime rt(cfg);
            RuntimeScope scope(rt);
            const PoolId pool = rt.createPool("p", 8 << 20);
            RbTree<std::uint64_t, std::uint64_t> tree(
                MemEnv::persistentEnv(rt, pool));
            for (std::uint64_t i = 0; i < 100; ++i)
                tree.insert(i, i);
            return rt.machine().now();
        };
        // The SW/Volatile versions have no POLB/VALB in the MMU.
        EXPECT_EQ(runCycles(MmuFrontModel::None),
                  runCycles(MmuFrontModel::Always));
    }
}

TEST(MmuFront, PredictorBypassesMostVolatileTraffic)
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 9;
    cfg.machine.mmuFront = MmuFrontModel::Predicted;
    Runtime rt(cfg);
    RuntimeScope scope(rt);

    // A purely volatile workload: nearly everything should bypass.
    RbTree<std::uint64_t, std::uint64_t> tree(
        MemEnv::volatileEnv(rt));
    for (std::uint64_t i = 0; i < 1000; ++i)
        tree.insert(i, i);
    const auto &bp = rt.machine().bypass();
    EXPECT_GT(bp.bypassed(), rt.machine().memAccesses() * 9 / 10);
}
