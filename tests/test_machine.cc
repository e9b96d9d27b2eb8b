/** @file Integration tests for the composed Machine timing model. */

#include <gtest/gtest.h>

#include "arch/machine.hh"

using namespace upr;

class MachineTest : public ::testing::Test
{
  protected:
    MachineTest() : mgr(space, Placement::Sequential)
    {
        pool = mgr.createPool("m", 1 << 20);
    }

    MachineParams params;
    AddressSpace space;
    PoolManager mgr;
    PoolId pool = 0;
};

namespace
{

/** A hardware translation as the frontend makes it: xlat, then its
 * latency as a tick. */
SimAddr
chargedRa2va(Machine &m, PoolId id, PoolOffset off)
{
    const XlatResult r = m.xlat(id, off);
    m.tick(r.latency);
    return r.value;
}

Va2RaResult
chargedVa2ra(Machine &m, SimAddr va)
{
    const Va2RaResult r = m.xlat(va);
    m.tick(r.latency);
    return r;
}

} // namespace

TEST_F(MachineTest, ClockStartsAtZeroAndTicks)
{
    Machine m(params, mgr);
    EXPECT_EQ(m.now(), 0u);
    m.tick(25);
    EXPECT_EQ(m.now(), 25u);
}

TEST_F(MachineTest, MemAccessChargesTlbPlusCachePlusMemory)
{
    Machine m(params, mgr);
    const SimAddr dram = 0x2000;
    const Cycles cold = m.memAccess(dram, false,
                                    Machine::AccessKind::Load);
    // Cold: L1 TLB miss chain + full cache ladder + DRAM.
    EXPECT_EQ(cold, (params.l1TlbLatency + params.l2TlbHitLatency +
                     params.pageWalkLatency) +
                    (params.l1Latency + params.l2Latency +
                     params.l3Latency + params.dramLatency));
    // Warm: L1 TLB + L1 cache.
    const Cycles warm = m.memAccess(dram, false,
                                    Machine::AccessKind::Load);
    EXPECT_EQ(warm, params.l1TlbLatency + params.l1Latency);
    EXPECT_EQ(m.now(), cold + warm);
}

TEST_F(MachineTest, NvmAccessCostsMore)
{
    Machine m(params, mgr);
    const Cycles dram = m.memAccess(0x3000, false,
                                    Machine::AccessKind::Load);
    const Cycles nvm = m.memAccess(mgr.baseOf(pool), false,
                                   Machine::AccessKind::Load);
    EXPECT_EQ(nvm - dram, params.nvmLatency - params.dramLatency);
}

TEST_F(MachineTest, AccessKindsCounted)
{
    Machine m(params, mgr);
    m.memAccess(0x1000, false, Machine::AccessKind::Load);
    m.memAccess(0x1000, true, Machine::AccessKind::StoreD);
    m.memAccess(0x1000, true, Machine::AccessKind::StoreP);
    m.memAccess(0x1000, true, Machine::AccessKind::StoreP);
    EXPECT_EQ(m.memAccesses(), 4u);
    EXPECT_EQ(m.stats().lookup("loads"), 1u);
    EXPECT_EQ(m.stats().lookup("stores"), 1u);
    EXPECT_EQ(m.storePCount(), 2u);
}

TEST_F(MachineTest, Ra2VaHwChargesPolb)
{
    Machine m(params, mgr);
    const Cycles before = m.now();
    const SimAddr va = chargedRa2va(m, pool, 0x40);
    EXPECT_EQ(va, mgr.baseOf(pool) + 0x40);
    // Miss: hit latency + walk.
    EXPECT_EQ(m.now() - before,
              params.polbHitLatency + params.powLatency);
    const Cycles mid = m.now();
    chargedRa2va(m, pool, 0x80);
    EXPECT_EQ(m.now() - mid, params.polbHitLatency);
}

TEST_F(MachineTest, IssueStorePVisibleCostIsSmall)
{
    Machine m(params, mgr);
    const Cycles before = m.now();
    m.issueStoreP(0x6000, /*rs=*/30);
    // The 30-cycle translation hides in the FSM buffer.
    EXPECT_EQ(m.now() - before, params.storePIssueLatency);
}

TEST_F(MachineTest, Va2RaHwChargesValb)
{
    Machine m(params, mgr);
    const Cycles before = m.now();
    const Va2RaResult r = chargedVa2ra(m, mgr.baseOf(pool) + 0x40);
    EXPECT_EQ(r.id, pool);
    EXPECT_EQ(r.offset, 0x40u);
    // Miss: hit latency + walk, charged to the clock.
    EXPECT_EQ(m.now() - before,
              params.valbHitLatency + params.vawLatency);
    const Cycles mid = m.now();
    chargedVa2ra(m, mgr.baseOf(pool) + 0x80);
    EXPECT_EQ(m.now() - mid, params.valbHitLatency);
}

TEST_F(MachineTest, StorePRsXlatIsNotCharged)
{
    Machine m(params, mgr);
    const Va2RaResult v = m.xlat(mgr.baseOf(pool) + 0x40);
    const XlatResult p = m.xlat(pool, 0x40);
    EXPECT_EQ(v.latency, params.valbHitLatency + params.vawLatency);
    EXPECT_EQ(p.value, mgr.baseOf(pool) + 0x40);
    EXPECT_EQ(p.latency, params.polbHitLatency + params.powLatency);
    EXPECT_EQ(m.now(), 0u);
}

TEST_F(MachineTest, PointerLoadWaitsOnEveryThirdDependentStoreP)
{
    Machine m(params, mgr);
    const SimAddr line = 0x7000;
    // Issue a storeP to the line whose Rs translation takes kRs
    // cycles; returns the cycle its translation completes.
    constexpr Cycles kRs = 2000;
    auto storeP = [&] {
        m.issueStoreP(line + 8, kRs);
        return m.now() + kRs;
    };
    // Cycles a pointer load at @p va waited beyond its own access.
    auto wait = [&](SimAddr va) {
        const Cycles before = m.now();
        const Cycles lat = m.ptrLoad(va);
        return m.now() - before - lat;
    };

    // Store-queue forwarding covers the first two dependent loads;
    // the third waits for exactly the rest of the translation.
    storeP();
    EXPECT_EQ(wait(line), 0u);
    storeP();
    EXPECT_EQ(wait(line + 16), 0u);
    Cycles ready = storeP();
    m.tick(123);
    EXPECT_EQ(ready - m.now(), kRs - 123);
    EXPECT_EQ(wait(line + 56), kRs - 123);

    // A load after the storeP completed neither waits nor uses up a
    // forwarding slot: the next two dependent loads are forwarded.
    m.issueStoreP(line, 5);
    m.tick(100);
    EXPECT_EQ(wait(line), 0u);
    storeP();
    EXPECT_EQ(wait(line), 0u);
    storeP();
    EXPECT_EQ(wait(line), 0u);

    // Loads to other lines neither wait nor consume the pending
    // entry, which also survives flushAll() and resetAllStats().
    ready = storeP();
    EXPECT_EQ(wait(line - 8), 0u);
    EXPECT_EQ(wait(line + 64), 0u);
    m.flushAll();
    m.resetAllStats();
    const Cycles left = ready - m.now();
    EXPECT_GT(left, 0u);
    EXPECT_EQ(wait(line), left);

    // A storeP without a translation leaves nothing pending.
    for (int i = 0; i < 3; ++i) {
        m.issueStoreP(line, 0);
        EXPECT_EQ(wait(line), 0u);
    }
}

TEST_F(MachineTest, BranchChargesPenaltyOnMiss)
{
    Machine m(params, mgr);
    // Train then measure a predictable branch.
    for (int i = 0; i < 64; ++i)
        m.branch(9, true);
    const Cycles before = m.now();
    m.branch(9, true);
    EXPECT_EQ(m.now() - before, 1u); // predicted: 1 cycle
}

TEST_F(MachineTest, ResetAllStatsKeepsWarmState)
{
    Machine m(params, mgr);
    m.memAccess(0x4000, false, Machine::AccessKind::Load);
    chargedRa2va(m, pool, 0);
    m.resetAllStats();

    EXPECT_EQ(m.memAccesses(), 0u);
    EXPECT_EQ(m.polb().accesses(), 0u);
    EXPECT_EQ(m.bpred().branches(), 0u);

    // But the microarchitectural state is still warm: the same line
    // hits L1 and the same pool ID hits the POLB.
    const Cycles lat = m.memAccess(0x4000, false,
                                   Machine::AccessKind::Load);
    EXPECT_EQ(lat, params.l1TlbLatency + params.l1Latency);
    const Cycles before = m.now();
    chargedRa2va(m, pool, 8);
    EXPECT_EQ(m.now() - before, params.polbHitLatency);
}

TEST_F(MachineTest, FlushAllForcesColdAccesses)
{
    Machine m(params, mgr);
    m.memAccess(0x5000, false, Machine::AccessKind::Load);
    m.flushAll();
    const Cycles lat = m.memAccess(0x5000, false,
                                   Machine::AccessKind::Load);
    EXPECT_GT(lat, params.l1TlbLatency + params.l1Latency);
}
