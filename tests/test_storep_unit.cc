/** @file Unit tests for the storeP FSM-buffer occupancy model. */

#include <gtest/gtest.h>

#include "arch/storep_unit.hh"

using namespace upr;

TEST(StorePUnit, IssueCostIsOneCycleWhenFree)
{
    MachineParams p;
    StorePUnit u(p);
    EXPECT_EQ(u.issue(0, 30, 0), p.storePIssueLatency);
    EXPECT_EQ(u.stallCycles(), 0u);
    EXPECT_EQ(u.issuedCount(), 1u);
}

TEST(StorePUnit, TranslationLatencyHiddenInBuffer)
{
    MachineParams p;
    p.storePFsmEntries = 1;
    StorePUnit u(p);
    // Even a huge translation latency costs the pipeline one cycle...
    EXPECT_EQ(u.issue(0, 500, 0), p.storePIssueLatency);
    // ...but the entry stays busy until it completes: a storeP
    // issued before then waits for it, one issued at it does not.
    const Cycles done = p.storePIssueLatency + 500;
    EXPECT_EQ(u.issue(100, 0, 0), p.storePIssueLatency + (done - 100));
    StorePUnit later(p);
    later.issue(0, 500, 0);
    EXPECT_EQ(later.issue(done, 0, 0), p.storePIssueLatency);
}

TEST(StorePUnit, RsAndRdTranslateConcurrently)
{
    MachineParams p;
    p.storePFsmEntries = 1;
    // Entry frees at issue + max(40, 10), not the sum.
    const Cycles done = p.storePIssueLatency + 40;
    StorePUnit u(p);
    u.issue(0, 40, 10);
    EXPECT_EQ(u.issue(done - 1, 0, 0), p.storePIssueLatency + 1);
    StorePUnit later(p);
    later.issue(0, 40, 10);
    EXPECT_EQ(later.issue(done, 0, 0), p.storePIssueLatency);
}

TEST(StorePUnit, FullBufferStalls)
{
    MachineParams p;
    p.storePFsmEntries = 2;
    StorePUnit u(p);
    // Two long-latency storePs occupy both entries.
    u.issue(0, 100, 0);
    u.issue(0, 100, 0);
    // Third at cycle 0 must stall until the earliest completion.
    const Cycles cost = u.issue(0, 0, 0);
    EXPECT_GT(cost, p.storePIssueLatency);
    EXPECT_GT(u.stallCycles(), 0u);
}

TEST(StorePUnit, NoStallWhenIssuedAfterCompletion)
{
    MachineParams p;
    p.storePFsmEntries = 1;
    StorePUnit u(p);
    u.issue(0, 10, 0);
    // Issue well after the previous completion: no stall.
    EXPECT_EQ(u.issue(100, 10, 0), p.storePIssueLatency);
    EXPECT_EQ(u.stallCycles(), 0u);
}

TEST(StorePUnit, ManyZeroLatencyStorePsNeverStall)
{
    MachineParams p;
    StorePUnit u(p);
    Cycles now = 0;
    for (int i = 0; i < 1000; ++i)
        now += u.issue(now, 0, 0);
    EXPECT_EQ(u.stallCycles(), 0u);
    EXPECT_EQ(u.issuedCount(), 1000u);
}
