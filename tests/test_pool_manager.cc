/** @file Unit tests for the pool manager: attach, detach, relocation,
 * translation faults, and host-file image persistence. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "nvm/pool_manager.hh"
#include "pool_image.hh"
#include "temp_path.hh"

using namespace upr;

class PoolManagerTest : public ::testing::Test
{
  protected:
    AddressSpace space;
    PoolManager mgr{space, Placement::Randomized, 1234};
};

TEST_F(PoolManagerTest, CreateAttachesInNvmHalf)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);
    EXPECT_TRUE(mgr.isAttached(id));
    const SimAddr base = mgr.baseOf(id);
    EXPECT_TRUE(Layout::isNvm(base));
    EXPECT_TRUE(space.isMapped(base, 1 << 20));
}

TEST_F(PoolManagerTest, DuplicateNameRejected)
{
    mgr.createPool("p0", 1 << 20);
    EXPECT_THROW(mgr.createPool("p0", 1 << 20), Fault);
}

TEST_F(PoolManagerTest, Ra2VaAndBack)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);
    const SimAddr va = mgr.ra2va(id, 0x400);
    EXPECT_EQ(va, mgr.baseOf(id) + 0x400);
    const auto [rid, roff] = mgr.va2ra(va);
    EXPECT_EQ(rid, id);
    EXPECT_EQ(roff, 0x400u);
}

TEST_F(PoolManagerTest, Ra2VaFaultKinds)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);

    // Unknown pool.
    try {
        mgr.ra2va(id + 100, 0);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadRelativeAddress);
    }

    // Offset out of pool.
    try {
        mgr.ra2va(id, 1 << 20);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::OffsetOutOfPool);
    }

    // Detached pool (the Fig 10 scenario).
    mgr.detach(id);
    try {
        mgr.ra2va(id, 0);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolDetached);
    }
}

TEST_F(PoolManagerTest, Va2RaOutsidePoolsThrows)
{
    mgr.createPool("p0", 1 << 20);
    EXPECT_THROW(mgr.va2ra(0x1000), Fault);
    EXPECT_THROW(mgr.va2ra(Layout::kNvmBase + 1), Fault);
}

TEST_F(PoolManagerTest, ReopenRelocatesButKeepsContents)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);
    const SimAddr base1 = mgr.baseOf(id);
    const PoolOffset off = mgr.pool(id).header().arenaStart;
    space.write<std::uint64_t>(base1 + off, 0x1337);

    mgr.detach(id);
    EXPECT_FALSE(mgr.isAttached(id));
    const PoolId id2 = mgr.openPool("p0");
    EXPECT_EQ(id2, id);
    const SimAddr base2 = mgr.baseOf(id);

    // Randomized placement: new address, same contents.
    EXPECT_NE(base1, base2);
    EXPECT_EQ(space.read<std::uint64_t>(base2 + off), 0x1337u);
}

TEST_F(PoolManagerTest, SequentialPlacementIsDeterministic)
{
    AddressSpace s1, s2;
    PoolManager m1(s1, Placement::Sequential);
    PoolManager m2(s2, Placement::Sequential);
    const PoolId a = m1.createPool("x", 1 << 20);
    const PoolId b = m2.createPool("x", 1 << 20);
    EXPECT_EQ(m1.baseOf(a), m2.baseOf(b));
}

TEST_F(PoolManagerTest, EpochBumpsOnAttachDetach)
{
    const auto e0 = mgr.epoch();
    const PoolId id = mgr.createPool("p0", 1 << 20);
    EXPECT_GT(mgr.epoch(), e0);
    const auto e1 = mgr.epoch();
    mgr.detach(id);
    EXPECT_GT(mgr.epoch(), e1);
}

TEST_F(PoolManagerTest, PmallocReturnsUsableVa)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);
    const SimAddr va = mgr.pmalloc(id, 256);
    EXPECT_TRUE(Layout::isNvm(va));
    space.write<std::uint64_t>(va, 99);
    EXPECT_EQ(space.read<std::uint64_t>(va), 99u);
    mgr.pfree(va);
}

TEST_F(PoolManagerTest, PmallocOnDetachedPoolFaults)
{
    const PoolId id = mgr.createPool("p0", 1 << 20);
    mgr.detach(id);
    EXPECT_THROW(mgr.pmalloc(id, 16), Fault);
}

TEST_F(PoolManagerTest, AttachedRangesReflectState)
{
    const PoolId a = mgr.createPool("a", 1 << 20);
    const PoolId b = mgr.createPool("b", 1 << 20);
    auto ranges = mgr.attachedRanges();
    ASSERT_EQ(ranges.size(), 2u);
    mgr.detach(a);
    ranges = mgr.attachedRanges();
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].id, b);
}

TEST_F(PoolManagerTest, DestroyRemovesEverything)
{
    const PoolId id = mgr.createPool("gone", 1 << 20);
    mgr.destroy(id);
    EXPECT_FALSE(mgr.exists(id));
    // The name is free again.
    EXPECT_NO_THROW(mgr.createPool("gone", 1 << 20));
}

TEST_F(PoolManagerTest, SaveAndLoadImageAcrossManagers)
{
    const PoolId id = mgr.createPool("persist-me", 1 << 20);
    const SimAddr va = mgr.pmalloc(id, 128);
    space.write<std::uint64_t>(va, 0xABCDE);
    const PoolOffset off = mgr.va2ra(va).second;

    const std::string path = test::tempPath("pool.img");
    mgr.saveImage(id, path);

    // A brand new "machine/process".
    AddressSpace space2;
    PoolManager mgr2(space2, Placement::Randomized, 999);
    const PoolId id2 = mgr2.loadImage(path, "reopened");
    EXPECT_EQ(id2, id); // pool IDs are system-wide and persistent
    const SimAddr va2 = mgr2.ra2va(id2, off);
    EXPECT_EQ(space2.read<std::uint64_t>(va2), 0xABCDEu);

    std::remove(path.c_str());
}

TEST_F(PoolManagerTest, LoadImageRejectsGarbage)
{
    const std::string path = test::tempPath("garbage.img");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a pool image", f);
    std::fclose(f);
    EXPECT_THROW(mgr.loadImage(path, "bad"), Fault);
    std::remove(path.c_str());
}

TEST_F(PoolManagerTest, AdoptRejectsPoolIdPastRelativePointerField)
{
    // Relative pointers hold 31 bits of pool ID: an image naming a
    // larger one is corrupt, not a pool whose first pmalloc aborts.
    try {
        mgr.adoptImage(test::imageWithPoolId(kMaxPoolId + 1), "big");
        FAIL() << "expected Fault{CorruptPool}";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::CorruptPool);
    }
    EXPECT_EQ(mgr.idByName("big"), 0u);
}

TEST_F(PoolManagerTest, OpenResilientRejectsPoolIdPastRelativePointerField)
{
    const ResilientOpenReport rep =
        mgr.openResilient(test::imageWithPoolId(0x80000000u), "big");
    EXPECT_EQ(rep.outcome, OpenOutcome::Rejected);
    EXPECT_EQ(rep.id, 0u);
    EXPECT_EQ(rep.diagnosis, FaultKind::CorruptPool);
}

TEST_F(PoolManagerTest, CreatePoolThrowsOnceIdsRunOut)
{
    const PoolId last =
        mgr.adoptImage(test::imageWithPoolId(kMaxPoolId), "last");
    EXPECT_EQ(last, kMaxPoolId);
    EXPECT_EQ(mgr.ra2va(last, 64), mgr.baseOf(last) + 64);
    try {
        mgr.createPool("next", 1 << 20);
        FAIL() << "expected Fault{BadUsage}";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadUsage);
    }
    EXPECT_EQ(mgr.idByName("next"), 0u);
}
