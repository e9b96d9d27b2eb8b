/** @file Unit tests for the tagged pointer representation (Fig 2). */

#include <gtest/gtest.h>

#include "core/pointer_repr.hh"

using namespace upr;

TEST(PtrRepr, RelativeEncodeDecodeRoundTrip)
{
    const PtrBits p = PtrRepr::makeRelative(5, 0x1234);
    EXPECT_TRUE(PtrRepr::isRelative(p));
    EXPECT_EQ(PtrRepr::poolOf(p), 5u);
    EXPECT_EQ(PtrRepr::offsetOf(p), 0x1234u);
    EXPECT_EQ(PtrRepr::determineY(p), PtrForm::Relative);
}

TEST(PtrRepr, MaxFieldsRoundTrip)
{
    const PoolId max_pool = kMaxPoolId;
    const PoolOffset max_off = 0xffffffffU;
    const PtrBits p = PtrRepr::makeRelative(max_pool, max_off);
    EXPECT_EQ(PtrRepr::poolOf(p), max_pool);
    EXPECT_EQ(PtrRepr::offsetOf(p), max_off);
}

TEST(PtrRepr, PoolIdZeroAndOverflowRejected)
{
    EXPECT_DEATH(PtrRepr::makeRelative(0, 0), "not encodable");
    EXPECT_DEATH(PtrRepr::makeRelative(kMaxPoolId + 1, 0),
                 "not encodable");
}

TEST(PtrRepr, DetermineYClassifiesVirtualForms)
{
    EXPECT_EQ(PtrRepr::determineY(0x1000), PtrForm::VirtualDram);
    EXPECT_EQ(PtrRepr::determineY(Layout::kNvmBase + 0x1000),
              PtrForm::VirtualNvm);
    const PtrBits rel = PtrRepr::makeRelative(1, 0);
    EXPECT_EQ(PtrRepr::determineY(rel), PtrForm::Relative);
}

TEST(PtrRepr, DetermineXChecksBit47)
{
    EXPECT_EQ(PtrRepr::determineX(0x1000), LocKind::Dram);
    EXPECT_EQ(PtrRepr::determineX(Layout::kNvmBase), LocKind::Nvm);
    EXPECT_EQ(PtrRepr::determineX(Layout::kNvmBase - 1), LocKind::Dram);
}

TEST(PtrRepr, NullIsAllZeros)
{
    EXPECT_TRUE(PtrRepr::isNull(0));
    EXPECT_FALSE(PtrRepr::isNull(1));
    EXPECT_FALSE(PtrRepr::isNull(PtrRepr::makeRelative(1, 0)));
}

TEST(PtrRepr, VaPassThrough)
{
    EXPECT_EQ(PtrRepr::fromVa(0xABCD), 0xABCDULL);
    EXPECT_EQ(PtrRepr::toVa(0xABCD), 0xABCDULL);
    EXPECT_DEATH(PtrRepr::fromVa(1ULL << 48), "exceeds 48 bits");
}

TEST(PtrRepr, AddBytesOnVirtual)
{
    EXPECT_EQ(PtrRepr::addBytes(0x1000, 16), 0x1010ULL);
    EXPECT_EQ(PtrRepr::addBytes(0x1000, -16), 0xFF0ULL);
}

TEST(PtrRepr, AddBytesOnRelativeStaysRelative)
{
    const PtrBits p = PtrRepr::makeRelative(3, 0x100);
    const PtrBits q = PtrRepr::addBytes(p, 0x20);
    EXPECT_TRUE(PtrRepr::isRelative(q));
    EXPECT_EQ(PtrRepr::poolOf(q), 3u);
    EXPECT_EQ(PtrRepr::offsetOf(q), 0x120u);
    const PtrBits r = PtrRepr::addBytes(q, -0x120);
    EXPECT_EQ(PtrRepr::offsetOf(r), 0u);
}

TEST(PtrRepr, AddBytesOverflowingOffsetPanics)
{
    const PtrBits p = PtrRepr::makeRelative(3, 0xffffffffU);
    EXPECT_DEATH(PtrRepr::addBytes(p, 1), "overflows");
    const PtrBits q = PtrRepr::makeRelative(3, 0);
    EXPECT_DEATH(PtrRepr::addBytes(q, -1), "overflows");
}

TEST(PtrRepr, RelativeAndVaBitsNeverCollide)
{
    // Any valid VA has bit 63 clear; any relative has it set.
    const PtrBits rel = PtrRepr::makeRelative(1, 0);
    EXPECT_NE(rel & (1ULL << 63), 0u);
    EXPECT_EQ(PtrRepr::fromVa(Layout::kVaEnd - 1) & (1ULL << 63), 0u);
}
