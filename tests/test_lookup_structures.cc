/**
 * @file
 * Targeted tests for the flat lookup structures behind the hot paths:
 * the AddressSpace sorted-vector + MRU region cache (also the VA ->
 * pool index behind PoolManager::va2ra) and PoolManager's one-entry
 * ra2va memo. Both are caches over authoritative state, so the main
 * hazards are stale MRU entries after map/unmap and a stale memo
 * across detach/re-attach -- plus plain binary-search bugs. A
 * randomized model check compares every answer against a naive
 * reference.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.hh"
#include "mem/address_space.hh"
#include "nvm/pool_manager.hh"
#include "pool_image.hh"

using namespace upr;

namespace
{

class FlatAddressSpace : public ::testing::Test
{
  protected:
    AddressSpace space;
    Backing backing{1 << 20};
};

TEST_F(FlatAddressSpace, AdjacentRegionsDoNotMerge)
{
    space.map(0x10000, 0x1000, backing, 0, "a");
    space.map(0x11000, 0x1000, backing, 0x1000, "b"); // touches a
    space.map(0x12000, 0x1000, backing, 0x2000, "c"); // touches b

    EXPECT_EQ(space.regionName(0x10fff), "a");
    EXPECT_EQ(space.regionName(0x11000), "b");
    EXPECT_EQ(space.regionName(0x11fff), "b");
    EXPECT_EQ(space.regionName(0x12000), "c");
    EXPECT_EQ(space.regionCount(), 3u);
}

TEST_F(FlatAddressSpace, OverlapRejectedInEveryPosition)
{
    space.map(0x20000, 0x2000, backing, 0, "mid");

    // Tail overlap, head overlap, contained, containing, exact dup.
    EXPECT_THROW(space.map(0x1f000, 0x1001, backing, 0, "t"), Fault);
    EXPECT_THROW(space.map(0x21fff, 0x1000, backing, 0, "h"), Fault);
    EXPECT_THROW(space.map(0x20800, 0x100, backing, 0, "in"), Fault);
    EXPECT_THROW(space.map(0x1f000, 0x4000, backing, 0, "out"), Fault);
    EXPECT_THROW(space.map(0x20000, 0x2000, backing, 0, "dup"), Fault);
    EXPECT_EQ(space.regionCount(), 1u);

    // Abutting on both sides is legal.
    space.map(0x1f000, 0x1000, backing, 0, "lo");
    space.map(0x22000, 0x1000, backing, 0, "hi");
    EXPECT_EQ(space.regionCount(), 3u);
}

TEST_F(FlatAddressSpace, MruInvalidatedByUnmap)
{
    space.map(0x30000, 0x1000, backing, 0, "a");
    space.map(0x40000, 0x1000, backing, 0x1000, "b");

    // Prime the MRU slot on "a", then unmap it. A stale MRU index
    // must not keep answering for the dead region (or, after the
    // vector shifts, misattribute addresses to "b").
    space.write<std::uint32_t>(0x30010, 7);
    EXPECT_EQ(space.regionName(0x30010), "a");
    space.unmap(0x30000);

    EXPECT_FALSE(space.isMapped(0x30010));
    EXPECT_THROW(space.read<std::uint32_t>(0x30010), Fault);
    EXPECT_EQ(space.regionName(0x40010), "b");
}

TEST_F(FlatAddressSpace, MruInvalidatedByMapShift)
{
    space.map(0x50000, 0x1000, backing, 0, "b");
    EXPECT_EQ(space.regionName(0x50010), "b"); // MRU -> index 0

    // Insert a region *before* "b": indices shift right by one.
    space.map(0x48000, 0x1000, backing, 0x1000, "a");
    EXPECT_EQ(space.regionName(0x50010), "b");
    EXPECT_EQ(space.regionName(0x48010), "a");
}

TEST_F(FlatAddressSpace, RandomizedAgainstReferenceModel)
{
    // Reference: base -> (size, name) in a std::map, linear checks.
    std::map<SimAddr, std::pair<Bytes, std::string>> model;
    Rng rng(0xA11CE);

    const auto modelFind = [&](SimAddr a) -> std::string {
        for (const auto &[base, sn] : model)
            if (a - base < sn.first)
                return sn.second;
        return std::string();
    };
    const auto modelOverlaps = [&](SimAddr b, Bytes s) {
        for (const auto &[base, sn] : model)
            if (b < base + sn.first && base < b + s)
                return true;
        return false;
    };

    int mapped = 0;
    for (int step = 0; step < 2000; ++step) {
        const std::uint64_t r = rng.next();
        const SimAddr base =
            0x100000 + (r % 64) * 0x1000; // 64 candidate slots
        const Bytes size = 0x1000 * (1 + (r >> 8) % 3);
        const int op = static_cast<int>((r >> 16) % 8);

        if (op < 3) { // map
            const std::string name = "r" + std::to_string(step);
            if (modelOverlaps(base, size)) {
                EXPECT_THROW(space.map(base, size, backing, 0, name),
                             Fault);
            } else {
                space.map(base, size, backing, 0, name);
                model[base] = {size, name};
                ++mapped;
            }
        } else if (op < 5) { // unmap
            if (model.count(base)) {
                space.unmap(base);
                model.erase(base);
            } else {
                EXPECT_THROW(space.unmap(base), Fault);
            }
        } else { // point queries, including region interiors/edges
            for (int q = 0; q < 4; ++q) {
                const SimAddr a =
                    0x100000 + (rng.next() % (67 * 0x1000));
                ASSERT_EQ(space.regionName(a), modelFind(a))
                    << "step " << step << " va " << std::hex << a;
                ASSERT_EQ(space.isMapped(a), !modelFind(a).empty());
            }
        }
        ASSERT_EQ(space.regionCount(), model.size());
    }
    EXPECT_GT(mapped, 100); // the walk actually exercised map()
}

class PoolSlots : public ::testing::Test
{
  protected:
    AddressSpace space;
    PoolManager mgr{space, Placement::Randomized, 77};
};

TEST_F(PoolSlots, GenerationBumpsOnAttachAndDetach)
{
    EXPECT_EQ(mgr.generationOf(PoolId{42}), 0u); // never seen

    const PoolId id = mgr.createPool("p", 1 << 20);
    const std::uint32_t g0 = mgr.generationOf(id);
    EXPECT_GT(g0, 0u); // createPool attaches

    mgr.detach(id);
    EXPECT_EQ(mgr.generationOf(id), g0 + 1);

    mgr.openPool("p");
    EXPECT_EQ(mgr.generationOf(id), g0 + 2);
}

TEST_F(PoolSlots, HighIdPoolBehavesLikeALowOne)
{
    // Adopted images keep the ID they were saved with, however far it
    // lies above the dense IDs createPool hands out.
    const PoolId low = mgr.createPool("low", 1 << 20);
    const PoolId id =
        mgr.adoptImage(test::imageWithPoolId(70000), "high");
    ASSERT_EQ(id, 70000u);

    const SimAddr va = mgr.pmalloc(id, 64);
    const auto [rid, off] = mgr.va2ra(va);
    EXPECT_EQ(rid, id);
    EXPECT_EQ(mgr.ra2va(id, off), va);
    // Alternate with the low pool: each lookup names its own pool.
    EXPECT_EQ(mgr.ra2va(low, off), mgr.baseOf(low) + off);
    EXPECT_EQ(mgr.ra2va(id, off), va);

    const std::uint32_t g0 = mgr.generationOf(id);
    EXPECT_GT(g0, 0u); // adoption attaches
    mgr.detach(id);
    EXPECT_EQ(mgr.generationOf(id), g0 + 1);
    try {
        mgr.ra2va(id, off);
        FAIL() << "expected Fault{PoolDetached}";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolDetached);
    }
    EXPECT_THROW(mgr.va2ra(va), Fault);

    mgr.openPool("high");
    EXPECT_EQ(mgr.generationOf(id), g0 + 2);
    const SimAddr base = mgr.baseOf(id);
    EXPECT_EQ(mgr.ra2va(id, off), base + off);
    EXPECT_EQ(mgr.va2ra(base + off),
              (std::pair<PoolId, PoolOffset>{id, off}));
}

TEST_F(PoolSlots, DetachReattachCyclesStayCoherent)
{
    const PoolId id = mgr.createPool("cycler", 1 << 20);
    const SimAddr va0 = mgr.pmalloc(id, 64);
    const auto [rid, off] = mgr.va2ra(va0);
    EXPECT_EQ(rid, id);

    SimAddr prev_base = mgr.baseOf(id);
    for (int i = 0; i < 6; ++i) {
        mgr.detach(id);
        // The memo must not serve a translation for a detached pool.
        EXPECT_THROW(mgr.ra2va(id, off), Fault);
        EXPECT_THROW(mgr.va2ra(prev_base + off), Fault);

        mgr.openPool("cycler");
        const SimAddr base = mgr.baseOf(id);
        // Same relative address, new VA after relocation.
        EXPECT_EQ(mgr.ra2va(id, off), base + off);
        EXPECT_EQ(mgr.va2ra(base + off),
                  (std::pair<PoolId, PoolOffset>{id, off}));
        prev_base = base;
    }
}

TEST_F(PoolSlots, DestroyedPoolKeepsFaultingAfterSlotReuse)
{
    const PoolId a = mgr.createPool("a", 1 << 20);
    mgr.ra2va(a, 128); // prime the memo
    mgr.destroy(a);

    EXPECT_FALSE(mgr.exists(a));
    try {
        mgr.ra2va(a, 128);
        FAIL() << "expected Fault";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadRelativeAddress);
    }

    // New pools must not resurrect the destroyed ID's translations.
    const PoolId b = mgr.createPool("b", 1 << 20);
    EXPECT_NE(a, b);
    EXPECT_THROW(mgr.ra2va(a, 128), Fault);
    EXPECT_EQ(mgr.ra2va(b, 128), mgr.baseOf(b) + 128);
}

TEST_F(PoolSlots, Va2RaRandomizedAgainstAttachedRanges)
{
    // Several pools, some detached, then compare va2ra against a
    // linear scan over attachedRanges() for a spray of addresses.
    std::vector<PoolId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(
            mgr.createPool("p" + std::to_string(i), 1 << 18));
    mgr.detach(ids[2]);
    mgr.detach(ids[5]);

    const std::vector<AttachedRange> ranges = mgr.attachedRanges();
    EXPECT_EQ(ranges.size(), 6u);
    for (std::size_t i = 1; i < ranges.size(); ++i)
        EXPECT_LT(ranges[i - 1].base, ranges[i].base); // sorted

    Rng rng(0xBEEF);
    for (int q = 0; q < 4000; ++q) {
        // Mix of in-pool addresses and NVM-half strays.
        SimAddr va;
        if (q % 3 == 0) {
            va = Layout::kNvmBase + rng.next() % (1ULL << 30);
        } else {
            const AttachedRange &r = ranges[rng.next() % ranges.size()];
            va = r.base + rng.next() % r.size;
        }

        const AttachedRange *home = nullptr;
        for (const AttachedRange &r : ranges)
            if (va - r.base < r.size)
                home = &r;

        if (home) {
            const auto [id, off] = mgr.va2ra(va);
            ASSERT_EQ(id, home->id);
            ASSERT_EQ(off, va - home->base);
        } else {
            ASSERT_THROW(mgr.va2ra(va), Fault);
        }
    }
}

} // namespace
