/** @file Parameterized semantics tests for the UPR runtime: the
 * Fig 3/4 behaviours must hold identically under every version, while
 * the stored pointer *formats* must be canonical per medium. */

#include <gtest/gtest.h>

#include <set>

#include "core/runtime.hh"
#include "obs/metrics.hh"

using namespace upr;

namespace
{

Runtime::Config
makeConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.placement = Placement::Randomized;
    cfg.seed = 77;
    return cfg;
}

} // namespace

/** Fixture instantiated for all four versions. */
class RuntimeSemantics : public ::testing::TestWithParam<Version>
{
  protected:
    RuntimeSemantics() : rt(makeConfig(GetParam()))
    {
        pool = rt.createPool("tp", 1 << 20);
    }

    bool volatileVersion() const
    {
        return GetParam() == Version::Volatile;
    }

    Runtime rt;
    PoolId pool;
};

TEST_P(RuntimeSemantics, PmallocFormMatchesVersion)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    if (volatileVersion()) {
        EXPECT_EQ(PtrRepr::determineY(p), PtrForm::VirtualDram);
    } else {
        EXPECT_EQ(PtrRepr::determineY(p), PtrForm::Relative);
        EXPECT_EQ(PtrRepr::poolOf(p), pool);
    }
}

TEST_P(RuntimeSemantics, ResolveGivesUsableAddress)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    const SimAddr va = rt.resolveForAccess(p, 1);
    rt.storeData<std::uint64_t>(va, 0xBEEF);
    EXPECT_EQ(rt.loadData<std::uint64_t>(va), 0xBEEFULL);
    if (!volatileVersion()) {
        EXPECT_TRUE(Layout::isNvm(va));
    }
}

TEST_P(RuntimeSemantics, NullDereferenceFaults)
{
    EXPECT_THROW(rt.resolveForAccess(0, 1), Fault);
}

TEST_P(RuntimeSemantics, StorePtrIntoNvmKeepsRelativeFormat)
{
    if (volatileVersion())
        GTEST_SKIP() << "no NVM under Volatile";

    const PtrBits obj = rt.pmallocBits(pool, 64);
    const PtrBits target = rt.pmallocBits(pool, 64);
    const SimAddr obj_va = rt.resolveForAccess(obj, 1);

    // Store the *relative* pointer: stays relative.
    rt.storePtr(obj_va, target, 2);
    PtrBits stored = rt.space().read<PtrBits>(obj_va);
    EXPECT_EQ(PtrRepr::determineY(stored), PtrForm::Relative);
    EXPECT_EQ(stored, target);

    // Store the *virtual* form of the same pointer: converted back
    // to the canonical relative format (paper soundness check).
    // Not applicable to Explicit, whose API only ever stores IDs.
    if (GetParam() == Version::Explicit)
        return;
    const SimAddr target_va = rt.resolveForAccess(target, 3);
    rt.storePtr(obj_va, PtrRepr::fromVa(target_va), 4);
    stored = rt.space().read<PtrBits>(obj_va);
    EXPECT_EQ(PtrRepr::determineY(stored), PtrForm::Relative);
    EXPECT_EQ(stored, target);
}

TEST_P(RuntimeSemantics, StorePtrIntoDramConvertsToVirtual)
{
    if (volatileVersion())
        GTEST_SKIP();
    if (GetParam() == Version::Explicit)
        GTEST_SKIP() << "explicit API keeps object IDs everywhere";

    const PtrBits target = rt.pmallocBits(pool, 64);
    const SimAddr slot = rt.mallocBytes(8);

    rt.storePtr(slot, target, 5);
    const PtrBits stored = rt.space().read<PtrBits>(slot);
    EXPECT_EQ(PtrRepr::determineY(stored), PtrForm::VirtualNvm);
    EXPECT_EQ(PtrRepr::toVa(stored), rt.resolveForAccess(target, 6));
}

TEST_P(RuntimeSemantics, StoredPointerSurvivesRelocation)
{
    if (volatileVersion())
        GTEST_SKIP();

    // Build: objA.ptr -> objB, objB.value = 123, root = objA.
    const PtrBits a = rt.pmallocBits(pool, 64);
    const PtrBits b = rt.pmallocBits(pool, 64);
    rt.storePtr(rt.resolveForAccess(a, 1), b, 2);
    rt.storeData<std::uint64_t>(rt.resolveForAccess(b, 3), 123);

    // Detach and reopen: the pool moves to a fresh address.
    const SimAddr base1 = rt.pools().baseOf(pool);
    rt.pools().detach(pool);
    rt.pools().openPool("tp");
    EXPECT_NE(rt.pools().baseOf(pool), base1);

    // The stored relative pointer still reaches objB.
    const PtrBits loaded =
        rt.loadPtr(rt.resolveForAccess(a, 4));
    EXPECT_EQ(PtrRepr::determineY(loaded), PtrForm::Relative);
    const SimAddr b_va = rt.resolveForAccess(loaded, 5);
    EXPECT_EQ(rt.loadData<std::uint64_t>(b_va), 123u);
}

TEST_P(RuntimeSemantics, DetachedPoolDereferenceFaults)
{
    if (volatileVersion())
        GTEST_SKIP();

    const PtrBits p = rt.pmallocBits(pool, 64);
    rt.pools().detach(pool);
    // Fig 10: ra2va on a detached pool faults rather than silently
    // using a stale translation.
    try {
        rt.resolveForAccess(p, 1);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolDetached);
    }
}

TEST_P(RuntimeSemantics, EqualityNormalizesForms)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    const PtrBits q = rt.pmallocBits(pool, 64);
    EXPECT_TRUE(rt.ptrEq(p, p, 1));
    EXPECT_FALSE(rt.ptrEq(p, q, 2));
    EXPECT_FALSE(rt.ptrEq(p, 0, 3));
    EXPECT_TRUE(rt.ptrEq(0, 0, 4));

    if (!volatileVersion() && GetParam() != Version::Explicit) {
        // The relative and virtual forms of one object are equal.
        const SimAddr va = rt.resolveForAccess(p, 5);
        EXPECT_TRUE(rt.ptrEq(p, PtrRepr::fromVa(va), 6));
    }
}

TEST_P(RuntimeSemantics, OrderingMatchesAllocationLayout)
{
    const PtrBits arr = rt.pmallocBits(pool, 256);
    const PtrBits mid = rt.ptrAddBytes(arr, 128, 1);
    EXPECT_TRUE(rt.ptrLt(arr, mid, 2));
    EXPECT_FALSE(rt.ptrLt(mid, arr, 3));
    EXPECT_FALSE(rt.ptrLt(arr, arr, 4));
}

TEST_P(RuntimeSemantics, ArithmeticAndDifference)
{
    const PtrBits arr = rt.pmallocBits(pool, 256);
    const PtrBits p16 = rt.ptrAddBytes(arr, 16, 1);
    const PtrBits p16b = rt.ptrAddBytes(p16, 0, 2);
    EXPECT_TRUE(rt.ptrEq(p16, p16b, 3));
    EXPECT_EQ(rt.ptrDiffBytes(p16, arr, 4), 16);
    EXPECT_EQ(rt.ptrDiffBytes(arr, p16, 5), -16);

    // The element reached by arithmetic is the right memory.
    rt.storeData<std::uint8_t>(rt.resolveForAccess(p16, 6), 0x5A);
    const SimAddr arr_va = rt.resolveForAccess(arr, 7);
    EXPECT_EQ(rt.space().read<std::uint8_t>(arr_va + 16), 0x5A);
}

TEST_P(RuntimeSemantics, PtrToIntYieldsVirtualAddress)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    const std::uint64_t i = rt.ptrToInt(p, 1);
    // (I)p must produce the virtual address, whatever the storage
    // form (Fig 4 cast rows).
    EXPECT_EQ(i, rt.resolveForAccess(p, 2));
    // And (T*)i round-trips to a usable pointer.
    const PtrBits back = rt.intToPtr(i);
    rt.storeData<std::uint32_t>(rt.resolveForAccess(back, 3), 7);
}

TEST_P(RuntimeSemantics, CountersBehavePerVersion)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    rt.resetCounters();
    rt.resolveForAccess(p, 1);
    switch (GetParam()) {
      case Version::Volatile:
        EXPECT_EQ(rt.dynamicChecks(), 0u);
        EXPECT_EQ(rt.relToAbs(), 0u);
        break;
      case Version::Sw:
        EXPECT_EQ(rt.dynamicChecks(), 1u);
        EXPECT_EQ(rt.relToAbs(), 1u);
        break;
      case Version::Hw:
      case Version::Explicit:
        EXPECT_EQ(rt.dynamicChecks(), 0u);
        EXPECT_EQ(rt.relToAbs(), 1u);
        break;
    }
}

TEST_P(RuntimeSemantics, VolatileHeapPointersAlwaysVirtualDram)
{
    const SimAddr p = rt.mallocBytes(32);
    EXPECT_EQ(PtrRepr::determineY(PtrRepr::fromVa(p)),
              PtrForm::VirtualDram);
    rt.storeData<int>(p, -5);
    EXPECT_EQ(rt.loadData<int>(p), -5);
    rt.freeBytes(p);
}

TEST_P(RuntimeSemantics, PfreeWorksOnCanonicalPointer)
{
    const PtrBits p = rt.pmallocBits(pool, 64);
    EXPECT_NO_THROW(rt.pfreeBits(p));
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, RuntimeSemantics,
    ::testing::Values(Version::Volatile, Version::Sw, Version::Hw,
                      Version::Explicit),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

// ---------------------------------------------------------------------
// Version-specific behaviours
// ---------------------------------------------------------------------

TEST(RuntimeHw, ConversionReuseSkipsTranslations)
{
    Runtime rt(makeConfig(Version::Hw));
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);

    rt.resetCounters();
    rt.resolveForAccess(p, 1);
    rt.resolveForAccess(p, 1);
    rt.resolveForAccess(p, 1);
    // Only the first resolve translates; the rest reuse (Fig 12).
    EXPECT_EQ(rt.relToAbs(), 1u);
}

TEST(RuntimeHw, PmallocDoesNoSoftwareTranslation)
{
    // pmallocBits builds the relative pointer from the pool base: no
    // software va2ra happens, so none may be counted.
    Runtime rt(makeConfig(Version::Hw));
    const PoolId pool = rt.createPool("p", 1 << 20);
    auto &reg = obs::MetricsRegistry::instance();
    const obs::MetricsSnapshot before = reg.snapshot();
    std::set<PoolOffset> offsets;
    for (int i = 0; i < 16; ++i) {
        const PtrBits p = rt.pmallocBits(pool, 64);
        ASSERT_EQ(PtrRepr::poolOf(p), pool);
        offsets.insert(PtrRepr::offsetOf(p));
    }
    const obs::MetricsSnapshot d = reg.snapshot().minus(before);
    EXPECT_EQ(offsets.size(), 16u);
    ASSERT_EQ(d.counters.count("pools.va2ra"), 1u);
    EXPECT_EQ(d.counters.at("pools.va2ra"), 0u);
}

TEST(RuntimeHw, ReuseDisabledTranslatesEveryTime)
{
    Runtime::Config cfg = makeConfig(Version::Hw);
    cfg.hwConversionReuse = false;
    Runtime rt(cfg);
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);

    rt.resetCounters();
    rt.resolveForAccess(p, 1);
    rt.resolveForAccess(p, 1);
    rt.resolveForAccess(p, 1);
    EXPECT_EQ(rt.relToAbs(), 3u);
}

TEST(RuntimeHw, ReuseInvalidatedByPoolEpoch)
{
    Runtime rt(makeConfig(Version::Hw));
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);

    const SimAddr va1 = rt.resolveForAccess(p, 1);
    rt.pools().detach(pool);
    rt.pools().openPool("p");
    // Stale cached translation must not be reused after relocation.
    const SimAddr va2 = rt.resolveForAccess(p, 1);
    EXPECT_NE(va1, va2);
    EXPECT_EQ(va2, rt.pools().baseOf(pool) +
                   PtrRepr::offsetOf(p));
}

TEST(RuntimeExplicit, NoReuseEver)
{
    Runtime rt(makeConfig(Version::Explicit));
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);

    rt.resetCounters();
    for (int i = 0; i < 10; ++i)
        rt.resolveForAccess(p, 1);
    EXPECT_EQ(rt.relToAbs(), 10u);
}

TEST(RuntimeSw, ChecksFeedBranchPredictor)
{
    Runtime rt(makeConfig(Version::Sw));
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);
    const SimAddr v = rt.mallocBytes(64);

    const auto before = rt.machine().bpred().branches();
    rt.resolveForAccess(p, 1);
    rt.resolveForAccess(PtrRepr::fromVa(v), 1);
    // Two determineY check branches, plus the software conversion's
    // pool-lookup branches for the relative pointer.
    EXPECT_EQ(rt.machine().bpred().branches() - before,
              2u + rt.config().machine.swConvertBranches);
}

TEST(RuntimeStrictStoreP, DramPointerIntoNvmFaults)
{
    for (Version v : {Version::Sw, Version::Hw}) {
        Runtime::Config cfg = makeConfig(v);
        cfg.strictStoreP = true;
        Runtime rt(cfg);
        const PoolId pool = rt.createPool("p", 1 << 20);
        const PtrBits obj = rt.pmallocBits(pool, 64);
        const SimAddr heap_obj = rt.mallocBytes(16);
        const SimAddr obj_va = rt.resolveForAccess(obj, 1);
        try {
            rt.storePtr(obj_va, PtrRepr::fromVa(heap_obj), 2);
            FAIL() << versionName(v);
        } catch (const Fault &f) {
            EXPECT_EQ(f.kind(), FaultKind::StorePFault);
        }
    }
}

TEST(RuntimeLenientStoreP, DramPointerIntoNvmStoredRaw)
{
    Runtime rt(makeConfig(Version::Hw));
    const PoolId pool = rt.createPool("p", 1 << 20);
    const PtrBits obj = rt.pmallocBits(pool, 64);
    const SimAddr heap_obj = rt.mallocBytes(16);
    const SimAddr obj_va = rt.resolveForAccess(obj, 1);
    rt.storePtr(obj_va, PtrRepr::fromVa(heap_obj), 2);
    EXPECT_EQ(rt.space().read<PtrBits>(obj_va),
              PtrRepr::fromVa(heap_obj));
}

TEST(RuntimeTiming, SwSlowerThanHwOnPointerChasing)
{
    // A microscopic preview of Fig 11: chase one persistent pointer
    // chain under SW and HW; SW must burn more cycles.
    auto run = [](Version v) {
        Runtime rt(makeConfig(v));
        const PoolId pool = rt.createPool("p", 4 << 20);
        // Chain of 1000 nodes: node[i].next = node[i+1].
        PtrBits first = rt.pmallocBits(pool, 16);
        PtrBits prev = first;
        for (int i = 1; i < 1000; ++i) {
            PtrBits n = rt.pmallocBits(pool, 16);
            rt.storePtr(rt.resolveForAccess(prev, 1), n, 2);
            prev = n;
        }
        rt.storePtr(rt.resolveForAccess(prev, 1), 0, 2);
        const Cycles start = rt.machine().now();
        PtrBits cur = first;
        while (cur != 0)
            cur = rt.loadPtr(rt.resolveForAccess(cur, 3));
        return rt.machine().now() - start;
    };
    EXPECT_GT(run(Version::Sw), run(Version::Hw));
}
