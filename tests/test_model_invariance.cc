/**
 * @file
 * Golden-counter test pinning the simulated model to known-good
 * values. The host-side lookup structures (flat address space, pool
 * slot table, the tombstone-free pending-storeP table with its
 * occupancy bitmap, the single-scan {tag, stamp} set-assoc arrays
 * behind the caches, TLBs and POLB) are pure performance work: they
 * must not move a single simulated cycle or counter. Every (workload, version) cell of the fig11 grid is
 * checked against values captured before those structures landed, at
 * two workload scales so both the tiny and the mid-size code paths
 * are covered.
 *
 * If a deliberate model change makes these fail, recapture with
 * bench_harness and update the tables -- but say so in the commit.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench_common.hh"

namespace upr::bench
{
namespace
{

struct GoldenRow
{
    const char *workload;
    const char *version;
    std::uint64_t cycles;
    std::uint64_t checksum;
    std::uint64_t dynamicChecks;
    std::uint64_t absToRel;
    std::uint64_t relToAbs;
    std::uint64_t memAccesses;
    std::uint64_t branchMisses;
    std::uint64_t reuseHits;
};

// Captured at UPR_BENCH_SCALE=100 (100 records / 1,000 ops; 100 LL
// nodes) from the pre-optimization model.
const GoldenRow kGoldenScale100[] = {
    {"LL", "Volatile", 1114ULL, 16347114079856916887ULL, 0ULL, 0ULL, 0ULL, 201ULL, 1ULL, 0ULL},
    {"LL", "SW", 5229ULL, 16347114079856916887ULL, 201ULL, 0ULL, 201ULL, 201ULL, 38ULL, 0ULL},
    {"LL", "HW", 1214ULL, 16347114079856916887ULL, 0ULL, 0ULL, 100ULL, 201ULL, 1ULL, 1177ULL},
    {"LL", "Explicit", 1717ULL, 16347114079856916887ULL, 0ULL, 0ULL, 201ULL, 201ULL, 1ULL, 0ULL},
    {"Hash", "Volatile", 57759ULL, 559397913414639610ULL, 0ULL, 0ULL, 0ULL, 6699ULL, 571ULL, 0ULL},
    {"Hash", "SW", 222282ULL, 559397913414639610ULL, 8729ULL, 0ULL, 6699ULL, 6699ULL, 3655ULL, 0ULL},
    {"Hash", "HW", 67431ULL, 559397913414639610ULL, 0ULL, 182ULL, 2831ULL, 6699ULL, 571ULL, 6229ULL},
    {"Hash", "Explicit", 84336ULL, 559397913414639610ULL, 0ULL, 0ULL, 6699ULL, 6699ULL, 571ULL, 0ULL},
    {"RB", "Volatile", 145710ULL, 559397913414639610ULL, 0ULL, 0ULL, 0ULL, 16768ULL, 3475ULL, 0ULL},
    {"RB", "SW", 505028ULL, 559397913414639610ULL, 17418ULL, 0ULL, 16912ULL, 16768ULL, 7254ULL, 0ULL},
    {"RB", "HW", 160334ULL, 559397913414639610ULL, 0ULL, 0ULL, 8155ULL, 16768ULL, 3472ULL, 10289ULL},
    {"RB", "Explicit", 202254ULL, 559397913414639610ULL, 0ULL, 0ULL, 16768ULL, 16768ULL, 3475ULL, 0ULL},
    {"Splay", "Volatile", 503010ULL, 559397913414639610ULL, 0ULL, 0ULL, 0ULL, 73523ULL, 8659ULL, 0ULL},
    {"Splay", "SW", 2693783ULL, 559397913414639610ULL, 150559ULL, 0ULL, 90625ULL, 73523ULL, 44016ULL, 0ULL},
    {"Splay", "HW", 605222ULL, 559397913414639610ULL, 0ULL, 0ULL, 66957ULL, 73523ULL, 8540ULL, 27303ULL},
    {"Splay", "Explicit", 729819ULL, 559397913414639610ULL, 0ULL, 0ULL, 73523ULL, 73523ULL, 8659ULL, 0ULL},
    {"AVL", "Volatile", 153761ULL, 559397913414639610ULL, 0ULL, 0ULL, 0ULL, 17941ULL, 3636ULL, 0ULL},
    {"AVL", "SW", 542060ULL, 559397913414639610ULL, 18561ULL, 0ULL, 18007ULL, 17941ULL, 8419ULL, 0ULL},
    {"AVL", "HW", 169233ULL, 559397913414639610ULL, 0ULL, 0ULL, 8955ULL, 17941ULL, 3636ULL, 11106ULL},
    {"AVL", "Explicit", 213824ULL, 559397913414639610ULL, 0ULL, 0ULL, 17941ULL, 17941ULL, 3636ULL, 0ULL},
    {"SG", "Volatile", 145801ULL, 559397913414639610ULL, 0ULL, 0ULL, 0ULL, 17120ULL, 3150ULL, 0ULL},
    {"SG", "SW", 511745ULL, 559397913414639610ULL, 17328ULL, 0ULL, 17120ULL, 17120ULL, 7375ULL, 0ULL},
    {"SG", "HW", 160072ULL, 559397913414639610ULL, 0ULL, 0ULL, 7927ULL, 17120ULL, 3150ULL, 10544ULL},
    {"SG", "Explicit", 203401ULL, 559397913414639610ULL, 0ULL, 0ULL, 17120ULL, 17120ULL, 3150ULL, 0ULL},
};

// Captured at UPR_BENCH_SCALE=20 (500 records / 5,000 ops; 500 LL
// nodes): large enough to exercise set-assoc eviction, POLB/VALB
// walks, and the pending-storeP table's collision handling.
const GoldenRow kGoldenScale20[] = {
    {"LL", "Volatile", 5514ULL, 10596301988836065412ULL, 0ULL, 0ULL, 0ULL, 1001ULL, 1ULL, 0ULL},
    {"LL", "SW", 25237ULL, 10596301988836065412ULL, 1001ULL, 0ULL, 1001ULL, 1001ULL, 89ULL, 0ULL},
    {"LL", "HW", 6014ULL, 10596301988836065412ULL, 0ULL, 0ULL, 500ULL, 1001ULL, 1ULL, 5877ULL},
    {"LL", "Explicit", 8517ULL, 10596301988836065412ULL, 0ULL, 0ULL, 1001ULL, 1001ULL, 1ULL, 0ULL},
    {"Hash", "Volatile", 273163ULL, 6708845210674423701ULL, 0ULL, 0ULL, 0ULL, 31880ULL, 1861ULL, 0ULL},
    {"Hash", "SW", 1045612ULL, 6708845210674423701ULL, 41219ULL, 0ULL, 31880ULL, 31880ULL, 15390ULL, 0ULL},
    {"Hash", "HW", 318632ULL, 6708845210674423701ULL, 0ULL, 809ULL, 13458ULL, 31880ULL, 1861ULL, 29505ULL},
    {"Hash", "Explicit", 399283ULL, 6708845210674423701ULL, 0ULL, 0ULL, 31880ULL, 31880ULL, 1861ULL, 0ULL},
    {"RB", "Volatile", 943553ULL, 6708845210674423701ULL, 0ULL, 0ULL, 0ULL, 106522ULL, 25552ULL, 0ULL},
    {"RB", "SW", 3203959ULL, 6708845210674423701ULL, 109642ULL, 0ULL, 107224ULL, 106522ULL, 48744ULL, 0ULL},
    {"RB", "HW", 1026855ULL, 6708845210674423701ULL, 0ULL, 0ULL, 51837ULL, 106522ULL, 25539ULL, 64813ULL},
    {"RB", "Explicit", 1293479ULL, 6708845210674423701ULL, 0ULL, 0ULL, 106522ULL, 106522ULL, 25552ULL, 0ULL},
    {"Splay", "Volatile", 3425232ULL, 6708845210674423701ULL, 0ULL, 0ULL, 0ULL, 512446ULL, 53017ULL, 0ULL},
    {"Splay", "SW", 18860630ULL, 6708845210674423701ULL, 1063194ULL, 0ULL, 638918ULL, 512446ULL, 302113ULL, 0ULL},
    {"Splay", "HW", 4140687ULL, 6708845210674423701ULL, 0ULL, 0ULL, 483501ULL, 512446ULL, 51699ULL, 180024ULL},
    {"Splay", "Explicit", 4992930ULL, 6708845210674423701ULL, 0ULL, 0ULL, 512446ULL, 512446ULL, 53017ULL, 0ULL},
    {"AVL", "Volatile", 977692ULL, 6708845210674423701ULL, 0ULL, 0ULL, 0ULL, 112319ULL, 25575ULL, 0ULL},
    {"AVL", "SW", 3407173ULL, 6708845210674423701ULL, 115603ULL, 0ULL, 112665ULL, 112319ULL, 56784ULL, 0ULL},
    {"AVL", "HW", 1065191ULL, 6708845210674423701ULL, 0ULL, 0ULL, 55670ULL, 112319ULL, 25575ULL, 69573ULL},
    {"AVL", "Explicit", 1345009ULL, 6708845210674423701ULL, 0ULL, 0ULL, 112319ULL, 112319ULL, 25575ULL, 0ULL},
    {"SG", "Volatile", 997353ULL, 6708845210674423701ULL, 0ULL, 0ULL, 0ULL, 114729ULL, 25058ULL, 0ULL},
    {"SG", "SW", 3429272ULL, 6708845210674423701ULL, 115741ULL, 0ULL, 114729ULL, 114729ULL, 52392ULL, 0ULL},
    {"SG", "HW", 1082451ULL, 6708845210674423701ULL, 0ULL, 0ULL, 54232ULL, 114729ULL, 25058ULL, 68593ULL},
    {"SG", "Explicit", 1371900ULL, 6708845210674423701ULL, 0ULL, 0ULL, 114729ULL, 114729ULL, 25058ULL, 0ULL},
};

Workload
workloadByName(const std::string &name)
{
    for (Workload w : kAllWorkloads)
        if (name == workloadName(w))
            return w;
    ADD_FAILURE() << "unknown workload " << name;
    return Workload::LL;
}

Version
versionByName(const std::string &name)
{
    const Version all[] = {Version::Volatile, Version::Sw, Version::Hw,
                           Version::Explicit};
    for (Version v : all)
        if (name == versionName(v))
            return v;
    ADD_FAILURE() << "unknown version " << name;
    return Version::Volatile;
}

/** Pin the scale for one test; benchScale() reads the env per call. */
struct ScaleGuard
{
    explicit ScaleGuard(const char *scale)
    {
        ::setenv("UPR_BENCH_SCALE", scale, /*overwrite=*/1);
    }

    ~ScaleGuard() { ::unsetenv("UPR_BENCH_SCALE"); }
};

void
checkGrid(const GoldenRow *rows, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const GoldenRow &g = rows[i];
        SCOPED_TRACE(std::string(g.workload) + " x " + g.version);
        const RunStats st =
            run(workloadByName(g.workload), versionByName(g.version));
        EXPECT_EQ(st.cycles, g.cycles);
        EXPECT_EQ(st.checksum, g.checksum);
        EXPECT_EQ(st.dynamicChecks, g.dynamicChecks);
        EXPECT_EQ(st.absToRel, g.absToRel);
        EXPECT_EQ(st.relToAbs, g.relToAbs);
        EXPECT_EQ(st.memAccesses, g.memAccesses);
        EXPECT_EQ(st.branchMisses, g.branchMisses);
        EXPECT_EQ(st.reuseHits, g.reuseHits);
    }
}

TEST(ModelInvariance, Fig11GridScale100)
{
    ScaleGuard scale("100");
    checkGrid(kGoldenScale100, std::size(kGoldenScale100));
}

TEST(ModelInvariance, Fig11GridScale20)
{
    ScaleGuard scale("20");
    checkGrid(kGoldenScale20, std::size(kGoldenScale20));
}

// Determinism across repeats within one process: warm host-side MRU
// caches from a previous run must not leak into a fresh Runtime.
TEST(ModelInvariance, RepeatRunsAreIdentical)
{
    ScaleGuard scale("100");
    const RunStats a = run(Workload::RB, Version::Hw);
    const RunStats b = run(Workload::RB, Version::Hw);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.reuseHits, b.reuseHits);
}

} // namespace
} // namespace upr::bench
