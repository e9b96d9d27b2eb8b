/**
 * @file
 * Unit tests for the pending-storeP table: directed cases for the
 * linear-probing corner cases (clusters that wrap the end of the
 * table, backward-shift deletion) and a differential check against
 * std::unordered_map under the same clear-above-kMaxLive rule.
 */

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "arch/pending_storep_table.hh"

using namespace upr;

namespace
{

using Table = PendingStorePTable;

/** The first @p n cache-line addresses whose home slot is @p home. */
std::vector<SimAddr>
linesWithHome(std::size_t home, std::size_t n)
{
    std::vector<SimAddr> out;
    for (SimAddr line = 0; out.size() < n; line += 64) {
        if (Table::homeOf(line) == home)
            out.push_back(line);
    }
    return out;
}

/** The map the table replaces, with the same clear policy. */
struct MapReference
{
    std::unordered_map<SimAddr, Cycles> map;

    void
    put(SimAddr line, Cycles deadline)
    {
        map[line] = deadline;
        if (map.size() > Table::kMaxLive)
            map.clear();
    }

    bool
    take(SimAddr line, Cycles &out)
    {
        const auto it = map.find(line);
        if (it == map.end())
            return false;
        out = it->second;
        map.erase(it);
        return true;
    }
};

/** Take @p line and expect @p deadline back. */
void
expectTake(Table &t, SimAddr line, Cycles deadline)
{
    Cycles got = 0;
    ASSERT_TRUE(t.take(line, got)) << "line " << line;
    EXPECT_EQ(got, deadline) << "line " << line;
}

} // namespace

TEST(PendingStorePTable, PutTakeOverwrite)
{
    Table t;
    EXPECT_TRUE(t.empty());
    t.put(0x1000, 5);
    t.put(0x1000, 9); // overwrite, not a second entry
    EXPECT_EQ(t.size(), 1u);
    expectTake(t, 0x1000, 9);
    Cycles got = 0;
    EXPECT_FALSE(t.take(0x1000, got));
    EXPECT_TRUE(t.empty());
}

TEST(PendingStorePTable, ClusterWrapsTableEnd)
{
    const std::size_t last = Table::kCapacity - 1;
    const std::vector<SimAddr> a = linesWithHome(last, 3);
    const std::vector<SimAddr> b = linesWithHome(0, 2);
    Table t;
    // Slots: a0 a1 a2 b0 b1 from the last slot around to slot 3.
    for (std::size_t i = 0; i < a.size(); ++i)
        t.put(a[i], 100 + i);
    for (std::size_t i = 0; i < b.size(); ++i)
        t.put(b[i], 200 + i);
    EXPECT_EQ(t.size(), 5u);

    // Removing the head shifts every later entry back across the
    // wrap: each one's home lies at or before the hole.
    expectTake(t, a[0], 100);
    expectTake(t, b[1], 201);
    expectTake(t, a[2], 102);
    expectTake(t, b[0], 200);
    expectTake(t, a[1], 101);
    EXPECT_TRUE(t.empty());
    Cycles got = 0;
    for (const SimAddr line : a)
        EXPECT_FALSE(t.take(line, got));
}

TEST(PendingStorePTable, BackwardShiftMovesOnlyEntriesHomedBeforeHole)
{
    const std::size_t h = 100;
    const std::vector<SimAddr> at_h = linesWithHome(h, 2);
    const std::vector<SimAddr> at_h1 = linesWithHome(h + 1, 1);
    const std::vector<SimAddr> at_h3 = linesWithHome(h + 3, 1);
    Table t;
    // Slots h..h+3: x0(h) x1(h) y(h+1) z(h+3), one unbroken cluster.
    t.put(at_h[0], 1);
    t.put(at_h[1], 2);
    t.put(at_h1[0], 3);
    t.put(at_h3[0], 4);

    // Hole at h: x1 and y shift back; z already sits at its home and
    // must stay, or a probe from h+3 would miss it.
    expectTake(t, at_h[0], 1);
    expectTake(t, at_h3[0], 4);
    expectTake(t, at_h1[0], 3);
    expectTake(t, at_h[1], 2);
    EXPECT_TRUE(t.empty());
}

TEST(PendingStorePTable, ClearsPastMaxLive)
{
    Table t;
    for (std::size_t i = 0; i < Table::kMaxLive; ++i)
        t.put(i * 64, i);
    EXPECT_EQ(t.size(), Table::kMaxLive);
    // Overwriting at the limit adds no entry and keeps everything.
    t.put(0, 7);
    EXPECT_EQ(t.size(), Table::kMaxLive);
    // One more distinct line clears the table, new line included.
    t.put(Table::kMaxLive * 64, 1);
    EXPECT_TRUE(t.empty());
    Cycles got = 0;
    EXPECT_FALSE(t.take(0, got));
    EXPECT_FALSE(t.take(Table::kMaxLive * 64, got));
    // And it fills again from scratch.
    t.put(64, 3);
    expectTake(t, 64, 3);
}

TEST(PendingStorePTable, MatchesUnorderedMap)
{
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        std::mt19937_64 rng(seed);
        Table t;
        MapReference ref;
        // 3/5 puts over 12k distinct lines: live entries climb past
        // kMaxLive and the table clears repeatedly.
        const std::uint64_t lines = 12000;
        std::size_t clears = 0;
        for (int step = 0; step < 200000; ++step) {
            const SimAddr line = (rng() % lines) * 64;
            if (rng() % 5 < 3) {
                const Cycles deadline = rng();
                const bool was_full = ref.map.size() == Table::kMaxLive;
                t.put(line, deadline);
                ref.put(line, deadline);
                clears += was_full && ref.map.empty();
            } else {
                Cycles got = 0, want = 0;
                const bool hit = t.take(line, got);
                ASSERT_EQ(hit, ref.take(line, want)) << "step " << step;
                if (hit) {
                    ASSERT_EQ(got, want) << "step " << step;
                }
            }
            ASSERT_EQ(t.size(), ref.map.size()) << "step " << step;
        }
        EXPECT_GT(clears, 0u);
        // Every surviving entry is still reachable with its deadline.
        for (const auto &[line, deadline] : ref.map)
            expectTake(t, line, deadline);
        EXPECT_TRUE(t.empty());
    }
}
