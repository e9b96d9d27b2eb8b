/** @file Unit tests for the generic set-associative array. */

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "arch/set_assoc.hh"

using namespace upr;

namespace
{

using Array = SetAssocArray<std::uint64_t, int>;

/** Probe @p tag; on a miss fill it with @p payload. @return hit. */
bool
touch(Array &arr, std::uint32_t set, std::uint64_t tag, int payload,
      int *evicted = nullptr, bool *did_evict = nullptr)
{
    const Array::Probe p = arr.probe(set, tag);
    if (p.hit)
        return true;
    const bool ev = arr.fill(p, tag, payload, evicted);
    if (did_evict)
        *did_evict = ev;
    return false;
}

} // namespace

TEST(SetAssoc, MissThenHit)
{
    Array arr(4, 2);
    const Array::Probe miss = arr.probe(0, 10);
    EXPECT_FALSE(miss.hit);
    arr.fill(miss, 10, 42);
    const Array::Probe hit = arr.probe(0, 10);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(arr.payload(hit), 42);
}

TEST(SetAssoc, SetsAreIndependent)
{
    Array arr(4, 1);
    touch(arr, 0, 5, 1);
    touch(arr, 1, 5, 2);
    const Array::Probe a = arr.probe(0, 5);
    const Array::Probe b = arr.probe(1, 5);
    ASSERT_TRUE(a.hit && b.hit);
    EXPECT_EQ(arr.payload(a), 1);
    EXPECT_EQ(arr.payload(b), 2);
}

TEST(SetAssoc, LruEvictionOrder)
{
    Array arr(1, 2);
    touch(arr, 0, 1, 1);
    touch(arr, 0, 2, 2);
    // Touch tag 1 so tag 2 becomes LRU.
    EXPECT_TRUE(arr.probe(0, 1).hit);
    int evicted = 0;
    bool did_evict = false;
    EXPECT_FALSE(touch(arr, 0, 3, 3, &evicted, &did_evict));
    EXPECT_TRUE(did_evict);
    EXPECT_EQ(evicted, 2);
    EXPECT_TRUE(arr.probe(0, 1).hit);
    EXPECT_FALSE(arr.probe(0, 2).hit);
    EXPECT_TRUE(arr.probe(0, 3).hit);
}

TEST(SetAssoc, InsertIntoFreeWayDoesNotEvict)
{
    Array arr(1, 4);
    for (int t = 1; t <= 4; ++t) {
        const Array::Probe p = arr.probe(0, t);
        EXPECT_FALSE(arr.fill(p, t, t));
    }
    const Array::Probe p = arr.probe(0, 5);
    EXPECT_TRUE(arr.fill(p, 5, 5));
    EXPECT_EQ(arr.validCount(), 4u);
}

TEST(SetAssoc, InvalidateSingle)
{
    Array arr(2, 2);
    touch(arr, 0, 7, 7);
    arr.invalidate(0, 7);
    EXPECT_FALSE(arr.probe(0, 7).hit);
    // Invalidating a missing tag is harmless.
    arr.invalidate(0, 99);
}

TEST(SetAssoc, InvalidateAll)
{
    Array arr(2, 2);
    touch(arr, 0, 1, 1);
    touch(arr, 1, 2, 2);
    arr.invalidateAll();
    EXPECT_EQ(arr.validCount(), 0u);
    EXPECT_FALSE(arr.probe(0, 1).hit);
    EXPECT_FALSE(arr.probe(1, 2).hit);
}

TEST(SetAssoc, PeekDoesNotChangeLru)
{
    Array arr(1, 2);
    touch(arr, 0, 1, 1);
    touch(arr, 0, 2, 2);
    // Peek at 1 (no LRU update): 1 is still LRU and gets evicted.
    EXPECT_NE(arr.peek(0, 1), nullptr);
    int evicted = 0;
    touch(arr, 0, 3, 3, &evicted);
    EXPECT_EQ(evicted, 1);
}

TEST(SetAssoc, ForEachValidVisitsAll)
{
    Array arr(2, 2);
    touch(arr, 0, 1, 10);
    touch(arr, 1, 2, 20);
    int sum = 0, count = 0;
    arr.forEachValid([&](std::uint32_t, std::uint64_t, int v) {
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sum, 30);
}

TEST(SetAssoc, FillReusesFirstInvalidWay)
{
    Array arr(1, 3);
    touch(arr, 0, 1, 1);
    touch(arr, 0, 2, 2);
    touch(arr, 0, 3, 3);
    arr.invalidate(0, 2);
    bool did_evict = true;
    touch(arr, 0, 4, 4, nullptr, &did_evict);
    EXPECT_FALSE(did_evict);
    EXPECT_NE(arr.peek(0, 1), nullptr);
    EXPECT_NE(arr.peek(0, 3), nullptr);
}

// A hit on the entry holding the newest stamp skips its restamp; the
// next hit on it after another fill must restamp again, or the LRU
// order inside its set goes wrong.
TEST(SetAssoc, RepeatedHitKeepsLruOrder)
{
    Array arr(2, 2);
    touch(arr, 0, 1, 1);
    touch(arr, 0, 2, 2);
    EXPECT_TRUE(arr.probe(0, 1).hit); // newest: restamped
    EXPECT_TRUE(arr.probe(0, 1).hit); // already newest: skipped
    int evicted = 0;
    touch(arr, 0, 3, 3, &evicted);    // order 2 < 1, so 2 goes
    EXPECT_EQ(evicted, 2);
    touch(arr, 1, 9, 9);              // newest stamp moves to set 1
    EXPECT_TRUE(arr.probe(0, 1).hit); // 1 must now outrank 3
    touch(arr, 0, 4, 4, &evicted);
    EXPECT_EQ(evicted, 3);
    EXPECT_NE(arr.peek(0, 1), nullptr);
}

namespace
{

/**
 * Naive true-LRU reference: each set is a list of {tag, payload}
 * ordered most recently used first.
 */
class LruReference
{
  public:
    LruReference(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), sets_(sets)
    {}

    struct Result
    {
        bool hit;
        bool evicted;
        int payload; //!< hit payload, or the evicted one
    };

    Result
    access(std::uint32_t set, std::uint64_t tag, int payload)
    {
        auto &s = sets_[set];
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i].tag == tag) {
                const Line line = s[i];
                s.erase(s.begin() + i);
                s.insert(s.begin(), line);
                return {true, false, line.payload};
            }
        }
        Result r{false, false, 0};
        if (s.size() == ways_) {
            r.evicted = true;
            r.payload = s.back().payload;
            s.pop_back();
        }
        s.insert(s.begin(), Line{tag, payload});
        return r;
    }

    void
    invalidate(std::uint32_t set, std::uint64_t tag)
    {
        auto &s = sets_[set];
        s.erase(std::remove_if(s.begin(), s.end(),
                               [&](const Line &l) { return l.tag == tag; }),
                s.end());
    }

    void
    invalidateAll()
    {
        for (auto &s : sets_)
            s.clear();
    }

    std::uint32_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &s : sets_)
            n += s.size();
        return static_cast<std::uint32_t>(n);
    }

  private:
    struct Line
    {
        std::uint64_t tag;
        int payload;
    };

    std::size_t ways_;
    std::vector<std::vector<Line>> sets_;
};

struct Geometry
{
    const char *name;
    std::uint32_t sets;
    std::uint32_t ways;
};

/** Keeps the discovered test names stable (no pointer bytes). */
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.sets << "x" << g.ways;
}

/**
 * Drive the array and the reference with one seeded stream of
 * accesses (a third of them repeating the previous one, so the
 * restamp skip runs often), single invalidations and full
 * invalidations rare enough that every set fills between them;
 * compare after every step.
 */
void
runDifferential(const Geometry &g, std::uint32_t seed)
{
    SCOPED_TRACE(testing::Message() << g.name << " seed " << seed);
    Array arr(g.sets, g.ways);
    LruReference ref(g.sets, g.ways);
    std::mt19937_64 rng(seed);
    // set = key % sets (modulo, as the non-power-of-two STLB
    // indexes) and tag = key / sets (as the caches tag), so one tag
    // recurs across sets. Twice the capacity in keys keeps hits and
    // evictions both common.
    const std::uint64_t keys = 2ull * g.sets * g.ways;
    const std::uint64_t steps = std::max<std::uint64_t>(20000, 20 * keys);
    std::uint32_t set = 0;
    std::uint64_t tag = 0;
    int next_payload = 1;
    for (std::uint64_t step = 0; step < steps; ++step) {
        const std::uint32_t op = rng() % 10;
        if (rng() % (8 * keys) == 0) {
            arr.invalidateAll();
            ref.invalidateAll();
        } else if (op == 0) {
            const std::uint64_t key = rng() % keys;
            const auto s = static_cast<std::uint32_t>(key % g.sets);
            arr.invalidate(s, key / g.sets);
            ref.invalidate(s, key / g.sets);
        } else {
            if (op >= 4 || step == 0) {
                const std::uint64_t key = rng() % keys;
                set = static_cast<std::uint32_t>(key % g.sets);
                tag = key / g.sets;
            }
            const int payload = next_payload++;
            const LruReference::Result want = ref.access(set, tag, payload);
            const Array::Probe p = arr.probe(set, tag);
            ASSERT_EQ(p.hit, want.hit) << "step " << step;
            if (p.hit) {
                ASSERT_EQ(arr.payload(p), want.payload) << "step " << step;
            } else {
                int evicted = 0;
                const bool did_evict = arr.fill(p, tag, payload, &evicted);
                ASSERT_EQ(did_evict, want.evicted) << "step " << step;
                if (did_evict) {
                    ASSERT_EQ(evicted, want.payload) << "step " << step;
                }
            }
        }
        ASSERT_EQ(arr.validCount(), ref.validCount()) << "step " << step;
    }
}

class SetAssocDifferential : public testing::TestWithParam<Geometry>
{};

TEST_P(SetAssocDifferential, MatchesTrueLru)
{
    for (std::uint32_t seed = 1; seed <= 4; ++seed)
        runDifferential(GetParam(), seed);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDifferential,
    testing::Values(Geometry{"L1_64x8", 64, 8}, Geometry{"STLB_384x4", 384, 4},
                    Geometry{"POLB_1x32", 1, 32},
                    Geometry{"Small_4x2", 4, 2}),
    [](const testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

} // namespace
