/** @file Unit tests for the Backing persistence domain (shadowed
 * writes, flush/fence discipline, crash images, random retention),
 * the overflow-safe bounds checks, CRC-32, the CrashInjector, and the
 * crash-sweep engine's contract (visited images equal armed crashes,
 * a failing check stops the one run, checked replay seeds). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/crc32.hh"
#include "crash/crash_injector.hh"
#include "crash/crash_sweep.hh"
#include "mem/backing.hh"

using namespace upr;

namespace
{

std::uint64_t
peek(const std::vector<std::uint8_t> &image, Bytes off)
{
    std::uint64_t v;
    std::memcpy(&v, image.data() + off, sizeof(v));
    return v;
}

void
poke(Backing &b, Bytes off, std::uint64_t v)
{
    b.write(off, &v, sizeof(v));
}

std::uint64_t
read64(const Backing &b, Bytes off)
{
    std::uint64_t v;
    b.read(off, &v, sizeof(v));
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

TEST(Crc32, KnownVector)
{
    // The canonical IEEE check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, ChainingMatchesOneShot)
{
    const char data[] = "the quick brown fox";
    const std::uint32_t whole = crc32(data, sizeof(data));
    std::uint32_t chained = crc32(data, 7);
    chained = crc32Update(chained, data + 7, sizeof(data) - 7);
    EXPECT_EQ(chained, whole);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::uint8_t buf[64] = {};
    const std::uint32_t clean = crc32(buf, sizeof(buf));
    buf[40] ^= 0x10;
    EXPECT_NE(crc32(buf, sizeof(buf)), clean);
}

// ---------------------------------------------------------------------
// Overflow-safe bounds
// ---------------------------------------------------------------------

TEST(BackingBounds, HostileOffsetWrapsAreFaultsNotCorruption)
{
    Backing b(4096);
    std::uint8_t buf[16] = {};
    // off + n wraps around 2^64 and would pass a naive `off + n <=
    // size` check.
    const Bytes evil = ~0ULL - 7;
    EXPECT_THROW(b.read(evil, buf, 16), Fault);
    EXPECT_THROW(b.write(evil, buf, 16), Fault);
    try {
        b.read(evil, buf, 16);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::OffsetOutOfPool);
    }
}

TEST(BackingBounds, PastEndFaults)
{
    Backing b(128);
    std::uint8_t buf[16] = {};
    EXPECT_THROW(b.read(120, buf, 16), Fault);
    EXPECT_THROW(b.write(128, buf, 1), Fault);
    EXPECT_NO_THROW(b.read(112, buf, 16)); // exactly at the end
}

// ---------------------------------------------------------------------
// Persistence domain
// ---------------------------------------------------------------------

TEST(PersistenceDomain, DisabledWritesAreInstantlyDurable)
{
    Backing b(4096);
    poke(b, 0, 42);
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 42u);
}

TEST(PersistenceDomain, UnflushedWriteIsLostUnfencedFlushIsLost)
{
    Backing b(4096);
    poke(b, 0, 1);
    poke(b, 64, 2);
    b.enablePersistenceDomain(); // both become durable baseline

    poke(b, 0, 111);              // dirty, never flushed
    poke(b, 64, 222);
    b.flush(64, 8);               // staged, never fenced

    // The program sees the new values...
    EXPECT_EQ(read64(b, 0), 111u);
    EXPECT_EQ(read64(b, 64), 222u);
    // ...but a crash keeps neither.
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 1u);
    EXPECT_EQ(peek(image, 64), 2u);
}

TEST(PersistenceDomain, FlushFenceMakesLinesDurable)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    poke(b, 0, 7);
    poke(b, 128, 9);
    b.flush(0, 8);
    b.fence();

    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 7u);   // fenced: survives
    EXPECT_EQ(peek(image, 128), 0u); // dirty: lost
    EXPECT_EQ(b.pendingLines(), 1u); // only line 2 still pending
}

TEST(PersistenceDomain, RewriteAfterFlushNeedsAnotherFlush)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    poke(b, 0, 1);
    b.flush(0, 8);
    poke(b, 0, 2); // dirties the line again: the staged CLWB is stale
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 0u);
    b.flush(0, 8);
    b.fence();
    EXPECT_EQ(peek(b.crashImage(CrashMode::DiscardUnfenced), 0), 2u);
}

TEST(PersistenceDomain, FlushCoversWholeLinesOfTheRange)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    // One 16-byte write straddling the line-0/line-1 boundary.
    std::uint8_t buf[16];
    std::memset(buf, 0xAB, sizeof(buf));
    b.write(56, buf, sizeof(buf));
    b.flush(56, 16);
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(image[56], 0xABu);
    EXPECT_EQ(image[71], 0xABu);
    EXPECT_EQ(b.pendingLines(), 0u);
}

TEST(PersistenceDomain, RetainRandomIsLineGranularAndDeterministic)
{
    Backing b(64 * 64);
    b.enablePersistenceDomain();
    // Dirty 64 full lines with a recognizable pattern.
    for (Bytes line = 0; line < 64; ++line) {
        std::uint8_t buf[64];
        std::memset(buf, 0x11 + static_cast<int>(line % 7), sizeof(buf));
        b.write(line * 64, buf, sizeof(buf));
    }

    const auto a = b.crashImage(CrashMode::RetainRandom, 12345);
    const auto c = b.crashImage(CrashMode::RetainRandom, 12345);
    EXPECT_EQ(a, c); // deterministic per seed

    const auto d = b.crashImage(CrashMode::RetainRandom, 54321);
    EXPECT_NE(a, d); // but seed-dependent

    // Every line is atomically old (all zero) or new (all pattern);
    // with 64 lines at p=1/2, both outcomes occur.
    std::size_t kept = 0;
    for (Bytes line = 0; line < 64; ++line) {
        const std::uint8_t first = a[line * 64];
        for (Bytes i = 0; i < 64; ++i)
            ASSERT_EQ(a[line * 64 + i], first) << "torn line " << line;
        if (first != 0)
            ++kept;
    }
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, 64u);
}

TEST(PersistenceDomain, GrowExtendsDurableImage)
{
    Backing b(128);
    b.enablePersistenceDomain();
    b.grow(4096);
    poke(b, 4000, 5);
    b.flush(4000, 8);
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    ASSERT_EQ(image.size(), 4096u);
    EXPECT_EQ(peek(image, 4000), 5u);
}

TEST(PersistenceDomain, AssignResetsTheDomain)
{
    Backing b(128);
    b.enablePersistenceDomain();
    poke(b, 0, 9);
    b.assign(std::vector<std::uint8_t>(256, 0xFF));
    EXPECT_FALSE(b.persistenceDomainEnabled());
    EXPECT_EQ(b.size(), 256u);
}

TEST(PersistenceDomain, OutOfRangeFlushFaultsWithDomainOff)
{
    Backing b(4096);
    ASSERT_FALSE(b.persistenceDomainEnabled());
    try {
        b.flush(4000, 200);
        FAIL() << "out-of-range flush passed with the domain off";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::OffsetOutOfPool);
    }
    EXPECT_NO_THROW(b.flush(4096, 0)); // an empty range stays a no-op
    EXPECT_NO_THROW(b.flush(4032, 64));
    b.enablePersistenceDomain();
    EXPECT_THROW(b.flush(4000, 200), Fault);
}

TEST(PersistenceDomain, TableGrowsThenFenceKeepsSurvivorsFindable)
{
    constexpr Bytes kLines = 300; // many times the initial index
    Backing b(kLines * 64 + 40);
    for (Bytes line = 0; line < kLines; ++line)
        poke(b, line * 64, 1000 + line); // media content
    b.enablePersistenceDomain();
    for (Bytes line = 0; line < kLines; ++line)
        poke(b, line * 64 + 8, 2000 + line);
    ASSERT_EQ(b.pendingLines(), kLines);
    for (Bytes line = 0; line < kLines; line += 3)
        b.flush(line * 64, 64);
    b.fence();
    ASSERT_EQ(b.pendingLines(), kLines - kLines / 3);

    // Rewriting a survivor must find its record and keep the saved
    // media bytes; rewriting a dropped line saves the fenced bytes.
    for (Bytes line = 0; line < kLines; ++line)
        poke(b, line * 64 + 8, 3000 + line);
    EXPECT_EQ(b.pendingLines(), kLines);
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    for (Bytes line = 0; line < kLines; ++line) {
        ASSERT_EQ(peek(image, line * 64), 1000 + line) << line;
        ASSERT_EQ(peek(image, line * 64 + 8),
                  line % 3 == 0 ? 2000 + line : 0u)
            << line;
    }

    // Flush lookups hit every survivor.
    b.flush(0, b.size());
    b.fence();
    EXPECT_EQ(b.pendingLines(), 0u);
    const auto fenced = b.crashImage(CrashMode::DiscardUnfenced);
    for (Bytes line = 0; line < kLines; ++line)
        ASSERT_EQ(peek(fenced, line * 64 + 8), 3000 + line) << line;
}

TEST(PersistenceDomain, CopyKeepsItsOwnMediaBytes)
{
    Backing a(4096);
    poke(a, 0, 1);
    a.enablePersistenceDomain();
    poke(a, 0, 2); // line 0 pending, media holds 1
    Backing copy(a);
    poke(a, 0, 3);
    poke(a, 64, 4);
    a.flush(0, 128);
    a.fence();

    EXPECT_EQ(peek(a.crashImage(CrashMode::DiscardUnfenced), 0), 3u);
    EXPECT_EQ(read64(copy, 0), 2u);
    EXPECT_EQ(copy.pendingLines(), 1u);
    const auto image = copy.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 1u);
    EXPECT_EQ(peek(image, 64), 0u);

    poke(copy, 0, 5); // and the other way round
    EXPECT_EQ(read64(a, 0), 3u);
    EXPECT_EQ(a.pendingLines(), 0u);
}

namespace
{

/**
 * The full-copy persistence domain the sparse one replaced: a second
 * image of the whole backing, taken when the domain comes up, into
 * which every fence copies its flushed lines.
 */
class RefDomain
{
  public:
    explicit RefDomain(Bytes size) : live_(size, 0) {}

    void
    enable()
    {
        if (enabled_)
            return;
        enabled_ = true;
        durable_ = live_;
        pending_.clear();
    }

    void
    write(Bytes off, const std::uint8_t *src, Bytes n)
    {
        std::memcpy(live_.data() + off, src, n);
        if (!enabled_ || n == 0)
            return;
        for (Bytes line = off / 64; line <= (off + n - 1) / 64; ++line)
            pending_[line] = {false, epoch_};
    }

    void
    flush(Bytes off, Bytes n)
    {
        if (!enabled_ || n == 0)
            return;
        for (Bytes line = off / 64; line <= (off + n - 1) / 64; ++line) {
            auto it = pending_.find(line);
            if (it != pending_.end())
                it->second.flushed = true;
        }
    }

    void
    fence()
    {
        if (!enabled_)
            return;
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.flushed) {
                persist(it->first, durable_);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
        ++epoch_;
    }

    void
    grow(Bytes size)
    {
        if (size <= live_.size())
            return;
        live_.resize(size, 0);
        if (enabled_)
            durable_.resize(size, 0);
    }

    std::vector<std::uint8_t>
    crashImage(CrashMode mode, std::uint64_t seed) const
    {
        if (!enabled_)
            return live_;
        std::vector<std::uint8_t> image = durable_;
        for (const auto &[line, info] : pending_) {
            bool keep = false;
            switch (mode) {
              case CrashMode::DiscardUnfenced:
                break;
              case CrashMode::RetainRandom:
                keep = coin(line, seed);
                break;
              case CrashMode::RetainEpoch:
                keep = info.epoch < epoch_;
                break;
              case CrashMode::RetainBoundedStale:
                keep = epoch_ - info.epoch >= Backing::kStaleBound ||
                       coin(line, seed);
                break;
            }
            if (keep)
                persist(line, image);
        }
        return image;
    }

    std::size_t pendingLines() const { return pending_.size(); }
    Bytes size() const { return live_.size(); }

  private:
    struct Line
    {
        bool flushed;
        std::uint64_t epoch;
    };

    /** The retention coin, restated: splitmix64 over (seed, line). */
    static bool
    coin(Bytes line, std::uint64_t seed)
    {
        std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (line + 1);
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ULL;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBULL;
        x ^= x >> 31;
        return (x & 1) != 0;
    }

    void
    persist(Bytes line, std::vector<std::uint8_t> &dst) const
    {
        const Bytes off = line * 64;
        const Bytes n = std::min<Bytes>(64, live_.size() - off);
        std::memcpy(dst.data() + off, live_.data() + off, n);
    }

    std::vector<std::uint8_t> live_;
    std::vector<std::uint8_t> durable_;
    std::map<Bytes, Line> pending_;
    bool enabled_ = false;
    std::uint64_t epoch_ = 0;
};

/**
 * A random [off, off+len) inside @p size, biased to a hot region and
 * to the partial last line.
 */
std::pair<Bytes, Bytes>
randomRange(std::mt19937_64 &rng, Bytes size, Bytes max_len)
{
    if (rng() % 8 == 0) {
        const Bytes len = 1 + rng() % std::min(max_len, size);
        return {size - len, len};
    }
    const Bytes hot = std::min<Bytes>(size, 1024);
    const Bytes off = rng() % 4 != 0 ? rng() % hot : rng() % size;
    const Bytes len = rng() % (std::min(max_len, size - off) + 1);
    return {off, len};
}

} // namespace

TEST(PersistenceDomain, SparseDomainMatchesFullCopyReference)
{
    constexpr CrashMode kModes[] = {
        CrashMode::DiscardUnfenced, CrashMode::RetainRandom,
        CrashMode::RetainEpoch, CrashMode::RetainBoundedStale};
    constexpr std::uint64_t kSeeds[] = {0, 7, 0xdeadbeef};

    for (std::uint64_t run = 1; run <= 8; ++run) {
        std::mt19937_64 rng(run);
        const Bytes size0 = 700 + rng() % 700; // not line-aligned
        Backing b(size0);
        RefDomain ref(size0);
        const unsigned enable_at = static_cast<unsigned>(rng() % 20);

        for (unsigned step = 0; step < 400; ++step) {
            SCOPED_TRACE("run " + std::to_string(run) + " step " +
                         std::to_string(step));
            if (step == enable_at) {
                b.enablePersistenceDomain();
                ref.enable();
            }
            const unsigned op = static_cast<unsigned>(rng() % 100);
            if (op < 50) {
                const auto [off, len] = randomRange(rng, b.size(), 200);
                std::vector<std::uint8_t> buf(len);
                for (auto &byte : buf)
                    byte = static_cast<std::uint8_t>(rng());
                b.write(off, buf.data(), len);
                ref.write(off, buf.data(), len);
            } else if (op < 75) {
                const auto [off, len] = randomRange(rng, b.size(), 300);
                b.flush(off, len);
                ref.flush(off, len);
            } else if (op < 90) {
                b.fence();
                ref.fence();
            } else if (op < 95) {
                const Bytes size = b.size() + rng() % 200;
                b.grow(size);
                ref.grow(size);
            } else {
                Backing copy(b);
                b = Backing(0); // the copy must stand alone
                b = copy;
            }

            ASSERT_EQ(b.pendingLines(), ref.pendingLines());
            for (CrashMode mode : kModes) {
                for (std::uint64_t seed : kSeeds) {
                    ASSERT_EQ(b.crashImage(mode, seed),
                              ref.crashImage(mode, seed))
                        << crashModeName(mode) << " seed " << seed;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CrashInjector
// ---------------------------------------------------------------------

TEST(CrashInjector, CountsWritesFlushesAndFences)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(0);
    inj.attach(b);
    poke(b, 0, 1);   // event 1
    b.flush(0, 8);   // event 2
    b.fence();       // event 3
    EXPECT_EQ(inj.events(), 3u);
    EXPECT_FALSE(inj.fired());
}

TEST(CrashInjector, CrashEventNeverTakesEffect)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    CrashInjector inj;
    inj.arm(4);
    inj.attach(b);

    poke(b, 0, 1);
    b.flush(0, 8);
    b.fence(); // value 1 durable
    bool crashed = false;
    try {
        poke(b, 0, 2); // event 4: the write "never happened"
    } catch (const SimulatedCrash &c) {
        crashed = true;
        EXPECT_EQ(c.at(), 4u);
    }
    ASSERT_TRUE(crashed);
    ASSERT_TRUE(inj.fired());
    EXPECT_EQ(peek(inj.image(), 0), 1u);
    // The live backing never saw the aborted write either.
    EXPECT_EQ(read64(b, 0), 1u);
}

TEST(CrashInjector, DisarmsAfterFiringSoUnwindingCanWrite)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(1);
    inj.attach(b);
    EXPECT_THROW(poke(b, 0, 1), SimulatedCrash);
    // Post-crash writes (e.g. destructors rolling back) must not
    // crash again or perturb the captured image.
    EXPECT_NO_THROW(poke(b, 8, 2));
    EXPECT_EQ(inj.events(), 1u);
    EXPECT_EQ(peek(inj.image(), 8), 0u);
}

TEST(CrashInjector, FenceCrashLeavesStagedLinesVolatile)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(3);
    inj.attach(b);
    poke(b, 0, 7); // event 1
    b.flush(0, 8); // event 2
    EXPECT_THROW(b.fence(), SimulatedCrash); // event 3: no SFENCE
    EXPECT_EQ(peek(inj.image(), 0), 0u);
}

// ---------------------------------------------------------------------
// The sweep engine's contract
// ---------------------------------------------------------------------

namespace
{

constexpr Bytes kChurnBytes = 4096;

/**
 * A deterministic event stream over @p count fresh backings: writes,
 * flushes and fences spread over lines and epochs, interleaved across
 * the backings, so every retention mode keeps a different subset of
 * the pending lines. Attaches @p inj (if any) alone or as a set, and
 * stops after @p limit events or at an armed crash.
 * @return the backings as the stream left them
 */
std::vector<Backing>
churn(CrashInjector *inj, unsigned count,
      std::uint64_t limit = std::numeric_limits<std::uint64_t>::max())
{
    std::vector<Backing> media(count, Backing(kChurnBytes));
    std::vector<Backing *> set;
    for (Backing &b : media) {
        poke(b, 0, 0xBA5E); // pre-window baseline
        b.enablePersistenceDomain();
        set.push_back(&b);
    }
    if (inj != nullptr && count == 1)
        inj->attach(media[0]);
    else if (inj != nullptr)
        inj->attach(set);
    std::uint64_t issued = 0;
    try {
        for (unsigned i = 0; i < 40; ++i) {
            Backing &b = media[(i / 3) % count];
            const Bytes line = (i * 7) % 16 * Backing::kLineBytes;
            if (issued++ == limit)
                break;
            poke(b, line + (i % 8) * 8, 0x100 + i);
            if (i % 3 == 0) {
                if (issued++ == limit)
                    break;
                b.flush(line, Backing::kLineBytes);
            }
            if (i % 5 == 4) {
                if (issued++ == limit)
                    break;
                b.fence();
            }
        }
    } catch (const SimulatedCrash &) {
    }
    return media;
}

/** Both images of every backing, as read at one event. */
struct Seen
{
    std::vector<std::vector<std::uint8_t>> image;
    std::vector<std::vector<std::uint8_t>> strict;
};

} // namespace

// The single-run sweep is only sound if what the visitor reads at
// event N is byte for byte what a crash armed at N captures — for
// every retention mode, alone and as a set — and both are the media
// after exactly N-1 events (event N never applied), with the
// retention stream of point N: seed ^ N alone, and
// seed ^ (N * 0x9e3779b9 + b) per backing b of a set.
TEST(CrashInjector, VisitedImagesEqualArmedCrashImages)
{
    constexpr std::uint64_t kSeed = 77;
    for (unsigned count : {1u, 2u}) {
        for (CrashMode mode :
             {CrashMode::DiscardUnfenced, CrashMode::RetainRandom,
              CrashMode::RetainEpoch, CrashMode::RetainBoundedStale}) {
            SCOPED_TRACE(std::string(crashModeName(mode)) + " x" +
                         std::to_string(count));
            std::vector<Seen> seen;
            CrashInjector visitor(mode, kSeed);
            visitor.visit([&](std::uint64_t n, unsigned owner) {
                EXPECT_EQ(n, seen.size() + 1);
                EXPECT_LT(owner, count);
                Seen s;
                for (unsigned b = 0; b < count; ++b) {
                    s.image.push_back(visitor.image(b));
                    s.strict.push_back(visitor.strictImage(b));
                }
                seen.push_back(std::move(s));
            });
            churn(&visitor, count);
            ASSERT_EQ(visitor.events(), seen.size());
            ASSERT_GT(seen.size(), 40u);

            std::uint64_t fenceChanges = 0;
            for (std::uint64_t n = 1; n <= seen.size(); ++n) {
                CrashInjector armed(mode, kSeed);
                armed.arm(n);
                churn(&armed, count);
                ASSERT_TRUE(armed.fired()) << "point " << n;
                const std::vector<Backing> before =
                    churn(nullptr, count, n - 1);
                for (unsigned b = 0; b < count; ++b) {
                    const std::uint64_t seed =
                        count == 1 ? kSeed ^ n
                                   : kSeed ^ (n * 0x9e3779b9ULL + b);
                    const auto want = before[b].crashImage(mode, seed);
                    const auto strict =
                        before[b].crashImage(CrashMode::DiscardUnfenced);
                    EXPECT_EQ(seen[n - 1].image[b], want)
                        << "point " << n << " backing " << b;
                    EXPECT_EQ(armed.image(b), want)
                        << "point " << n << " backing " << b;
                    EXPECT_EQ(seen[n - 1].strict[b], strict)
                        << "point " << n << " backing " << b;
                    EXPECT_EQ(armed.strictImage(b), strict)
                        << "point " << n << " backing " << b;
                    if (n < seen.size() &&
                        seen[n].strict[b] != seen[n - 1].strict[b])
                        ++fenceChanges;
                }
            }
            // The stream must be able to tell "before" from "after":
            // fences move the strict image.
            EXPECT_GT(fenceChanges, 0u);
        }
    }
}

// A failing check ends the one run: the replay banner prints once,
// the writes the workload makes while unwinding (a rollback) never
// reach the check again, and the exception reaches the caller.
TEST(CrashSweepEngine, ThrowingCheckStopsTheRunOnce)
{
    std::uint64_t calls = 0;
    const auto check = [&](const CrashInjector &, std::uint64_t n,
                           unsigned) {
        ++calls;
        if (n == 4)
            throw std::logic_error("check failed");
    };
    const auto workload = [](CrashInjector &inj) {
        Backing b(kChurnBytes);
        inj.attach(b);
        struct Rollback
        {
            Backing &b;
            ~Rollback()
            {
                poke(b, 64, 0xDEAD);
                b.flush(64, 8);
                b.fence();
            }
        } rollback{b};
        for (unsigned i = 0; i < 10; ++i)
            poke(b, i * 8, i);
    };

    testing::internal::CaptureStderr();
    EXPECT_THROW(crashSweep(workload, check), std::logic_error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(calls, 4u);

    const auto count = [&err](const std::string &needle) {
        std::size_t hits = 0;
        for (auto at = err.find(needle); at != std::string::npos;
             at = err.find(needle, at + 1))
            ++hits;
        return hits;
    };
    EXPECT_EQ(count("crash sweep FAILED at point 4 "), 1u) << err;
    EXPECT_EQ(count("replay with: UPR_CRASH_SEED="), 1u) << err;
}

// A workload that swallows the failure while unwinding still fails
// the sweep.
TEST(CrashSweepEngine, SwallowedCheckFailureStillReachesTheCaller)
{
    testing::internal::CaptureStderr();
    EXPECT_THROW(
        crashSweep(
            [](CrashInjector &inj) {
                Backing b(kChurnBytes);
                inj.attach(b);
                try {
                    for (unsigned i = 0; i < 10; ++i)
                        poke(b, i * 8, i);
                } catch (const std::exception &) {
                }
                poke(b, 128, 1);
            },
            [](const CrashInjector &, std::uint64_t n, unsigned) {
                if (n == 2)
                    throw std::logic_error("check failed");
            }),
        std::logic_error);
    testing::internal::GetCapturedStderr();
}

TEST(CrashSweepEngine, WorkloadThatNeverAttachesIsBadUsage)
{
    try {
        crashSweep([](CrashInjector &) {},
                   [](const CrashInjector &, std::uint64_t, unsigned) {});
        FAIL() << "no persistence events must not pass as a sweep";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadUsage);
    }
}

// ---------------------------------------------------------------------
// UPR_CRASH_SEED replay values
// ---------------------------------------------------------------------

TEST(CrashSeed, ParsesWholeNumbersInEveryBase)
{
    EXPECT_EQ(parseCrashSeed("0"), 0u);
    EXPECT_EQ(parseCrashSeed("99"), 99u);
    EXPECT_EQ(parseCrashSeed("0x1F"), 31u);
    EXPECT_EQ(parseCrashSeed("0X1f"), 31u);
    EXPECT_EQ(parseCrashSeed("010"), 8u);
    EXPECT_EQ(parseCrashSeed("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(CrashSeed, RejectsGarbageEmptyAndOverflow)
{
    for (const char *bad :
         {"abc", "0x1g", "12abc", "", "0x", "08", " 12", "12 ", "-1",
          "+1", "18446744073709551616", "0x10000000000000000"}) {
        try {
            parseCrashSeed(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const Fault &f) {
            EXPECT_EQ(f.kind(), FaultKind::BadUsage) << bad;
        }
    }
}

TEST(CrashSeed, SweepRefusesAMalformedOverride)
{
    const auto workload = [](CrashInjector &inj) {
        Backing b(kChurnBytes);
        inj.attach(b);
        poke(b, 0, 1);
    };
    std::uint64_t seen = 0;
    const auto check = [&seen](const CrashInjector &inj, std::uint64_t,
                               unsigned) { seen = inj.seed(); };

    ::setenv("UPR_CRASH_SEED", "0x1g", 1);
    try {
        crashSweep(workload, check);
        ADD_FAILURE() << "swept with a malformed UPR_CRASH_SEED";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadUsage);
    }
    EXPECT_EQ(seen, 0u); // refused before the workload ran

    ::setenv("UPR_CRASH_SEED", "0x4d", 1);
    EXPECT_EQ(crashSweep(workload, check), 1u);
    EXPECT_EQ(seen, 0x4du);

    ::setenv("UPR_CRASH_SEED", "", 1);
    EXPECT_FALSE(crashSeedOverride().has_value());
    ::unsetenv("UPR_CRASH_SEED");
    EXPECT_FALSE(crashSeedOverride().has_value());
}
