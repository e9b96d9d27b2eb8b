/**
 * @file
 * Generic set-associative array with true-LRU replacement, shared by
 * the cache, TLB and POLB models.
 *
 * A lookup is by Tag (whatever uniquely identifies a block/page/entry
 * after the set index is removed); each entry can carry a small
 * payload for structures that translate (POLB stores a base address).
 */

#ifndef UPR_ARCH_SET_ASSOC_HH
#define UPR_ARCH_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace upr
{

/**
 * @tparam Tag lookup key within a set
 * @tparam Payload per-entry data (use a tiny struct or std::monostate)
 *
 * Every simulated memory access probes a TLB and up to three cache
 * levels, so the layout serves one scan per access: each set's ways
 * sit contiguously as {tag, LRU stamp}, where stamp 0 means invalid.
 * probe() walks the set at most once and returns either the hit or
 * the victim a fill would replace (the first invalid way, else the
 * lowest stamp); fill() then writes that victim without a rescan.
 * Payloads live in a parallel array, touched only on a hit or fill.
 */
template <typename Tag, typename Payload>
class SetAssocArray
{
  public:
    /** Outcome of probe(): the hit way, or the victim for fill(). */
    struct Probe
    {
        std::size_t index;
        bool hit;
    };

    /**
     * @param sets number of sets; non-power-of-two counts are allowed
     *        (e.g. the 384-set L2 TLB), callers index with modulo
     * @param ways associativity
     */
    SetAssocArray(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), entries_(std::size_t{sets} * ways),
          payloads_(std::size_t{sets} * ways)
    {
        upr_assert(sets >= 1);
        upr_assert(ways >= 1);
    }

    /** Number of sets. */
    std::uint32_t sets() const { return sets_; }
    /** Associativity. */
    std::uint32_t ways() const { return ways_; }

    /**
     * Look up @p tag in set @p set_index. A hit becomes the set's
     * most recently used way; a miss names the way fill() replaces.
     * The set must not change between a missing probe and its fill.
     */
    Probe
    probe(std::uint32_t set_index, Tag tag)
    {
        upr_assert(set_index < sets_);
        const std::size_t base = std::size_t{set_index} * ways_;
        // Consecutive probes overwhelmingly repeat the same line, page
        // or pool, so the entry holding the newest stamp is checked
        // first. It is already its set's MRU way: the hit skips the
        // restamp and every set keeps its LRU order.
        const Entry &last = entries_[newest_];
        if (last.stamp == clock_ && last.tag == tag &&
            newest_ - base < ways_) {
            return {newest_, true};
        }
        Entry *set = &entries_[base];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].tag == tag && set[w].stamp != 0) {
                set[w].stamp = ++clock_;
                newest_ = base + w;
                return {newest_, true};
            }
            // Strict < keeps the first of equal stamps: invalid ways
            // all hold 0 and valid stamps are unique.
            if (set[w].stamp < set[victim].stamp)
                victim = w;
        }
        return {base + victim, false};
    }

    /** Payload of the way a hitting probe returned. */
    Payload &payload(const Probe &p) { return payloads_[p.index]; }

    /**
     * Write @p tag and @p payload into the victim of a missing probe
     * and make it the set's most recently used way.
     *
     * @param evicted_out if non-null, receives the evicted payload
     * @return true if a valid entry was evicted
     */
    bool
    fill(const Probe &p, Tag tag, Payload payload,
         Payload *evicted_out = nullptr)
    {
        upr_assert(!p.hit && p.index < entries_.size());
        Entry &e = entries_[p.index];
        const bool evicted = e.stamp != 0;
        if (evicted && evicted_out)
            *evicted_out = payloads_[p.index];
        e.tag = tag;
        e.stamp = ++clock_;
        newest_ = p.index;
        payloads_[p.index] = payload;
        return evicted;
    }

    /** Lookup without LRU update (for inspection in tests). */
    const Payload *
    peek(std::uint32_t set_index, Tag tag) const
    {
        const std::size_t i = findEntry(set_index, tag);
        return i == kMiss ? nullptr : &payloads_[i];
    }

    /** Invalidate a single entry if present. */
    void
    invalidate(std::uint32_t set_index, Tag tag)
    {
        const std::size_t i = findEntry(set_index, tag);
        if (i != kMiss)
            entries_[i].stamp = 0;
    }

    /** Invalidate everything (epoch change / shootdown). */
    void
    invalidateAll()
    {
        for (Entry &e : entries_)
            e.stamp = 0;
    }

    /** Visit every valid entry: cb(set, tag, payload). */
    template <typename Cb>
    void
    forEachValid(Cb &&cb) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].stamp != 0) {
                cb(static_cast<std::uint32_t>(i / ways_), entries_[i].tag,
                   payloads_[i]);
            }
        }
    }

    /** Count of valid entries. */
    std::uint32_t
    validCount() const
    {
        std::uint32_t n = 0;
        for (const Entry &e : entries_)
            n += e.stamp != 0 ? 1 : 0;
        return n;
    }

  private:
    static constexpr std::size_t kMiss = ~std::size_t{0};

    struct Entry
    {
        Tag tag{};
        /** Last-use clock value; 0 = invalid. */
        std::uint64_t stamp = 0;
    };

    std::size_t
    findEntry(std::uint32_t set_index, Tag tag) const
    {
        upr_assert(set_index < sets_);
        const std::size_t base = std::size_t{set_index} * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Entry &e = entries_[base + w];
            if (e.stamp != 0 && e.tag == tag)
                return base + w;
        }
        return kMiss;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_;
    std::vector<Payload> payloads_;
    /**
     * Newest stamp handed out. It starts at 1, above every initial
     * (invalid, 0) stamp, so no entry holds it before the first fill.
     */
    std::uint64_t clock_ = 1;
    /** Index of the entry that last received a stamp. */
    std::size_t newest_ = 0;
};

} // namespace upr

#endif // UPR_ARCH_SET_ASSOC_HH
