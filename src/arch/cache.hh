/**
 * @file
 * Single-level set-associative cache timing model (LRU, write-back
 * write-allocate). Purely a hit/miss filter: the CacheHierarchy
 * composes three of these plus memory latency.
 */

#ifndef UPR_ARCH_CACHE_HH
#define UPR_ARCH_CACHE_HH

#include <string>

#include "arch/params.hh"
#include "arch/set_assoc.hh"
#include "common/bits.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace upr
{

/** One cache level; addresses are simulated virtual addresses. */
class Cache
{
  public:
    /**
     * @param name stats group name, e.g. "l1d"
     * @param size total capacity in bytes
     * @param ways associativity
     * @param line_bytes cache line size (power of two)
     */
    Cache(const std::string &name, Bytes size, std::uint32_t ways,
          Bytes line_bytes)
        : lineBytes_(line_bytes),
          lineShift_(log2i(line_bytes)),
          sets_(static_cast<std::uint32_t>(size / (ways * line_bytes))),
          tagShift_(log2i(sets_)),
          array_(sets_, ways),
          stats_(name)
    {
        upr_assert(isPow2(line_bytes));
        upr_assert_msg(isPow2(sets_), "cache '%s': set count not pow2",
                       name.c_str());
        stats_.registerCounter("hits", hits_, "cache hits");
        stats_.registerCounter("misses", misses_, "cache misses");
        stats_.registerCounter("writebacks", writebacks_,
                               "dirty evictions");
    }

    /**
     * Access one line.
     * @param addr any byte address inside the line
     * @param is_write whether the access dirties the line
     * @return true on hit; on miss the line is filled
     */
    bool
    access(SimAddr addr, bool is_write)
    {
        const std::uint64_t line = addr >> lineShift_;
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & (sets_ - 1));
        const std::uint64_t tag = line >> tagShift_;

        const auto p = array_.probe(set, tag);
        if (p.hit) {
            array_.payload(p).dirty |= is_write;
            ++hits_;
            return true;
        }
        ++misses_;
        LineState victim;
        if (array_.fill(p, tag, LineState{is_write}, &victim) &&
            victim.dirty) {
            ++writebacks_;
        }
        return false;
    }

    /** First byte address of the line containing @p addr. */
    SimAddr lineBase(SimAddr addr) const
    {
        return addr & ~(lineBytes_ - 1);
    }

    /** Drop all lines. */
    void flush() { array_.invalidateAll(); }

    /** Zero the counters (contents stay warm). */
    void resetStats() { stats_.resetAll(); }

    const StatGroup &stats() const { return stats_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    struct LineState
    {
        bool dirty = false;
    };

    Bytes lineBytes_;
    unsigned lineShift_;
    std::uint32_t sets_;
    unsigned tagShift_;
    SetAssocArray<std::uint64_t, LineState> array_;

    StatGroup stats_;
    Counter hits_;
    Counter misses_;
    Counter writebacks_;
};

/**
 * Three-level hierarchy returning total access latency and the level
 * that served the access. Latencies are additive down the hierarchy
 * (L1 probe + L2 probe + ... + memory), the usual blocking model.
 */
class CacheHierarchy
{
  public:
    /** Which component ultimately serviced an access. */
    enum class ServedBy { L1, L2, L3, Dram, Nvm };

    CacheHierarchy(const MachineParams &params)
        : params_(params),
          l1_("l1d", params.l1Size, params.l1Ways, params.cacheLineBytes),
          l2_("l2", params.l2Size, params.l2Ways, params.cacheLineBytes),
          l3_("l3", params.l3Size, params.l3Ways, params.cacheLineBytes)
    {}

    /**
     * Access memory at @p addr.
     * @param is_nvm whether the backing medium is NVM (bit 47)
     * @param served optional out-param for the serving level
     * @return access latency in cycles
     */
    Cycles
    access(SimAddr addr, bool is_write, bool is_nvm,
           ServedBy *served = nullptr)
    {
        Cycles lat = params_.l1Latency;
        if (l1_.access(addr, is_write)) {
            if (served)
                *served = ServedBy::L1;
            return lat;
        }
        lat += params_.l2Latency;
        if (l2_.access(addr, is_write)) {
            if (served)
                *served = ServedBy::L2;
            return lat;
        }
        lat += params_.l3Latency;
        if (l3_.access(addr, is_write)) {
            if (served)
                *served = ServedBy::L3;
            return lat;
        }
        if (is_nvm) {
            lat += params_.nvmLatency;
            if (served)
                *served = ServedBy::Nvm;
        } else {
            lat += params_.dramLatency;
            if (served)
                *served = ServedBy::Dram;
        }
        return lat;
    }

    /** Drop all cached state (used between benchmark phases). */
    void
    flushAll()
    {
        l1_.flush();
        l2_.flush();
        l3_.flush();
    }

    /** Zero all counters (contents stay warm). */
    void
    resetStats()
    {
        l1_.resetStats();
        l2_.resetStats();
        l3_.resetStats();
    }

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

  private:
    const MachineParams &params_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
};

} // namespace upr

#endif // UPR_ARCH_CACHE_HH
