/**
 * @file
 * The simulated 48-bit process virtual address space (paper Fig 2).
 *
 * Layout: the 256 TB space is split into two equal halves.
 *   [0x0000'0000'0000, 0x8000'0000'0000)  DRAM (volatile) half, bit47=0
 *   [0x8000'0000'0000, 0x1'0000'0000'0000) NVM (persistent) half, bit47=1
 *
 * Whether an address points to NVM is decided by checking bit 47, never
 * by translating to a physical address — exactly the paper's design.
 *
 * The space maps virtual ranges onto Backing storage. Mappings come and
 * go (pools attach/detach, possibly at new addresses); Backings persist.
 */

#ifndef UPR_MEM_ADDRESS_SPACE_HH
#define UPR_MEM_ADDRESS_SPACE_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hh"
#include "common/fault.hh"
#include "common/types.hh"
#include "mem/backing.hh"

namespace upr
{

/** Virtual-address layout constants. */
struct Layout
{
    /** Bits of virtual address implemented. */
    static constexpr unsigned kVaBits = 48;
    /** Bit that selects the NVM half (paper: bit 47). */
    static constexpr unsigned kNvmBit = 47;
    /** First address of the NVM half. */
    static constexpr SimAddr kNvmBase = 1ULL << kNvmBit;
    /** One past the last valid virtual address. */
    static constexpr SimAddr kVaEnd = 1ULL << kVaBits;
    /** Simulated page size. */
    static constexpr Bytes kPageSize = 4096;

    /** True if @p va lies in the NVM half (bit 47 set). */
    static bool isNvm(SimAddr va) { return bit(va, kNvmBit); }
};

/**
 * Sparse simulated address space: an ordered set of non-overlapping
 * mapped regions, each backed by (a slice of) a Backing.
 *
 * Lookup sits under every simulated load and store, so regions live in
 * a base-sorted flat vector (binary search) fronted by an MRU
 * last-region cache: almost all accesses hit the same region as their
 * predecessor (the heap, or the one attached pool), making the common
 * case a single bounds compare. Mappings change rarely (pool
 * attach/detach, heap growth), so O(n) insert/erase is irrelevant.
 * A region mapping a pool carries the pool's ID as its owner tag, so
 * this is also the one VA -> pool index (PoolManager::va2ra).
 */
class AddressSpace
{
  public:
    AddressSpace() = default;
    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map [base, base+size) onto @p backing starting at
     * @p backing_off. The backing must already be large enough.
     *
     * @param name diagnostic region name (e.g. "pool:7", "heap")
     * @param owner ID of the pool mapped here (0 = not a pool)
     */
    void
    map(SimAddr base, Bytes size, Backing &backing, Bytes backing_off,
        std::string name, PoolId owner = 0)
    {
        upr_assert_msg(size > 0, "empty mapping '%s'", name.c_str());
        upr_assert_msg(base + size <= Layout::kVaEnd,
                       "mapping '%s' past end of address space",
                       name.c_str());
        upr_assert_msg(backing_off + size <= backing.size(),
                       "mapping '%s' larger than its backing",
                       name.c_str());
        if (overlapsMapped(base, size)) {
            throw Fault(FaultKind::BadUsage,
                        "mapping '" + name + "' overlaps existing region");
        }
        regions_.insert(lowerBound(base),
                        Region{base, size, &backing, backing_off,
                               std::move(name), owner});
        mru_ = kNoMru; // insertion shifts indices
    }

    /** Remove the mapping that starts exactly at @p base. */
    void
    unmap(SimAddr base)
    {
        auto it = lowerBound(base);
        if (it == regions_.end() || it->base != base) {
            throw Fault(FaultKind::BadUsage,
                        "unmap of address with no region");
        }
        regions_.erase(it);
        mru_ = kNoMru; // erasure shifts indices
    }

    /** True if [addr, addr+size) is fully inside one mapped region. */
    bool
    isMapped(SimAddr addr, Bytes size = 1) const
    {
        const Region *r = find(addr);
        return r && addr + size <= r->base + r->size;
    }

    /** Read @p n bytes at @p addr into @p dst. */
    void
    readBytes(SimAddr addr, void *dst, Bytes n) const
    {
        const Region &r = require(addr, n);
        r.backing->read(r.backingOff + (addr - r.base), dst, n);
    }

    /** Write @p n bytes from @p src to @p addr. */
    void
    writeBytes(SimAddr addr, const void *src, Bytes n)
    {
        const Region &r = require(addr, n);
        r.backing->write(r.backingOff + (addr - r.base), src, n);
    }

    /**
     * Raw host pointer covering [addr, addr+n) for a direct read,
     * or nullptr when the range is unmapped, split, or the backing
     * needs the full read() path (an installed write stage). The
     * pointer is only valid until the next map/unmap or backing
     * grow/assign — callers must re-request it per access, which the
     * MRU cache keeps to a couple of compares.
     */
    const std::uint8_t *
    rawReadSpan(SimAddr addr, Bytes n) const
    {
        const Region *r = find(addr);
        if (!r || addr + n > r->base + r->size ||
            !r->backing->plainRead())
            return nullptr;
        return r->backing->rawData() + r->backingOff +
               (addr - r->base);
    }

    /** Write analogue of rawReadSpan(): also requires plainWrite(). */
    std::uint8_t *
    rawWriteSpan(SimAddr addr, Bytes n)
    {
        const Region *r = find(addr);
        if (!r || addr + n > r->base + r->size ||
            !r->backing->plainWrite())
            return nullptr;
        return r->backing->rawData() + r->backingOff +
               (addr - r->base);
    }

    /** A whole region exposed as raw host memory. */
    struct RawRegion
    {
        SimAddr base = 0;
        Bytes size = 0;
        std::uint8_t *data = nullptr;
    };

    /**
     * The full extent of the plain-memory region containing @p addr,
     * or an empty RawRegion. Callers holding the result across
     * accesses must drop it before anything that can remap regions,
     * grow a backing, or change a backing's plain-memory state
     * (stages, observers, persistence domain, quarantine).
     */
    RawRegion
    rawRegion(SimAddr addr)
    {
        const Region *r = find(addr);
        if (!r || !r->backing->plainWrite())
            return RawRegion{};
        return RawRegion{r->base, r->size,
                         r->backing->rawData() + r->backingOff};
    }

    /** Typed read of a trivially copyable value. */
    template <typename T>
    T
    read(SimAddr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        readBytes(addr, &value, sizeof(T));
        return value;
    }

    /** Typed write of a trivially copyable value. */
    template <typename T>
    void
    write(SimAddr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(addr, &value, sizeof(T));
    }

    /** Number of currently mapped regions. */
    std::size_t regionCount() const { return regions_.size(); }

    /** Name of the region containing @p addr, or "" if unmapped. */
    std::string
    regionName(SimAddr addr) const
    {
        const Region *r = find(addr);
        return r ? r->name : std::string();
    }

    /** The pool a mapped address belongs to (pool 0 = none). */
    struct PoolRegion
    {
        PoolId pool = 0;
        SimAddr base = 0;
    };

    /**
     * Owner tag and base of the region containing @p addr; pool 0
     * when @p addr is unmapped or its region is not a pool.
     */
    PoolRegion
    poolRegion(SimAddr addr) const
    {
        const Region *r = find(addr);
        return r ? PoolRegion{r->owner, r->base} : PoolRegion{};
    }

  private:
    struct Region
    {
        SimAddr base;
        Bytes size;
        Backing *backing;
        Bytes backingOff;
        std::string name;
        PoolId owner;
    };

    static constexpr std::size_t kNoMru = ~std::size_t{0};

    /** First region with base >= @p addr. */
    std::vector<Region>::iterator
    lowerBound(SimAddr addr)
    {
        return std::lower_bound(
            regions_.begin(), regions_.end(), addr,
            [](const Region &r, SimAddr a) { return r.base < a; });
    }

    /** Region containing @p addr, or nullptr. */
    const Region *
    find(SimAddr addr) const
    {
        // MRU fast path: consecutive accesses overwhelmingly land in
        // the same region.
        if (mru_ < regions_.size()) {
            const Region &m = regions_[mru_];
            if (addr - m.base < m.size)
                return &m;
        }
        // Binary search for the last region with base <= addr.
        std::size_t lo = 0, hi = regions_.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (regions_[mid].base <= addr)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == 0)
            return nullptr;
        const Region &r = regions_[lo - 1];
        if (addr - r.base >= r.size)
            return nullptr;
        mru_ = lo - 1;
        return &r;
    }

    /** Region fully containing [addr, addr+n), or throw. */
    const Region &
    require(SimAddr addr, Bytes n) const
    {
        const Region *r = find(addr);
        if (!r || addr + n > r->base + r->size) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "va 0x%llx size %llu",
                          (unsigned long long)addr,
                          (unsigned long long)n);
            throw Fault(FaultKind::UnmappedAccess, buf);
        }
        return *r;
    }

    bool
    overlapsMapped(SimAddr base, Bytes size) const
    {
        auto it = const_cast<AddressSpace *>(this)->lowerBound(base);
        if (it != regions_.end() && it->base < base + size)
            return true;
        if (it != regions_.begin()) {
            const Region &r = *std::prev(it);
            if (base < r.base + r.size)
                return true;
        }
        return false;
    }

    /** Base-sorted, non-overlapping mapped regions. */
    std::vector<Region> regions_;
    /** Index of the last region a lookup resolved to (kNoMru = none). */
    mutable std::size_t mru_ = kNoMru;
};

} // namespace upr

#endif // UPR_MEM_ADDRESS_SPACE_HH
