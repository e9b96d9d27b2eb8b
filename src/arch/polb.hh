/**
 * @file
 * POLB — Persistent Object Lookaside Buffer (paper Sec V-A, after
 * Wang et al. [26]): a small fully-associative buffer translating a
 * pool ID to the pool's current base virtual address. Misses invoke
 * the Persistent Object Walker (POW), which walks the kernel's POTB —
 * played here by the PoolManager, the functional authority on pool
 * attachment.
 *
 * The POLB observes the manager's attach epoch and invalidates itself
 * when pools attach/detach (the hardware analogue of a shootdown).
 */

#ifndef UPR_ARCH_POLB_HH
#define UPR_ARCH_POLB_HH

#include "arch/params.hh"
#include "arch/set_assoc.hh"
#include "common/stats.hh"
#include "nvm/pool_manager.hh"

namespace upr
{

/** Result of a hardware translation step. */
struct XlatResult
{
    SimAddr value;   //!< translated address
    Cycles latency;  //!< cycles spent
    bool hit;        //!< serviced without a walk
};

/** Pool-ID -> pool-base lookaside buffer with POW backing. */
class Polb
{
  public:
    Polb(const MachineParams &params, const PoolManager &manager)
        : params_(params), manager_(manager),
          array_(1, params.polbEntries), stats_("polb")
    {
        stats_.registerCounter("accesses", accesses_, "POLB lookups");
        stats_.registerCounter("hits", hits_, "POLB hits");
        stats_.registerCounter("walks", walks_, "POW walks on miss");
    }

    /**
     * Translate relative (pool, offset) to a virtual address.
     * Faults from the walker (detached pool, bad pool ID, offset out
     * of range) propagate as upr::Fault — the hardware fault path.
     */
    XlatResult
    ra2va(PoolId id, PoolOffset off)
    {
        syncEpoch();
        ++accesses_;
        const auto p = array_.probe(0, id);
        if (p.hit) {
            const PoolBase &e = array_.payload(p);
            // A POLB hit still bounds-checks the offset against the
            // cached pool size so out-of-pool offsets fault the same
            // way on the hit and miss paths.
            ++hits_;
            if (off >= e.size) {
                throw Fault(FaultKind::OffsetOutOfPool,
                            "POLB-hit bounds check");
            }
            return {e.base + off, params_.polbHitLatency, true};
        }
        ++walks_;
        // Fill only once the walk succeeds: a faulting walk leaves
        // the buffer as it was.
        const SimAddr va = manager_.ra2va(id, off);
        array_.fill(p, id, PoolBase{va - off, manager_.pool(id).size()});
        return {va, params_.polbHitLatency + params_.powLatency, false};
    }

    /** Drop all entries. */
    void invalidateAll() { array_.invalidateAll(); }

    /** Zero the counters (entries stay warm). */
    void resetStats() { stats_.resetAll(); }

    const StatGroup &stats() const { return stats_; }
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t walkCount() const { return walks_.value(); }

  private:
    void
    syncEpoch()
    {
        if (epoch_ != manager_.epoch()) {
            array_.invalidateAll();
            epoch_ = manager_.epoch();
        }
    }

    /** Cached translation: pool base VA plus size for bounds checks. */
    struct PoolBase
    {
        SimAddr base;
        Bytes size;
    };

    const MachineParams &params_;
    const PoolManager &manager_;
    SetAssocArray<PoolId, PoolBase> array_;
    std::uint64_t epoch_ = ~0ULL;

    StatGroup stats_;
    Counter accesses_;
    Counter hits_;
    Counter walks_;
};

} // namespace upr

#endif // UPR_ARCH_POLB_HH
