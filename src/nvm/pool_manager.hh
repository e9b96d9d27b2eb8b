/**
 * @file
 * PoolManager: the OS-analogue that creates, opens, attaches, detaches
 * and destroys persistent pools, assigns system-wide pool IDs, and maps
 * pools into the NVM half of the simulated address space.
 *
 * Attach addresses are deliberately *not* stable: with the default
 * Randomized placement, every attach lands the pool at a fresh virtual
 * address, exactly the property that forces persistent pointers to be
 * relative (paper Sec II). The manager is also the software ra2va/va2ra
 * authority backing the POLB/VALB hardware models.
 */

#ifndef UPR_NVM_POOL_MANAGER_HH
#define UPR_NVM_POOL_MANAGER_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "mem/address_space.hh"
#include "nvm/pool.hh"
#include "nvm/pool_allocator.hh"
#include "nvm/pool_check.hh"
#include "obs/metrics.hh"

namespace upr
{

/** How a resilient open left the pool. */
enum class OpenOutcome
{
    Clean,       //!< no damage, no pending recovery
    Recovered,   //!< a pending undo log was replayed, nothing else
    Repaired,    //!< media damage found and repaired before serving
    Quarantined, //!< unrepairable damage: attached read-only
    Rejected,    //!< header unusable: not even safe to attach
};

/** Stable printable name (reports, BENCH output). */
inline const char *
openOutcomeName(OpenOutcome o)
{
    switch (o) {
      case OpenOutcome::Clean:       return "clean";
      case OpenOutcome::Recovered:   return "recovered";
      case OpenOutcome::Repaired:    return "repaired";
      case OpenOutcome::Quarantined: return "quarantined";
      case OpenOutcome::Rejected:    return "rejected";
    }
    return "unknown";
}

/** Tuning of PoolManager::openResilient. */
struct ResilientOpenOptions
{
    /** Retries after the first attempt on Fault{MediaError}. */
    unsigned maxRetries = 3;
    /** Simulated backoff before the first retry; doubles per retry. */
    std::uint64_t backoffNs = 1000;
    /** Run check/repair; false = any non-clean image quarantines. */
    bool repair = true;
};

/** What a resilient open did and found. */
struct ResilientOpenReport
{
    /** The registered pool's ID; 0 when the image was rejected. */
    PoolId id = 0;
    OpenOutcome outcome = OpenOutcome::Clean;
    /** Typed cause when Quarantined/Rejected. */
    FaultKind diagnosis = FaultKind::CorruptPool;
    std::string detail;
    unsigned retries = 0;
    CheckReport check;
};

/** How attach chooses virtual addresses within the NVM half. */
enum class Placement
{
    /** Pack pools one after another (deterministic). */
    Sequential,
    /** Insert random gaps so each attach lands somewhere new. */
    Randomized,
};

/** One pool currently mapped into the address space. */
struct AttachedRange
{
    SimAddr base;
    Bytes size;
    PoolId id;
};

/** Registry and mapper for all pools of the simulated system. */
class PoolManager
{
  public:
    /**
     * @param space the process address space to map pools into
     * @param placement attach address policy
     * @param seed RNG seed for Randomized placement
     */
    explicit PoolManager(AddressSpace &space,
                         Placement placement = Placement::Randomized,
                         std::uint64_t seed = 0x9e3779b9U);

    PoolManager(const PoolManager &) = delete;
    PoolManager &operator=(const PoolManager &) = delete;

    /**
     * Create a new pool, format its allocator, and attach it. The
     * transaction engine is branded into the header for the pool's
     * lifetime (see EngineKind).
     * @return the new pool's ID
     */
    PoolId createPool(const std::string &name, Bytes size,
                      EngineKind engine = EngineKind::Undo);

    /** Re-attach a known (detached) pool by name at a fresh VA. */
    PoolId openPool(const std::string &name);

    /** Unmap the pool; its contents stay intact for a later open. */
    void detach(PoolId id);

    /** Detach (if needed) and erase the pool and its contents. */
    void destroy(PoolId id);

    /** True if the pool is currently mapped. */
    bool isAttached(PoolId id) const;

    /** True if a pool with this ID exists (attached or not). */
    bool exists(PoolId id) const { return pools_.count(id) != 0; }

    /** ID of the pool registered under @p name, or 0 if none. */
    PoolId
    idByName(const std::string &name) const
    {
        auto it = byName_.find(name);
        return it == byName_.end() ? 0 : it->second;
    }

    /** Base VA of an attached pool. */
    SimAddr baseOf(PoolId id) const;

    /** The pool object (must exist). */
    Pool &pool(PoolId id);
    const Pool &pool(PoolId id) const;

    /** The pool's allocator (must exist). */
    PoolAllocator &allocator(PoolId id);

    /**
     * Relative -> virtual translation (software path).
     * @throws Fault{BadRelativeAddress} unknown pool ID
     * @throws Fault{PoolDetached} pool exists but is unmapped (Fig 10)
     * @throws Fault{OffsetOutOfPool} offset past pool end
     */
    SimAddr ra2va(PoolId id, PoolOffset off) const;

    /**
     * Virtual -> relative translation (software path).
     * @throws Fault{UnmappedAccess} VA in the NVM half but in no
     *         attached pool
     */
    std::pair<PoolId, PoolOffset> va2ra(SimAddr va) const;

    /** Allocate @p n bytes in pool @p id; returns the payload VA. */
    SimAddr pmalloc(PoolId id, Bytes n);

    /** Free a persistent allocation by its VA. */
    void pfree(SimAddr va);

    /** Snapshot of all attached ranges (feeds the VALB/VATB models). */
    std::vector<AttachedRange> attachedRanges() const;

    /**
     * Attach epoch: bumped on every attach/detach. Hardware lookaside
     * buffers use it to invalidate stale translations.
     */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Per-pool attach generation: bumped every time pool @p id
     * attaches or detaches (0 for a pool that does not exist). Lets
     * tests and tools detect that a translation was cached across a
     * relocation.
     */
    std::uint32_t generationOf(PoolId id) const;

    /** Serialize a pool's image to a host file. */
    void saveImage(PoolId id, const std::string &path) const;

    /**
     * Load a pool image from a host file, register it under @p name,
     * and attach it. The pool keeps the ID stored in its image.
     * @return the pool's ID
     */
    PoolId loadImage(const std::string &path, const std::string &name);

    /**
     * Adopt an in-memory pool image (e.g. a crash snapshot), register
     * it under @p name, and attach it. The header is validated and —
     * if the image was saved mid-transaction — crash recovery runs
     * before the pool becomes visible, so callers never observe a
     * half-applied transaction.
     * @throws Fault{CorruptPool} on a malformed image
     * @return the pool's ID (from the image)
     */
    PoolId adoptImage(Backing image, const std::string &name);

    /**
     * Graceful-degradation open: adoptImage for hostile media. Where
     * adoptImage throws on the first sign of damage, openResilient
     *
     *   - retries transient Fault{MediaError}s with exponential
     *     (simulated) backoff,
     *   - runs the pool_check diagnosis, repairing what redundancy
     *     can prove (undo-log scrub, free-list rebuild, header
     *     restore),
     *   - quarantines unrepairably damaged pools: attached read-only
     *     with a typed diagnosis, so the data stays inspectable and
     *     every *other* pool keeps serving, and
     *   - rejects only images whose header is unusable.
     *
     * Never throws for media damage (only for caller errors such as
     * a duplicate name).
     */
    ResilientOpenReport
    openResilient(Backing image, const std::string &name,
                  const ResilientOpenOptions &opts = {});

    /** True if @p id is attached read-only after damage. */
    bool isQuarantined(PoolId id) const;

    /** Statistics (attaches, detaches, translations). */
    const StatGroup &stats() const { return stats_; }

    /** Host-side pool open/attach latency in nanoseconds. */
    const obs::LatencyHistogram &openHistogram() const
    {
        return openNs_;
    }

    /** Host-side crash-recovery latency in nanoseconds. */
    const obs::LatencyHistogram &recoverHistogram() const
    {
        return recoverNs_;
    }

  private:
    /** Pick an attach base for @p size bytes. */
    SimAddr placeRange(Bytes size);

    /** Map @p id at a fresh address. */
    void attach(PoolId id);

    /** The one record of a pool (the POTB row of paper Sec V-A). */
    struct Entry
    {
        std::unique_ptr<Pool> pool;
        std::unique_ptr<PoolAllocator> allocator;
        SimAddr base = 0;
        /** Pool::size(), cached: reading it re-reads the header. */
        Bytes size = 0;
        bool attached = false;
        bool quarantined = false;
        /** Bumped on every attach and detach of this pool. */
        std::uint32_t generation = 0;
    };

    /**
     * Register an already-constructed (validated) pool and attach it.
     * Shared tail of adoptImage and the quarantine path.
     */
    PoolId registerAdopted(std::unique_ptr<Pool> loaded,
                           const std::string &name, bool quarantined);

    AddressSpace &space_;
    Placement placement_;
    Rng rng_;
    PoolId nextId_ = 1;
    SimAddr bump_;
    std::uint64_t epoch_ = 0;

    std::map<PoolId, Entry> pools_;
    std::map<std::string, PoolId> byName_;

    /**
     * The last ra2va hit: ra2va sits under every SW-version pointer
     * check and every POLB walk, and nearly all of them name the same
     * pool. Only attach and detach clear it, so it only ever holds an
     * attached pool (pool 0 = empty; size 0 never matches).
     */
    struct Ra2vaMemo
    {
        PoolId id = 0;
        SimAddr base = 0;
        Bytes size = 0;
    };
    mutable Ra2vaMemo memo_;

    StatGroup stats_;
    Counter attaches_;
    Counter detaches_;
    mutable Counter ra2vaCalls_;
    mutable Counter va2raCalls_;

    /** Host-side latency histograms (observability, not the model). */
    obs::LatencyHistogram openNs_;
    obs::LatencyHistogram recoverNs_;

    /** Observability federation (deregisters on destruction). */
    obs::ScopedMetricsGroup obsGroup_{stats_};
    obs::ScopedMetricsHistogram obsOpenNs_{"pools.openNs", openNs_};
    obs::ScopedMetricsHistogram obsRecoverNs_{"pools.recoverNs",
                                              recoverNs_};
};

} // namespace upr

#endif // UPR_NVM_POOL_MANAGER_HH
