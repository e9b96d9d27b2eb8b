/**
 * @file
 * MetricsRegistry: the process-wide federation point of every
 * StatGroup and latency histogram in the runtime.
 *
 * Components register their StatGroup (and histograms) on
 * construction through the RAII handles below and deregister on
 * destruction. A snapshot flattens everything live into a
 * name -> value map ("group.stat") plus histogram data; same-named
 * entries from multiple live instances (e.g. two Runtimes, each with
 * a "core" machine group) sum — the registry reports the fleet, not
 * one instance.
 *
 * Sharded components instead register under a per-shard name prefix
 * (ScopedRegistrationPrefix, e.g. "shard0."): a prefixed name is a
 * *claim of uniqueness*, so a second registration under the same
 * prefixed name is a collision — faulted under UPR_SANITIZE, renamed
 * with a "#2"-style suffix otherwise. Unprefixed registrations keep
 * the legacy fleet-summing semantics.
 *
 * Named snapshots + delta() let benches and tests assert on
 * *intervals* ("what did phase 2 add?") instead of process totals.
 */

#ifndef UPR_OBS_METRICS_HH
#define UPR_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hh"

namespace upr
{
class StatGroup; // from common/stats.hh; not included to stay light
} // namespace upr

namespace upr::obs
{

/** Flattened view of everything registered at one instant. */
struct MetricsSnapshot
{
    /** "group.stat" -> value, summed across live instances. */
    std::map<std::string, std::uint64_t> counters;
    /** histogram name -> merged data across live instances. */
    std::map<std::string, HistogramData> histograms;

    /**
     * The interval this - older: counters subtract (saturating at
     * zero so a component re-created between snapshots cannot
     * underflow), histograms subtract bucket-wise. Entries absent
     * from @p older pass through unchanged.
     */
    MetricsSnapshot minus(const MetricsSnapshot &older) const;

    /** Render as a deterministic JSON document. */
    std::string toJson() const;
};

/** The process-wide registry. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    // Registration (prefer the RAII handles below) ------------------
    void addGroup(const StatGroup *group);
    void removeGroup(const StatGroup *group);
    void addHistogram(const std::string &name,
                      const LatencyHistogram *hist);
    void removeHistogram(const LatencyHistogram *hist);

    /**
     * Register @p fn, keyed by @p owner, to run at the start of every
     * snapshot(): a component whose registered values can trail its
     * work — a Runtime whose timing model runs on a companion thread
     * — brings them up to date there. Hooks run under the registry
     * lock and must not register or snapshot.
     */
    void addSyncHook(const void *owner, std::function<void()> fn);
    void removeSyncHook(const void *owner);

    /** Run every sync hook, then flatten everything registered. */
    MetricsSnapshot snapshot() const;

    /** Store snapshot() under @p name (overwrites). */
    void saveNamed(const std::string &name);

    /**
     * Retrieve a named snapshot.
     * @return empty snapshot if @p name was never saved
     */
    MetricsSnapshot named(const std::string &name) const;

    /** Drop a named snapshot (no-op if absent). */
    void dropNamed(const std::string &name);

    /** Live registration counts (tests). */
    std::size_t groupCount() const;
    std::size_t histogramCount() const;

  private:
    MetricsRegistry() = default;

    struct GroupEntry
    {
        const StatGroup *group;
        /** Snapshot name: prefix + group name (+ "#N" on collision).
         * Empty prefix ("displayName" == group name) marks a legacy
         * registration, which sums with same-named peers. */
        std::string displayName;
        bool prefixed;
    };

    mutable std::mutex mu_;
    std::vector<GroupEntry> groups_;
    std::vector<std::pair<std::string, const LatencyHistogram *>>
        histograms_;
    std::vector<std::pair<const void *, std::function<void()>>>
        syncHooks_;
    std::map<std::string, MetricsSnapshot> named_;
};

namespace detail
{
/** The calling thread's registration prefix ("" = legacy). */
std::string &registrationPrefixSlot();
} // namespace detail

/** The prefix the calling thread registers metrics under. */
inline const std::string &
registrationPrefix()
{
    return detail::registrationPrefixSlot();
}

/**
 * RAII: every StatGroup/histogram registered by this thread inside
 * the scope gets @p prefix prepended to its snapshot name (the shard
 * federation hook: construct a shard's Runtime and stats under
 * ScopedRegistrationPrefix("shardN.") and its metrics appear as
 * "shardN.core.*", "shardN.txn.*", ...). Nested scopes concatenate.
 */
class ScopedRegistrationPrefix
{
  public:
    explicit ScopedRegistrationPrefix(const std::string &prefix)
        : previous_(detail::registrationPrefixSlot())
    {
        detail::registrationPrefixSlot() = previous_ + prefix;
    }

    /** Tag: clear the prefix for the scope instead of extending it. */
    struct Unprefixed
    {
    };

    /** Register unprefixed inside the scope, whatever encloses it
     * (process-wide singletons first touched from a shard's scope). */
    explicit ScopedRegistrationPrefix(Unprefixed)
        : previous_(detail::registrationPrefixSlot())
    {
        detail::registrationPrefixSlot().clear();
    }

    ~ScopedRegistrationPrefix()
    {
        detail::registrationPrefixSlot() = previous_;
    }

    ScopedRegistrationPrefix(const ScopedRegistrationPrefix &) = delete;
    ScopedRegistrationPrefix &
    operator=(const ScopedRegistrationPrefix &) = delete;

  private:
    std::string previous_;
};

/** RAII registration of one StatGroup for an owning component. */
class ScopedMetricsGroup
{
  public:
    explicit ScopedMetricsGroup(const StatGroup &group) : group_(&group)
    {
        MetricsRegistry::instance().addGroup(group_);
    }

    ~ScopedMetricsGroup()
    {
        MetricsRegistry::instance().removeGroup(group_);
    }

    ScopedMetricsGroup(const ScopedMetricsGroup &) = delete;
    ScopedMetricsGroup &operator=(const ScopedMetricsGroup &) = delete;

  private:
    const StatGroup *group_;
};

/** RAII registration of one histogram under a fixed name. */
class ScopedMetricsHistogram
{
  public:
    ScopedMetricsHistogram(std::string name,
                           const LatencyHistogram &hist)
        : hist_(&hist)
    {
        MetricsRegistry::instance().addHistogram(std::move(name),
                                                 hist_);
    }

    ~ScopedMetricsHistogram()
    {
        MetricsRegistry::instance().removeHistogram(hist_);
    }

    ScopedMetricsHistogram(const ScopedMetricsHistogram &) = delete;
    ScopedMetricsHistogram &
    operator=(const ScopedMetricsHistogram &) = delete;

  private:
    const LatencyHistogram *hist_;
};

} // namespace upr::obs

#endif // UPR_OBS_METRICS_HH
