#include "obs/metrics.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/fault.hh"
#include "common/stats.hh"

namespace upr::obs
{

namespace detail
{

std::string &
registrationPrefixSlot()
{
    thread_local std::string prefix;
    return prefix;
}

} // namespace detail

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::addGroup(const StatGroup *group)
{
    const std::string &prefix = registrationPrefix();
    std::lock_guard<std::mutex> lock(mu_);
    GroupEntry entry{group, prefix + group->name(), !prefix.empty()};
    if (entry.prefixed) {
        // A prefixed name claims uniqueness: a collision means two
        // live components think they own the same shard-qualified
        // name. Fail loudly under the sanitized build; otherwise keep
        // both registrations distinguishable with a "#N" suffix.
        const auto taken = [&](const std::string &name) {
            return std::any_of(groups_.begin(), groups_.end(),
                               [&](const GroupEntry &e) {
                                   return e.prefixed &&
                                          e.displayName == name;
                               });
        };
        if (taken(entry.displayName)) {
#ifdef UPR_SANITIZE
            throw Fault(FaultKind::BadUsage,
                        "duplicate metrics group '" +
                            entry.displayName +
                            "' registered under a shard prefix");
#else
            unsigned n = 2;
            std::string renamed;
            do {
                renamed = entry.displayName + "#" + std::to_string(n);
                ++n;
            } while (taken(renamed));
            entry.displayName = std::move(renamed);
#endif
        }
    }
    groups_.push_back(std::move(entry));
}

void
MetricsRegistry::removeGroup(const StatGroup *group)
{
    std::lock_guard<std::mutex> lock(mu_);
    groups_.erase(std::remove_if(groups_.begin(), groups_.end(),
                                 [group](const GroupEntry &e) {
                                     return e.group == group;
                                 }),
                  groups_.end());
}

void
MetricsRegistry::addHistogram(const std::string &name,
                              const LatencyHistogram *hist)
{
    const std::string full = registrationPrefix() + name;
    std::lock_guard<std::mutex> lock(mu_);
    histograms_.emplace_back(full, hist);
}

void
MetricsRegistry::removeHistogram(const LatencyHistogram *hist)
{
    std::lock_guard<std::mutex> lock(mu_);
    histograms_.erase(
        std::remove_if(histograms_.begin(), histograms_.end(),
                       [hist](const auto &kv) {
                           return kv.second == hist;
                       }),
        histograms_.end());
}

void
MetricsRegistry::addSyncHook(const void *owner, std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(mu_);
    syncHooks_.emplace_back(owner, std::move(fn));
}

void
MetricsRegistry::removeSyncHook(const void *owner)
{
    std::lock_guard<std::mutex> lock(mu_);
    syncHooks_.erase(
        std::remove_if(syncHooks_.begin(), syncHooks_.end(),
                       [owner](const auto &kv) {
                           return kv.first == owner;
                       }),
        syncHooks_.end());
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &hook : syncHooks_)
        hook.second();
    MetricsSnapshot snap;
    for (const GroupEntry &e : groups_) {
        e.group->forEach([&](const std::string &stat,
                             std::uint64_t value, const std::string &) {
            snap.counters[e.displayName + "." + stat] += value;
        });
    }
    for (const auto &[name, hist] : histograms_)
        snap.histograms[name].merge(hist->data());
    return snap;
}

void
MetricsRegistry::saveNamed(const std::string &name)
{
    MetricsSnapshot snap = snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    named_[name] = std::move(snap);
}

MetricsSnapshot
MetricsRegistry::named(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = named_.find(name);
    return it == named_.end() ? MetricsSnapshot{} : it->second;
}

void
MetricsRegistry::dropNamed(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    named_.erase(name);
}

std::size_t
MetricsRegistry::groupCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return groups_.size();
}

std::size_t
MetricsRegistry::histogramCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_.size();
}

MetricsSnapshot
MetricsSnapshot::minus(const MetricsSnapshot &older) const
{
    MetricsSnapshot d;
    for (const auto &[name, value] : counters) {
        auto it = older.counters.find(name);
        const std::uint64_t base =
            it == older.counters.end() ? 0 : it->second;
        d.counters[name] = value >= base ? value - base : 0;
    }
    for (const auto &[name, hist] : histograms) {
        auto it = older.histograms.find(name);
        d.histograms[name] =
            it == older.histograms.end() ? hist
                                         : hist.minus(it->second);
    }
    return d;
}

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::string out;
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out += first ? "\n    " : ",\n    ";
        appendEscaped(out, name);
        out += ": ";
        appendU64(out, value);
        first = false;
    }
    out += first ? "}" : "\n  }";
    out += ",\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out += first ? "\n    " : ",\n    ";
        appendEscaped(out, name);
        out += ": {\"count\": ";
        appendU64(out, h.count);
        out += ", \"sum\": ";
        appendU64(out, h.sum);
        out += ", \"min\": ";
        appendU64(out, h.min);
        out += ", \"max\": ";
        appendU64(out, h.max);
        out += ", \"p50\": ";
        appendU64(out, h.percentile(50));
        out += ", \"p90\": ";
        appendU64(out, h.percentile(90));
        out += ", \"p99\": ";
        appendU64(out, h.percentile(99));
        out += "}";
        first = false;
    }
    out += first ? "}" : "\n  }";
    out += "\n}\n";
    return out;
}

} // namespace upr::obs
