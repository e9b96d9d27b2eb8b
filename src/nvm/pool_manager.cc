#include "nvm/pool_manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "faultinject/fault_stats.hh"
#include "faultinject/transient.hh"
#include "nvm/engine.hh"
#include "nvm/txn.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

/** Host nanoseconds since @p t0 (observability histograms only). */
std::uint64_t
hostNsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}
/** Pools attach on 64 KiB boundaries. */
constexpr Bytes kAttachAlign = 64 * 1024;
/** First usable address in the NVM half (guard page below). */
constexpr SimAddr kNvmFirst = Layout::kNvmBase + kAttachAlign;
} // namespace

PoolManager::PoolManager(AddressSpace &space, Placement placement,
                         std::uint64_t seed)
    : space_(space), placement_(placement), rng_(seed),
      bump_(kNvmFirst), stats_("pools")
{
    stats_.registerCounter("attaches", attaches_, "pool attach events");
    stats_.registerCounter("detaches", detaches_, "pool detach events");
    stats_.registerCounter("ra2va", ra2vaCalls_,
                           "software relative-to-virtual translations");
    stats_.registerCounter("va2ra", va2raCalls_,
                           "software virtual-to-relative translations");
}

std::uint32_t
PoolManager::generationOf(PoolId id) const
{
    auto it = pools_.find(id);
    return it == pools_.end() ? 0 : it->second.generation;
}

SimAddr
PoolManager::placeRange(Bytes size)
{
    SimAddr base = bump_;
    if (placement_ == Placement::Randomized) {
        // Skip a random number of 64 KiB slots (0..255) so the attach
        // address differs between runs and between reopen cycles.
        base += kAttachAlign * rng_.nextBounded(256);
    }
    bump_ = roundUp(base + size, kAttachAlign) + kAttachAlign;
    if (bump_ >= Layout::kVaEnd) {
        throw Fault(FaultKind::BadUsage, "NVM half exhausted");
    }
    return base;
}

PoolId
PoolManager::createPool(const std::string &name, Bytes size,
                        EngineKind engine)
{
    if (byName_.count(name)) {
        throw Fault(FaultKind::BadUsage,
                    "pool name '" + name + "' already in use");
    }
    if (nextId_ > kMaxPoolId) {
        throw Fault(FaultKind::BadUsage,
                    "pool IDs exhausted (the relative-pointer field "
                    "holds 31 bits)");
    }
    const PoolId id = nextId_++;
    Entry entry;
    entry.pool = std::make_unique<Pool>(id, name, size, engine);
    entry.allocator = std::make_unique<PoolAllocator>(*entry.pool);
    entry.allocator->format();
    entry.size = size;
    pools_.emplace(id, std::move(entry));
    byName_.emplace(name, id);
    attach(id);
    return id;
}

PoolId
PoolManager::openPool(const std::string &name)
{
    auto it = byName_.find(name);
    if (it == byName_.end()) {
        throw Fault(FaultKind::BadUsage,
                    "no pool named '" + name + "'");
    }
    const PoolId id = it->second;
    Entry &entry = pools_.at(id);
    if (entry.attached) {
        throw Fault(FaultKind::BadUsage,
                    "pool '" + name + "' is already attached");
    }
    const auto t0 = std::chrono::steady_clock::now();
    attach(id);
    openNs_.record(hostNsSince(t0));
    obs::traceEvent(obs::EventKind::PoolOpen, id);
    return id;
}

void
PoolManager::attach(PoolId id)
{
    Entry &entry = pools_.at(id);
    upr_assert(!entry.attached);
    const SimAddr base = placeRange(entry.size);
    char label[32];
    std::snprintf(label, sizeof(label), "pool:%u", id);
    space_.map(base, entry.size, entry.pool->backing(), 0, label, id);
    entry.attached = true;
    entry.base = base;
    ++entry.generation;
    memo_ = {};
    ++attaches_;
    ++epoch_;
    obs::traceEvent(obs::EventKind::PoolAttach, id, base);
}

void
PoolManager::detach(PoolId id)
{
    auto it = pools_.find(id);
    if (it == pools_.end()) {
        throw Fault(FaultKind::BadRelativeAddress,
                    "detach of unknown pool");
    }
    Entry &entry = it->second;
    if (!entry.attached) {
        throw Fault(FaultKind::BadUsage, "pool is not attached");
    }
    space_.unmap(entry.base);
    entry.attached = false;
    entry.base = 0;
    ++entry.generation;
    memo_ = {};
    ++detaches_;
    ++epoch_;
    obs::traceEvent(obs::EventKind::PoolDetach, id);
}

void
PoolManager::destroy(PoolId id)
{
    auto it = pools_.find(id);
    if (it == pools_.end()) {
        throw Fault(FaultKind::BadRelativeAddress,
                    "destroy of unknown pool");
    }
    if (it->second.attached)
        detach(id);
    byName_.erase(it->second.pool->name());
    pools_.erase(it);
}

bool
PoolManager::isAttached(PoolId id) const
{
    auto it = pools_.find(id);
    return it != pools_.end() && it->second.attached;
}

SimAddr
PoolManager::baseOf(PoolId id) const
{
    auto it = pools_.find(id);
    upr_assert_msg(it != pools_.end() && it->second.attached,
                   "baseOf on unattached pool %u", id);
    return it->second.base;
}

Pool &
PoolManager::pool(PoolId id)
{
    auto it = pools_.find(id);
    upr_assert_msg(it != pools_.end(), "unknown pool %u", id);
    return *it->second.pool;
}

const Pool &
PoolManager::pool(PoolId id) const
{
    auto it = pools_.find(id);
    upr_assert_msg(it != pools_.end(), "unknown pool %u", id);
    return *it->second.pool;
}

PoolAllocator &
PoolManager::allocator(PoolId id)
{
    auto it = pools_.find(id);
    upr_assert_msg(it != pools_.end(), "unknown pool %u", id);
    return *it->second.allocator;
}

SimAddr
PoolManager::ra2va(PoolId id, PoolOffset off) const
{
    ++ra2vaCalls_;
    if (id == memo_.id && off < memo_.size)
        return memo_.base + off;
    // Slow path: distinguish the fault cases, or refill the memo.
    auto it = pools_.find(id);
    if (it == pools_.end()) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "pool %u", id);
        throw Fault(FaultKind::BadRelativeAddress, buf);
    }
    const Entry &entry = it->second;
    if (!entry.attached) {
        throw Fault(FaultKind::PoolDetached,
                    "pool '" + entry.pool->name() + "'");
    }
    if (off >= entry.size) {
        throw Fault(FaultKind::OffsetOutOfPool,
                    "pool '" + entry.pool->name() + "'");
    }
    memo_ = {id, entry.base, entry.size};
    return entry.base + off;
}

std::pair<PoolId, PoolOffset>
PoolManager::va2ra(SimAddr va) const
{
    ++va2raCalls_;
    // The address space is the one VA index: pool regions carry
    // their pool's ID as owner tag.
    const AddressSpace::PoolRegion r = space_.poolRegion(va);
    if (r.pool != 0)
        return {r.pool, static_cast<PoolOffset>(va - r.base)};
    char buf[48];
    std::snprintf(buf, sizeof(buf), "va 0x%llx in no attached pool",
                  (unsigned long long)va);
    throw Fault(FaultKind::UnmappedAccess, buf);
}

SimAddr
PoolManager::pmalloc(PoolId id, Bytes n)
{
    auto it = pools_.find(id);
    upr_assert_msg(it != pools_.end(), "pmalloc in unknown pool %u", id);
    Entry &entry = it->second;
    if (!entry.attached) {
        throw Fault(FaultKind::PoolDetached,
                    "pmalloc in detached pool '" + entry.pool->name() +
                    "'");
    }
    if (entry.quarantined) {
        throw Fault(FaultKind::PoolQuarantined,
                    "pmalloc in quarantined pool '" +
                    entry.pool->name() + "'");
    }
    const PoolOffset off = entry.allocator->alloc(n);
    return entry.base + off;
}

void
PoolManager::pfree(SimAddr va)
{
    auto [id, off] = va2ra(va);
    allocator(id).free(off);
}

std::vector<AttachedRange>
PoolManager::attachedRanges() const
{
    std::vector<AttachedRange> out;
    for (const auto &[id, entry] : pools_)
        if (entry.attached)
            out.push_back({entry.base, entry.size, id});
    std::sort(out.begin(), out.end(),
              [](const AttachedRange &a, const AttachedRange &b) {
                  return a.base < b.base;
              });
    return out;
}

void
PoolManager::saveImage(PoolId id, const std::string &path) const
{
    const Pool &p = pool(id);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        throw Fault(FaultKind::BadUsage,
                    "cannot open '" + path + "' for writing");
    }
    const auto &bytes = p.backing().raw();
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os) {
        throw Fault(FaultKind::BadUsage, "short write to '" + path + "'");
    }
}

PoolId
PoolManager::loadImage(const std::string &path, const std::string &name)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        throw Fault(FaultKind::BadUsage, "cannot open '" + path + "'");
    }
    const std::streamsize n = is.tellg();
    is.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
    is.read(reinterpret_cast<char *>(bytes.data()), n);
    if (!is) {
        throw Fault(FaultKind::BadUsage, "short read from '" + path + "'");
    }

    Backing image;
    image.assign(std::move(bytes));
    return adoptImage(std::move(image), name);
}

PoolId
PoolManager::registerAdopted(std::unique_ptr<Pool> loaded,
                             const std::string &name, bool quarantined)
{
    const PoolId id = loaded->id();
    if (pools_.count(id)) {
        throw Fault(FaultKind::BadUsage,
                    "pool ID from image collides with a live pool");
    }
    nextId_ = std::max(nextId_, id + 1);

    Entry entry;
    entry.pool = std::move(loaded);
    entry.allocator = std::make_unique<PoolAllocator>(*entry.pool);
    entry.size = entry.pool->size();
    entry.quarantined = quarantined;
    pools_.emplace(id, std::move(entry));
    byName_.emplace(name, id);
    const auto t0 = std::chrono::steady_clock::now();
    attach(id);
    openNs_.record(hostNsSince(t0));
    return id;
}

PoolId
PoolManager::adoptImage(Backing image, const std::string &name)
{
    if (byName_.count(name)) {
        throw Fault(FaultKind::BadUsage,
                    "pool name '" + name + "' already in use");
    }
    auto loaded = std::make_unique<Pool>(name, std::move(image));
    // Crash recovery before the pool is reachable: an image saved
    // mid-transaction rolls back to its last consistent state here.
    const auto t0 = std::chrono::steady_clock::now();
    const bool rolled_back = TxnEngine::recover(*loaded);
    recoverNs_.record(hostNsSince(t0));
    if (rolled_back) {
        upr_warn("pool '%s': image carried pending %s-log recovery "
                 "work; restored the last committed state",
                 name.c_str(), engineKindName(loaded->engineKind()));
    }
    const PoolId id = registerAdopted(std::move(loaded), name, false);
    obs::traceEvent(obs::EventKind::PoolAdopt, id, rolled_back);
    return id;
}

ResilientOpenReport
PoolManager::openResilient(Backing image, const std::string &name,
                           const ResilientOpenOptions &opts)
{
    if (byName_.count(name)) {
        throw Fault(FaultKind::BadUsage,
                    "pool name '" + name + "' already in use");
    }
    ResilientOpenReport r;

    // Bounded retry-with-backoff over transient media errors. The
    // backoff is simulated (recorded, not slept): the model cares
    // about the retry *schedule*, not host wall time.
    std::uint64_t backoff = opts.backoffNs;
    for (;;) {
        try {
            maybeTransientOpenFault();
            break;
        } catch (const Fault &f) {
            if (r.retries >= opts.maxRetries) {
                r.outcome = OpenOutcome::Rejected;
                r.diagnosis = f.kind();
                r.detail = "media error persisted through " +
                           std::to_string(r.retries) + " retries";
                FaultStats::instance().detected.add(1);
                return r;
            }
            ++r.retries;
            FaultStats::instance().retries.add(1);
            obs::traceEvent(obs::EventKind::OpenRetry, r.retries,
                            backoff);
            backoff *= 2;
        }
    }

    // Offline diagnosis (and repair) before anything is registered:
    // a damaged pool must never transit through a servable state.
    r.check = checkPool(image, opts.repair);

    if (r.check.status == CheckStatus::Clean ||
        r.check.status == CheckStatus::Repaired) {
        bool non_log_issue = false;
        for (const CheckIssue &i : r.check.issues)
            non_log_issue = non_log_issue ||
                            (i.component != "undo-log" &&
                             i.component != "redo-log");
        const PoolId id = adoptImage(std::move(image), name);
        r.id = id;
        r.outcome = r.check.issues.empty()
                        ? OpenOutcome::Clean
                        : (non_log_issue ? OpenOutcome::Repaired
                                         : OpenOutcome::Recovered);
        if (r.check.status != CheckStatus::Clean)
            FaultStats::instance().detected.add(1);
        return r;
    }

    // Repairable (with repair disabled) or Corrupt: contain. If the
    // header is usable the pool attaches read-only — inspectable,
    // fleet keeps serving; otherwise reject.
    FaultStats::instance().detected.add(1);
    for (const CheckIssue &i : r.check.issues) {
        if (!i.repairable || !opts.repair) {
            r.detail = i.component + ": " + i.what;
            break;
        }
    }
    std::unique_ptr<Pool> loaded;
    try {
        loaded = std::make_unique<Pool>(name, std::move(image));
    } catch (const Fault &f) {
        r.outcome = OpenOutcome::Rejected;
        r.diagnosis = f.kind();
        if (r.detail.empty())
            r.detail = f.what();
        return r;
    }
    // No recovery here: a quarantined pool is evidence. Freeze it.
    loaded->backing().setReadOnly(true);
    const PoolId id = registerAdopted(std::move(loaded), name, true);
    r.id = id;
    r.outcome = OpenOutcome::Quarantined;
    r.diagnosis = FaultKind::CorruptPool;
    FaultStats::instance().quarantined.add(1);
    obs::traceEvent(obs::EventKind::PoolQuarantine, id);
    return r;
}

bool
PoolManager::isQuarantined(PoolId id) const
{
    auto it = pools_.find(id);
    return it != pools_.end() && it->second.quarantined;
}

} // namespace upr
