/**
 * @file
 * ShardedRuntime: N worker threads, each owning one shard — a full
 * Runtime (address space, machine model, pools, transaction engine)
 * plus a shard-local TxnStats, federated in the MetricsRegistry
 * under shard-prefixed names ("shard0.core.*", "shard0.txn.*", ...).
 *
 * Ownership model (docs/CONCURRENCY.md): a shard's Runtime is
 * single-owner — exactly one thread may have it bound at a time,
 * enforced by Runtime::claimOwner (Fault{WrongShard} on violation).
 * Nothing inside a Runtime is made atomic; instead the sharding
 * keeps every mutable structure thread-confined, which is both the
 * performance model (no coherence traffic in the hot paths) and the
 * correctness argument (per-shard histories are sequential; cross-
 * shard correctness is durable linearizability, tested by
 * mtCrashSweep).
 */

#ifndef UPR_CORE_SHARDED_RUNTIME_HH
#define UPR_CORE_SHARDED_RUNTIME_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ptr.hh"
#include "nvm/txn_stats.hh"

namespace upr
{

/** A fleet of single-owner Runtime shards with federated metrics. */
class ShardedRuntime
{
  public:
    struct Config
    {
        /** Worker/shard count (>= 1). */
        unsigned shards = 2;
        /** Per-shard runtime configuration (identical across shards
         * so a T=1 fleet is bit-identical to a plain Runtime). */
        Runtime::Config runtime = {};
        /** Each shard creates one pool of this name/size/engine. */
        std::string poolName = "shard";
        Bytes poolSize = 32ULL << 20;
        EngineKind engine = EngineKind::Undo;
        unsigned groupCommitSize = 1;
    };

    explicit ShardedRuntime(Config config) : config_(std::move(config))
    {
        upr_assert_msg(config_.shards >= 1,
                       "ShardedRuntime needs at least one shard");
        shards_.reserve(config_.shards);
        for (unsigned i = 0; i < config_.shards; ++i) {
            auto shard = std::make_unique<Shard>();
            // Everything the shard constructs — its Runtime's stat
            // groups and histograms, its TxnStats — registers under
            // the shard prefix, so uprstat and snapshots see
            // "shard<i>.core.*" / "shard<i>.txn.*" side by side.
            obs::ScopedRegistrationPrefix prefix(
                "shard" + std::to_string(i) + ".");
            shard->txnStats = std::make_unique<TxnStats>();
            shard->runtime = std::make_unique<Runtime>(config_.runtime);
            // Two or more busy workers already fill the cores a
            // companion thread per shard would need (measured slower,
            // docs/PERFORMANCE.md); a T=1 fleet behaves as a plain
            // Runtime.
            if (config_.shards >= 2)
                shard->runtime->keepModelInline();
            {
                RuntimeScope scope(*shard->runtime);
                shard->pool = shard->runtime->createPool(
                    config_.poolName, config_.poolSize, config_.engine);
                shard->runtime->setGroupCommitSize(
                    config_.groupCommitSize);
            }
            shards_.push_back(std::move(shard));
        }
    }

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    const Config &config() const { return config_; }

    /** Shard @p s's runtime (bind before driving it). */
    Runtime &runtime(unsigned s) { return *shards_.at(s)->runtime; }

    /** Shard @p s's pool within its own runtime. */
    PoolId pool(unsigned s) const { return shards_.at(s)->pool; }

    /** Shard @p s's transaction-engine tallies. */
    TxnStats &txnStats(unsigned s) { return *shards_.at(s)->txnStats; }

    /** The owning shard of @p key among @p shards (splitmix64
     * finalizer, mod N) — a pure function so workload generators can
     * partition key streams without a live fleet. */
    static unsigned
    shardOfKey(std::uint64_t key, unsigned shards)
    {
        key ^= key >> 30;
        key *= 0xbf58476d1ce4e5b9ULL;
        key ^= key >> 27;
        key *= 0x94d049bb133111ebULL;
        key ^= key >> 31;
        return static_cast<unsigned>(key % shards);
    }

    /** The owning shard of @p key in this fleet. */
    unsigned
    shardOf(std::uint64_t key) const
    {
        return shardOfKey(key, static_cast<unsigned>(shards_.size()));
    }

    /**
     * RAII: bind shard @p s to the calling thread — its Runtime
     * becomes the thread-current runtime (claiming ownership) and
     * its TxnStats receives the thread's transaction accounting.
     */
    class Bind
    {
      public:
        Bind(ShardedRuntime &fleet, unsigned s)
            : scope_(fleet.runtime(s)), stats_(fleet.txnStats(s))
        {}

      private:
        RuntimeScope scope_;
        ScopedTxnStatsBinding stats_;
    };

    /**
     * Run @p fn(shard) on shardCount() real threads, one per shard,
     * each with its shard bound for the duration. Joins all threads;
     * the first exception any worker threw is rethrown afterwards
     * (remaining workers still run to completion — a shard is never
     * abandoned mid-operation because a sibling failed).
     */
    void
    runOnShards(const std::function<void(unsigned)> &fn)
    {
        std::vector<std::thread> workers;
        workers.reserve(shards_.size());
        std::mutex mu;
        std::exception_ptr first;
        for (unsigned i = 0; i < shards_.size(); ++i) {
            workers.emplace_back([this, &fn, &mu, &first, i] {
                try {
                    Bind bind(*this, i);
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mu);
                    if (!first)
                        first = std::current_exception();
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        if (first)
            std::rethrow_exception(first);
    }

  private:
    struct Shard
    {
        /** Declared before the runtime: engines tally into it while
         * the runtime commits, so it must outlive the runtime. */
        std::unique_ptr<TxnStats> txnStats;
        std::unique_ptr<Runtime> runtime;
        PoolId pool = 0;
    };

    Config config_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace upr

#endif // UPR_CORE_SHARDED_RUNTIME_HH
