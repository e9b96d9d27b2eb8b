/**
 * @file
 * The multi-threaded key-value harness: a YCSB workload partitioned
 * by key ownership over a ShardedRuntime fleet and executed by T
 * worker threads, one per shard, against the sharded persistent hash
 * map (containers/concurrent_hash_map.hh).
 *
 * Determinism: the generated operation stream is partitioned into
 * per-shard sub-streams preserving generation order, and every
 * result a run reports — per-shard tallies, per-shard model cycles,
 * the XOR-combined checksum — depends only on those per-shard
 * sequential histories, never on the cross-shard interleaving the
 * scheduler happens to produce. A T-shard run is therefore
 * reproducible even though the threads race in real time.
 */

#ifndef UPR_KVSTORE_CONCURRENT_KV_STORE_HH
#define UPR_KVSTORE_CONCURRENT_KV_STORE_HH

#include "containers/concurrent_hash_map.hh"
#include "kvstore/kv_store.hh"

namespace upr
{

/** Per-shard and combined outcome of one threaded run. */
struct KvConcurrentResult
{
    /** One entry per shard (cycles = that shard's machine model). */
    std::vector<KvRunResult> perShard;

    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t sets = 0;
    /** XOR of per-shard checksums: schedule-independent because each
     * shard's fold covers only its own in-order history. */
    std::uint64_t checksum = 0;
    /** Makespan in modeled cycles (slowest shard's run phase). */
    Cycles maxCycles = 0;
    /** Total modeled work across shards. */
    Cycles sumCycles = 0;
};

/** KV store over a sharded fleet, one YCSB worker per shard. */
class ConcurrentKvStore
{
  public:
    explicit ConcurrentKvStore(ShardedRuntime &fleet)
        : fleet_(&fleet), map_(fleet)
    {}

    ConcurrentHashMap<std::uint64_t, std::uint64_t> &map()
    {
        return map_;
    }

    /**
     * Partition @p ops into shardCount() sub-streams by key
     * ownership, preserving order within each shard.
     */
    std::vector<std::vector<KvOp>>
    partition(const std::vector<KvOp> &ops) const
    {
        std::vector<std::size_t> counts(fleet_->shardCount(), 0);
        for (const KvOp &op : ops)
            ++counts[fleet_->shardOf(op.key)];
        std::vector<std::vector<KvOp>> parts(fleet_->shardCount());
        for (std::size_t s = 0; s < parts.size(); ++s)
            parts[s].reserve(counts[s]);
        for (const KvOp &op : ops)
            parts[fleet_->shardOf(op.key)].push_back(op);
        return parts;
    }

    /**
     * Execute @p workload with one thread per shard: each worker
     * binds its shard, loads its partition of the load phase, then
     * runs its partition of the run phase with per-operation durable
     * transactions.
     */
    KvConcurrentResult
    run(const YcsbWorkload &workload)
    {
        const auto load = partition(workload.loadOps());
        const auto ops = partition(workload.runOps());

        KvConcurrentResult res;
        res.perShard.resize(fleet_->shardCount());

        fleet_->runOnShards([&](unsigned s) {
            res.perShard[s] = runShard(s, load[s], ops[s]);
        });

        for (const KvRunResult &r : res.perShard) {
            res.gets += r.gets;
            res.getHits += r.getHits;
            res.sets += r.sets;
            res.checksum ^= r.checksum;
            res.maxCycles = std::max(res.maxCycles, r.cycles);
            res.sumCycles += r.cycles;
        }
        return res;
    }

    /**
     * One shard's sequential slice (the calling thread must have
     * shard @p s bound). Public so deterministic single-thread
     * drivers — the crash sweep, the T=1 bit-identity check — can
     * replay exactly what a worker would.
     */
    KvRunResult
    runShard(unsigned s, const std::vector<KvOp> &load,
             const std::vector<KvOp> &ops)
    {
        Runtime &rt = fleet_->runtime(s);
        KvRunResult r;
        const Cycles load_start = rt.machine().now();
        // Pre-size the shard's table outside any transaction: at full
        // bench scale one shard can hold every record, and the rehash
        // a load-phase insert would trigger pre-images more data than
        // the pool's undo log holds. Reserving up front keeps every
        // per-operation transaction small.
        map_.shard(s).reserve(load.size());
        for (const KvOp &op : load)
            map_.set(op.key, op.value);
        r.loadCycles = rt.machine().now() - load_start;

        const Cycles run_start = rt.machine().now();
        for (const KvOp &op : ops) {
            if (op.kind == KvOp::Kind::Get) {
                ++r.gets;
                if (auto v = map_.get(op.key)) {
                    ++r.getHits;
                    r.checksum ^= *v;
                    r.checksum = (r.checksum << 1) | (r.checksum >> 63);
                }
            } else {
                ++r.sets;
                map_.set(op.key, op.value);
            }
        }
        r.cycles = rt.machine().now() - run_start;
        return r;
    }

  private:
    ShardedRuntime *fleet_;
    ConcurrentHashMap<std::uint64_t, std::uint64_t> map_;
};

} // namespace upr

#endif // UPR_KVSTORE_CONCURRENT_KV_STORE_HH
