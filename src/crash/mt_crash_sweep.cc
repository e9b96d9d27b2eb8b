#include "crash/mt_crash_sweep.hh"

#include <cstdio>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "containers/concurrent_hash_map.hh"
#include "crash/crash_sweep.hh"
#include "nvm/engine.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

/**
 * Process-wide multi-threaded-sweep statistics, cumulative across
 * sweeps; lazily constructed so the group only enters the metrics
 * registry (and snapshots) once an MT sweep actually runs.
 */
struct MtCrashStats
{
    StatGroup group{"mtcrash"};
    Counter crashPoints;
    Counter silent;
    Counter containment;
    obs::ScopedMetricsGroup reg{group};

    MtCrashStats()
    {
        group.registerCounter("crashPoints", crashPoints,
                              "multi-threaded crash points swept");
        group.registerCounter("silent", silent,
                              "durable-linearizability violations "
                              "(wrong recovered state, no error)");
        group.registerCounter("containment", containment,
                              "exceptions escaping shard recovery");
    }
};

MtCrashStats &
mtCrashStats()
{
    static MtCrashStats stats;
    return stats;
}

/** One transactional operation on a shard's own table. */
struct Op
{
    enum class Kind
    {
        Set,
        Erase
    };
    Kind kind;
    std::uint64_t key;
    std::uint64_t value;
};

constexpr std::uint64_t kSetupKeysPerShard = 8;

/** A shard's deterministic slice of the workload. */
struct ShardPlan
{
    std::vector<std::uint64_t> setupKeys; //!< pre-crash-window baseline
    std::vector<std::uint64_t> freshKeys; //!< for in-window inserts
    std::vector<Op> ops;
};

/**
 * Partition consecutive integers into per-shard key lists by fleet
 * ownership, then derive each shard's op list: a rotating mix of
 * fresh insert, overwrite, and erase, entirely over keys that shard
 * owns. Pure function of (shards, opsPerShard), so a replay
 * regenerates the identical plan.
 */
std::vector<ShardPlan>
makePlan(unsigned shards, std::size_t opsPerShard)
{
    std::vector<ShardPlan> plan(shards);
    const std::size_t fresh_needed = opsPerShard / 3 + 1;
    std::uint64_t key = 0;
    for (bool done = false; !done; ++key) {
        const unsigned s = ShardedRuntime::shardOfKey(key, shards);
        if (plan[s].setupKeys.size() < kSetupKeysPerShard) {
            plan[s].setupKeys.push_back(key);
        } else if (plan[s].freshKeys.size() < fresh_needed) {
            plan[s].freshKeys.push_back(key);
        }
        done = true;
        for (const ShardPlan &p : plan) {
            if (p.setupKeys.size() < kSetupKeysPerShard ||
                p.freshKeys.size() < fresh_needed)
                done = false;
        }
    }
    for (unsigned s = 0; s < shards; ++s) {
        ShardPlan &p = plan[s];
        for (std::size_t j = 0; j < opsPerShard; ++j) {
            const std::uint64_t round = j / 3;
            switch (j % 3) {
              case 0: // fresh insert
                p.ops.push_back({Op::Kind::Set,
                                 p.freshKeys[round % p.freshKeys.size()],
                                 0x1000 + s * 0x100 + j});
                break;
              case 1: // overwrite an existing key
                p.ops.push_back(
                    {Op::Kind::Set,
                     p.setupKeys[round % kSetupKeysPerShard],
                     0x2000 + s * 0x100 + j});
                break;
              default: // delete (chain unlinks, node freed)
                p.ops.push_back(
                    {Op::Kind::Erase,
                     p.setupKeys[(round + 1) % kSetupKeysPerShard], 0});
                break;
            }
        }
    }
    return plan;
}

/** Shard @p s's reference contents after its first @p n ops. */
std::map<std::uint64_t, std::uint64_t>
referenceState(const ShardPlan &plan, std::size_t n)
{
    std::map<std::uint64_t, std::uint64_t> m;
    for (const std::uint64_t k : plan.setupKeys)
        m[k] = k * 10 + 7;
    for (std::size_t i = 0; i < n && i < plan.ops.size(); ++i) {
        const Op &op = plan.ops[i];
        if (op.kind == Op::Kind::Set) {
            m[op.key] = op.value;
        } else {
            m.erase(op.key);
        }
    }
    return m;
}

ShardedRuntime::Config
fleetConfig(const MtCrashSweepConfig &cfg)
{
    ShardedRuntime::Config fc;
    fc.shards = cfg.shards;
    fc.runtime.version = Version::Hw;
    fc.runtime.seed = 1234; // fixed: the sweep must be deterministic
    fc.poolName = "mtsweep";
    fc.poolSize = 1 << 20;
    fc.engine = cfg.engine;
    fc.groupCommitSize = cfg.groupCommitSize;
    return fc;
}

/**
 * The workload: build the fleet and the sharded map, lay down the
 * setup baseline, open the crash window on every shard backing, then
 * drive the per-shard op lists through the seeded step-interleaving
 * scheduler. @p committed reports per-shard progress at every
 * persistence event.
 */
void
runWorkload(CrashInjector &injector, const MtCrashSweepConfig &cfg,
            const std::vector<ShardPlan> &plan,
            std::vector<std::size_t> &committed)
{
    committed.assign(cfg.shards, 0);

    ShardedRuntime fleet(fleetConfig(cfg));
    ConcurrentHashMap<std::uint64_t, std::uint64_t> map(fleet);

    // Setup phase: outside the crash window; becomes the durable
    // baseline when the injector enables the persistence domains.
    for (unsigned s = 0; s < cfg.shards; ++s) {
        ShardedRuntime::Bind bind(fleet, s);
        for (const std::uint64_t k : plan[s].setupKeys)
            map.shard(s).insert(k, k * 10 + 7);
    }

    std::vector<Backing *> backings;
    for (unsigned s = 0; s < cfg.shards; ++s) {
        backings.push_back(
            &fleet.runtime(s).pools().pool(fleet.pool(s)).backing());
    }
    injector.attach(std::move(backings));

    // The deterministic scheduler: each shard's next op advances in
    // three steps (begin / apply / commit), and a seeded RNG picks
    // which unfinished shard steps next — so transactions overlap
    // across shards, in a total order the seed reproduces.
    enum class Step
    {
        Begin,
        Apply,
        Commit
    };
    std::vector<std::size_t> opIdx(cfg.shards, 0);
    std::vector<Step> step(cfg.shards, Step::Begin);
    Rng schedule(cfg.scheduleSeed);

    for (;;) {
        std::vector<unsigned> runnable;
        for (unsigned s = 0; s < cfg.shards; ++s) {
            if (opIdx[s] < plan[s].ops.size())
                runnable.push_back(s);
        }
        if (runnable.empty())
            break;
        const unsigned s = runnable[static_cast<std::size_t>(
            schedule.nextBounded(runnable.size()))];

        ShardedRuntime::Bind bind(fleet, s);
        Runtime &rt = fleet.runtime(s);
        const Op &op = plan[s].ops[opIdx[s]];
        switch (step[s]) {
          case Step::Begin:
            rt.beginTxn(fleet.pool(s));
            step[s] = Step::Apply;
            break;
          case Step::Apply:
            if (op.kind == Op::Kind::Set) {
                map.shard(s).insert(op.key, op.value);
            } else {
                map.shard(s).erase(op.key);
            }
            step[s] = Step::Commit;
            break;
          case Step::Commit:
            rt.commitTxn();
            ++committed[s];
            step[s] = Step::Begin;
            ++opIdx[s];
            break;
        }
    }

    // Flush any pending group-commit batches while the crash window
    // is still open — a crash during this tail is just another point.
    for (unsigned s = 0; s < cfg.shards; ++s) {
        ShardedRuntime::Bind bind(fleet, s);
        fleet.runtime(s).flushGroup();
    }
}

/**
 * Recover shard @p s's crash image and compare it against the
 * admissible linearizations of that shard's logged history.
 * @return empty on success, else a violation description
 */
std::string
recoverAndCheckShard(const MtCrashSweepConfig &cfg,
                     const std::vector<std::uint8_t> &img,
                     const ShardPlan &plan, std::size_t committed,
                     std::uint64_t point, unsigned s,
                     MtCrashSweepResult &result)
{
    Backing media;
    media.assign(img);
    Pool pool("mtcrash@" + std::to_string(point) + "#" +
                  std::to_string(s),
              std::move(media));
    const bool rolled_back = TxnEngine::recover(pool);
    obs::traceEvent(obs::EventKind::CrashPoint, point, s);
    if (rolled_back) {
        ++result.rollbacks;
    } else {
        ++result.cleanImages;
    }
    // Idempotence: a crash *during* recovery is just another boot.
    if (TxnEngine::recover(pool))
        return "recovery is not idempotent";

    Backing image;
    image.assign(pool.backing().raw());
    Runtime rt(fleetConfig(cfg).runtime);
    RuntimeScope scope(rt);
    const PoolId id = rt.pools().adoptImage(std::move(image), "crashed");
    rt.pools().allocator(id).checkConsistency();

    const PoolOffset root = rt.pools().pool(id).rootOff();
    if (root == 0)
        return "recovered pool lost its root";
    MemEnv env = MemEnv::persistentEnv(rt, id);
    HashMap<std::uint64_t, std::uint64_t> table(
        env, Ptr<HashMap<std::uint64_t, std::uint64_t>::Header>::
                 fromBits(PtrRepr::makeRelative(id, root)));
    table.validate();

    std::map<std::uint64_t, std::uint64_t> actual;
    table.forEach([&](std::uint64_t k, std::uint64_t v) {
        actual.emplace(k, v);
    });

    // The admissible states of this shard: its committed prefix, or
    // that prefix plus its one in-flight operation applied atomically
    // (group commit coarsens both bounds to batch boundaries). Keys
    // are shard-disjoint, so the store-wide linearization set is
    // exactly the cross product of these per-shard sets.
    std::size_t lo = committed;
    std::size_t hi = std::min(committed + 1, plan.ops.size());
    if (cfg.groupCommitSize > 1) {
        lo = committed - committed % cfg.groupCommitSize;
        hi = std::min(lo + cfg.groupCommitSize, plan.ops.size());
    }
    if (actual == referenceState(plan, lo) ||
        actual == referenceState(plan, hi))
        return "";
    return "recovered state (size " + std::to_string(actual.size()) +
           ") matches neither " + std::to_string(lo) + " nor " +
           std::to_string(hi) + " committed ops";
}

} // namespace

MtCrashSweepResult
mtCrashSweep(const MtCrashSweepConfig &config)
{
    upr_assert_msg(config.shards >= 1 && config.opsPerShard >= 1,
                   "mtCrashSweep needs at least one shard and one op");

    const std::vector<ShardPlan> plan =
        makePlan(config.shards, config.opsPerShard);
    std::vector<std::size_t> committed;
    MtCrashSweepResult result;
    unsigned lastShard = 0;

    // At every event of the total order: count interleaving, then
    // recover every shard's image at that instant and check it.
    const auto check = [&](const CrashInjector &injector,
                           std::uint64_t n, unsigned owner) {
        if (n > 1 && owner != lastShard)
            ++result.crossShardEvents;
        lastShard = owner;
        for (unsigned s = 0; s < config.shards; ++s) {
            std::string violation;
            bool contained = true;
            try {
                violation = recoverAndCheckShard(
                    config, injector.image(s), plan[s], committed[s],
                    n, s, result);
            } catch (const std::exception &e) {
                contained = false;
                violation = std::string("escaped exception: ") +
                            e.what();
            }
            if (violation.empty())
                continue;
            if (contained) {
                ++result.silent;
                ++mtCrashStats().silent;
            } else {
                ++result.containment;
                ++mtCrashStats().containment;
            }
            std::fprintf(
                stderr,
                "mt crash sweep VIOLATION at point %llu shard %u/%u "
                "(%s engine, mode %s, seed %llu): %s\n"
                "replay with: UPR_CRASH_SEED=%llu <this test>\n",
                (unsigned long long)n, s, config.shards,
                config.engine == EngineKind::Undo ? "undo" : "redo",
                crashModeName(config.mode),
                (unsigned long long)injector.seed(), violation.c_str(),
                (unsigned long long)injector.seed());
        }
    };

    result.crashPoints = crashSweep(
        [&](CrashInjector &injector) {
            runWorkload(injector, config, plan, committed);
        },
        check, {config.mode, config.seed});
    mtCrashStats().crashPoints.add(result.crashPoints);
    return result;
}

} // namespace upr
