/**
 * @file
 * kv_update_durable: YCSB-A (50% GET / 50% update, zipfian) over the
 * sharded ConcurrentHashMap on a 2-shard ShardedRuntime with the undo
 * engine. Every update is its own durable transaction, and each
 * shard's pool has its persistence domain on after the load, so every
 * flush and fence does real write-back (FliT's per-operation
 * flush/fence unit). The ~10k records fit the simulated caches.
 *
 * This puts the write path under load: nvm begin/commit, mem
 * flush/fence and shard balance. kv_read_latest uses the same core and
 * arch layers for reads, so a gain on one that costs the other shows.
 *
 * Verify checks durable linearizability in the Ben-David/Wei sense on
 * a crash image: every acknowledged update survives recovery and the
 * in-flight one is applied entirely or not at all.
 */

#include <map>
#include <memory>

#include "bench.hh"
#include "crash/crash_injector.hh"
#include "kvstore/concurrent_kv_store.hh"

namespace perfbench
{

namespace
{

using namespace upr;

using Table = HashMap<std::uint64_t, std::uint64_t>;
using RefMap = std::map<std::uint64_t, std::uint64_t>;

constexpr unsigned kShards = 2;
constexpr std::uint64_t kRecords = 10'000;
constexpr std::uint64_t kOps = 200'000;
constexpr Bytes kPoolBytes = 8ULL << 20;
/** Crash images per shard and repetition timed for recover_ms. */
constexpr int kAdoptions = 3;
constexpr std::uint64_t kMissing = ~std::uint64_t{0};
/** Undo model (docs/CRASH_CONSISTENCY.md) for k recorded writes. */
constexpr std::uint64_t kWritesPerUpdate = 1;

WorkloadSpec
spec(std::uint64_t seed)
{
    WorkloadSpec s = ycsbPreset('A');
    s.recordCount = kRecords;
    s.operationCount = kOps;
    s.seed = mixSeed(seed, 2);
    return s;
}

ShardedRuntime::Config
fleetConfig()
{
    ShardedRuntime::Config cfg;
    cfg.shards = kShards;
    cfg.runtime.version = Version::Hw;
    cfg.runtime.seed = 0xC0;
    cfg.poolName = "kv";
    cfg.poolSize = kPoolBytes;
    cfg.engine = EngineKind::Undo;
    return cfg;
}

/** One shard's slice of a repetition. */
struct ShardRun
{
    std::vector<float> getNs;
    std::vector<float> setNs;
    std::vector<std::uint64_t> answers;
    std::int64_t busyNs = 0;
    std::uint64_t failed = 0;
};

/** What one repetition measured. */
struct Rep
{
    double setupS = 0;
    double runS = 0;
    double forkJoinMs = 0;
    std::vector<ShardRun> shards;
    /** The repetition's run phase as one window (GET, SET classes). */
    Window window;
    std::vector<double> recoverMs;
    ExactCounts exact;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    double rssMb = 0;
};

/** One shard's run phase, on its worker thread. */
void
runShard(ShardedRuntime &fleet, ConcurrentKvStore &kv, unsigned s,
         const std::vector<KvOp> &ops, ShardRun &out, SpanBuffer *buf)
{
    Runtime &rt = fleet.runtime(s);
    Table &table = kv.map().shard(s);
    out.answers.assign(ops.size(), kMissing);
    out.getNs.reserve(ops.size());
    out.setNs.reserve(ops.size());
    const std::uint64_t opBase = std::uint64_t{s} << 32;
    const auto b0 = Clock::now();
    Span busy(buf, "core.shard_busy");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const KvOp &op = ops[i];
        const auto a = Clock::now();
        try {
            if (op.kind == KvOp::Kind::Get) {
                Span sp(buf, "containers.find", opBase + i + 1);
                if (auto v = kv.map().get(op.key))
                    out.answers[i] = *v;
            } else {
                // ConcurrentHashMap::set, split at its layer calls.
                Span sp(buf, "kvstore.set", opBase + i + 1);
                {
                    Span b(buf, "nvm.begin");
                    rt.beginTxn(fleet.pool(s));
                }
                {
                    Span b(buf, "containers.insert");
                    table.insert(op.key, op.value);
                }
                Span c(buf, "nvm.commit");
                rt.commitTxn();
            }
        } catch (const std::exception &) {
            ++out.failed;
            if (rt.inTxn())
                rt.abortTxn();
        }
        const auto ns = static_cast<float>(nsBetween(a, Clock::now()));
        (op.kind == KvOp::Kind::Get ? out.getNs : out.setNs).push_back(ns);
    }
    out.busyNs = nsBetween(b0, Clock::now());
}

/** The shard's table contents, read through the model. */
RefMap
contents(const Table &table)
{
    RefMap m;
    table.forEach([&](std::uint64_t k, std::uint64_t v) { m.emplace(k, v); });
    return m;
}

/**
 * Adopt @p image into a fresh runtime (recovery runs inside the
 * adoption) and return the recovered table. The adoption alone is
 * timed, into @p ms.
 */
RefMap
recover(const std::vector<std::uint8_t> &image, SpanBuffer *buf, double &ms)
{
    Backing media;
    media.assign(image);
    Runtime fresh(fleetConfig().runtime);
    RuntimeScope scope(fresh);
    PoolId id = 0;
    const auto a = Clock::now();
    {
        Span sp(buf, "nvm.adopt_image");
        id = fresh.pools().adoptImage(std::move(media), "kv");
    }
    ms = static_cast<double>(nsBetween(a, Clock::now())) / 1e6;
    const Table recovered(MemEnv::persistentEnv(fresh, id),
                          Ptr<Table::Header>::fromBits(PtrRepr::makeRelative(
                              id, fresh.pools().pool(id).rootOff())));
    return contents(recovered);
}

/**
 * Crash shard @p s inside further updates and check each recovered
 * image against @p ref, the shard's acknowledged state: every
 * acknowledged update survives and the in-flight one is applied
 * entirely or not at all. Appends adoption times to @p rep.
 */
void
crashAndRecover(const Options &opt, ShardedRuntime &fleet,
                ConcurrentKvStore &kv, unsigned s, RefMap ref,
                SpanBuffer *buf, bool deepVerify, Rep &rep, Result &res)
{
    ShardedRuntime::Bind bind(fleet, s);
    Runtime &rt = fleet.runtime(s);
    Table &table = kv.map().shard(s);
    Backing &media = rt.pools().pool(fleet.pool(s)).backing();
    int images = 0;
    int bad = 0;
    const auto expect = [&](const RefMap &got, std::uint64_t key,
                            std::uint64_t value) {
        RefMap after = ref;
        after[key] = value;
        ++images;
        if (got != ref && got != after)
            ++bad;
    };

    // Timed restarts: each image is taken after an update's write and
    // before its commit, so every recovery rolls one transaction back
    // whatever the seed.
    auto key = ref.begin();
    for (int k = 0; k < kAdoptions; ++k, ++key) {
        const std::uint64_t value = k + 1;
        rt.beginTxn(fleet.pool(s));
        table.insert(key->first, value);
        std::vector<std::uint8_t> image;
        {
            Span sp(buf, "mem.crash_image");
            image = media.crashImage(CrashMode::DiscardUnfenced);
        }
        rt.commitTxn();
        double ms = 0;
        expect(recover(image, buf, ms), key->first, value);
        rep.recoverMs.push_back(ms);
        ref[key->first] = value;
    }

    // A crash at a seeded persistence event of one more update: count
    // the events of an acknowledged update, then crash inside an
    // identical in-flight one.
    CrashInjector inj(CrashMode::DiscardUnfenced);
    inj.attach(media);
    const std::uint64_t acked = (key++)->first;
    const std::uint64_t inflight = key->first;
    rt.beginTxn(fleet.pool(s));
    table.insert(acked, 1);
    rt.commitTxn();
    ref[acked] = 1;
    const std::uint64_t events = inj.events();
    inj.arm(events + 1 + mixSeed(opt.seed, 10 + s) % events);
    try {
        rt.beginTxn(fleet.pool(s));
        table.insert(inflight, 2);
        rt.commitTxn();
    } catch (const SimulatedCrash &) {
    }
    if (inj.fired()) {
        double ms = 0;
        expect(recover(inj.image(), buf, ms), inflight, 2);
    } else {
        ++bad;
    }
    rep.failed += bad;
    if (deepVerify || bad > 0) {
        res.check(bad == 0,
                  "shard " + std::to_string(s) + ": " +
                      std::to_string(images) +
                      " crash images recover every acknowledged update "
                      "with the in-flight one atomic (seeded crash at "
                      "event " + std::to_string(inj.events()) + ")");
    }
}

/**
 * One repetition: setup, run, verify. @p deepVerify also compares the
 * shard tables; @p crash runs the crash-and-recover checks, which
 * leave the fleet unusable and so end the repetition.
 */
Rep
runRep(const Options &opt, SpanBuffer *buf, bool deepVerify, bool crash,
       Result &res)
{
    Rep rep;
    const auto t0 = Clock::now();
    std::unique_ptr<YcsbWorkload> w;
    {
        Span s(buf, "kvstore.gen");
        w = std::make_unique<YcsbWorkload>(spec(opt.seed));
    }
    std::unique_ptr<ShardedRuntime> fleet;
    {
        // Each shard's Runtime and pool: the pools are created inside.
        Span s(buf, "core.runtime_create");
        fleet = std::make_unique<ShardedRuntime>(fleetConfig());
    }
    std::unique_ptr<ConcurrentKvStore> kv;
    {
        Span s(buf, "containers.create");
        kv = std::make_unique<ConcurrentKvStore>(*fleet);
    }
    std::vector<std::vector<KvOp>> load, ops;
    {
        Span s(buf, "kvstore.partition");
        load = kv->partition(w->loadOps());
        ops = kv->partition(w->runOps());
    }
    {
        // Single-threaded, so branch-predictor sites are salted in one
        // order and modeled cycles repeat exactly (bench_harness.cpp
        // explains the salting). One GET and one durable rewrite per
        // shard run every site the threaded run phase will reach.
        Span s(buf, "containers.load");
        for (unsigned sh = 0; sh < kShards; ++sh) {
            ShardedRuntime::Bind bind(*fleet, sh);
            Table &table = kv->map().shard(sh);
            table.reserve(load[sh].size());
            for (const KvOp &op : load[sh])
                table.insert(op.key, op.value);
            const KvOp &first = load[sh].front();
            kv->map().get(first.key);
            kv->map().set(first.key, first.value);
        }
    }
    {
        Span s(buf, "mem.domain_enable");
        for (unsigned sh = 0; sh < kShards; ++sh) {
            fleet->runtime(sh).pools().pool(fleet->pool(sh)).backing()
                .enablePersistenceDomain();
        }
    }
    for (unsigned sh = 0; sh < kShards; ++sh) {
        ShardedRuntime::Bind bind(*fleet, sh);
        fleet->runtime(sh).machine().resetAllStats();
        fleet->runtime(sh).resetCounters();
        fleet->txnStats(sh).resetAll();
    }
    std::vector<Cycles> c0(kShards);
    for (unsigned sh = 0; sh < kShards; ++sh)
        c0[sh] = fleet->runtime(sh).machine().now();
    rep.setupS = secondsSince(t0);

    // Run: one closed-loop client per shard, 2 worker threads.
    rep.shards.resize(kShards);
    std::vector<std::unique_ptr<SpanBuffer>> workerBufs;
    const auto r0 = Clock::now();
    {
        const auto fork = static_cast<std::int64_t>(buf ? buf->nextIndex() : 0);
        Span s(buf, "core.run_on_shards");
        for (unsigned sh = 0; buf && sh < kShards; ++sh) {
            workerBufs.push_back(
                std::make_unique<SpanBuffer>(sh + 1, buf->epoch(), fork));
        }
        fleet->runOnShards([&](unsigned sh) {
            runShard(*fleet, *kv, sh, ops[sh], rep.shards[sh],
                     buf ? workerBufs[sh].get() : nullptr);
        });
    }
    rep.runS = secondsSince(r0);
    rep.rssMb = peakRssMb();
    for (const auto &wb : workerBufs)
        buf->merge(*wb);

    std::int64_t busyMax = 0;
    for (unsigned sh = 0; sh < kShards; ++sh) {
        const ShardRun &r = rep.shards[sh];
        busyMax = std::max(busyMax, r.busyNs);
        rep.ops += ops[sh].size();
        rep.failed += r.failed;
        Runtime &rt = fleet->runtime(sh);
        TxnStats &tx = fleet->txnStats(sh);
        const std::string p = "shard" + std::to_string(sh) + ".";
        ExactCounts shardCounts = {
            {"cycles", rt.machine().now() - c0[sh]},
            {"dynamicChecks", rt.dynamicChecks()},
            {"commits", tx.undoCommits.value()},
            {"fences", tx.undoFences.value()},
            {"flushes", tx.undoFlushes.value()},
            {"arenaUsed",
             rt.pools().pool(fleet->pool(sh)).header().usedBytes},
        };
        addModelCounts(shardCounts, rt);
        for (const auto &[k, v] : shardCounts) {
            rep.exact[p + k] = v;
            rep.exact[k] += v;
        }
    }
    rep.forkJoinMs = std::max(0.0, rep.runS * 1e3 -
                                       static_cast<double>(busyMax) / 1e6);
    rep.window.rate = static_cast<double>(rep.ops) / rep.runS;
    rep.window.latNs.resize(2);
    for (const ShardRun &r : rep.shards) {
        auto &gets = rep.window.latNs[0];
        auto &sets = rep.window.latNs[1];
        gets.insert(gets.end(), r.getNs.begin(), r.getNs.end());
        sets.insert(sets.end(), r.setNs.begin(), r.setNs.end());
    }

    // Verify, outside timing. Keys are shard-disjoint, so each shard's
    // history replays alone against its own std::map.
    for (unsigned sh = 0; sh < kShards; ++sh) {
        RefMap ref;
        for (const KvOp &op : load[sh])
            ref[op.key] = op.value;
        for (std::size_t i = 0; i < ops[sh].size(); ++i) {
            const KvOp &op = ops[sh][i];
            if (op.kind == KvOp::Kind::Set) {
                ref[op.key] = op.value;
                continue;
            }
            const auto it = ref.find(op.key);
            if (rep.shards[sh].answers[i] !=
                (it == ref.end() ? kMissing : it->second))
                ++rep.mismatches;
        }
        if (deepVerify) {
            ShardedRuntime::Bind bind(*fleet, sh);
            res.check(contents(kv->map().shard(sh)) == ref,
                      "shard " + std::to_string(sh) +
                          " table equals its std::map replay");
        }
        if (crash) {
            crashAndRecover(opt, *fleet, *kv, sh, std::move(ref), buf,
                            deepVerify, rep, res);
        }
    }
    return rep;
}

} // namespace

Result
runKvUpdateDurable(const Options &opt)
{
    Result res;
    std::vector<double> setupS, rates, recoverMs, busyMax, busyMean,
        forkJoin;
    std::vector<Window> windows;
    ExactCounts ref;
    bool haveRef = false;
    double runS = 0;
    double rssMb = 0;
    std::uint64_t mismatches = 0;
    std::size_t reps = 0;
    while (moreReps(runS, reps, opt.seconds)) {
        // Crash checks every fourth repetition keep verify cheap.
        Rep r = runRep(opt, nullptr, reps == 0, reps % 4 == 0, res);
        checkExact(res, ref, haveRef, r.exact,
                   "repetition " + std::to_string(reps));
        setupS.push_back(r.setupS);
        rates.push_back(r.window.rate);
        windows.push_back(std::move(r.window));
        double bmax = 0, bsum = 0;
        for (const ShardRun &s : r.shards) {
            const double ms = static_cast<double>(s.busyNs) / 1e6;
            bmax = std::max(bmax, ms);
            bsum += ms;
        }
        busyMax.push_back(bmax);
        busyMean.push_back(bsum / kShards);
        forkJoin.push_back(r.forkJoinMs);
        recoverMs.insert(recoverMs.end(), r.recoverMs.begin(),
                         r.recoverMs.end());
        if (reps == 0)
            rssMb = r.rssMb;
        runS += r.runS;
        res.attempted += r.ops;
        res.failed += r.failed + r.mismatches;
        mismatches += r.mismatches;
        ++reps;
    }
    res.check(mismatches == 0,
              "GET answers equal per-shard std::map replays (" +
                  std::to_string(mismatches) + " mismatches over " +
                  std::to_string(reps) + " repetitions)");
    res.check(haveRef, "exact counters repeat bit for bit over " +
                           std::to_string(reps) + " repetitions");
    const std::uint64_t commits = ref["commits"];
    const std::uint64_t k = kWritesPerUpdate;
    res.check(commits > 0 && ref["fences"] == commits * (k + 3) &&
                  ref["flushes"] == commits * (3 * k + 2),
              "undo model: " + std::to_string(commits) + " commits of " +
                  std::to_string(k) + " write pay k+3 fences and 3k+2 "
                  "flushes each (" + std::to_string(ref["fences"]) +
                  " fences, " + std::to_string(ref["flushes"]) +
                  " flushes)");

    const WindowFigures f = fastestDecile(windows);
    const double ops = static_cast<double>(kOps);
    res.e2e("setup_s", lowDecile(setupS));
    res.e2e("throughput_ops_s", f.rate);
    res.e2e("op_p50_us", geomean(f.p50) / 1e3);
    res.e2e("op_p99_us", geomean(f.p99) / 1e3);
    res.e2e("sim_cycles_per_op", static_cast<double>(ref["cycles"]) / ops);
    res.e2e("recover_ms", lowDecile(recoverMs));
    res.e2e("peak_rss_mb", rssMb);

    res.layer("kvstore.get_ns.p50", f.p50[0]);
    res.layer("kvstore.get_ns.p99", f.p99[0]);
    res.layer("kvstore.set_ns.p50", f.p50[1]);
    res.layer("kvstore.set_ns.p99", f.p99[1]);
    setModelMetrics(res, ref, ops);
    res.layer("nvm.fences_per_commit", static_cast<double>(ref["fences"]) /
                                           static_cast<double>(commits));
    res.layer("nvm.flushes_per_commit",
              static_cast<double>(ref["flushes"]) /
                  static_cast<double>(commits));
    res.layer("nvm.arena_used_bytes", static_cast<double>(ref["arenaUsed"]));
    res.layer("nvm.space_amp", static_cast<double>(ref["arenaUsed"]) /
                                   (static_cast<double>(kRecords) * 16));
    double cyclesMax = 0, cyclesSum = 0;
    for (unsigned sh = 0; sh < kShards; ++sh) {
        const auto c = static_cast<double>(
            ref["shard" + std::to_string(sh) + ".cycles"]);
        cyclesMax = std::max(cyclesMax, c);
        cyclesSum += c;
    }
    res.layer("core.shard_busy_ms.max", median(busyMax));
    res.layer("core.shard_busy_ms.mean", median(busyMean));
    res.layer("core.shard_imbalance", median(busyMax) / median(busyMean));
    res.layer("core.shard_cycles_imbalance",
              cyclesMax / (cyclesSum / kShards));
    res.layer("core.fork_join_ms", median(forkJoin));

    if (opt.trace) {
        SpanBuffer buf(0, Clock::now());
        Rep r = runRep(opt, &buf, true, true, res);
        checkExact(res, ref, haveRef, r.exact, "traced repetition");
        res.check(r.mismatches == 0, "traced repetition GET answers");
        res.attempted += r.ops;
        res.failed += r.failed + r.mismatches;
        const LayerTimes t =
            reportTrace(res, opt, "kv_update_durable", buf.spans());
        res.layer("kvstore.gen_ms", spanTotalMs(t, "kvstore.gen"));
        res.layer("kvstore.partition_ms",
                  spanTotalMs(t, "kvstore.partition"));
        res.layer("core.runtime_create_ms",
                  spanTotalMs(t, "core.runtime_create"));
        res.layer("containers.load_ms", spanTotalMs(t, "containers.load"));
        res.layer("mem.domain_enable_ms",
                  spanTotalMs(t, "mem.domain_enable"));
        spanPercentiles(res, t, "containers.find", "containers.find_ns");
        spanPercentiles(res, t, "containers.insert", "containers.insert_ns");
        spanPercentiles(res, t, "nvm.begin", "nvm.begin_ns");
        spanPercentiles(res, t, "nvm.commit", "nvm.commit_ns");
        res.layer("obs.trace_overhead_pct",
                  (median(rates) / r.window.rate - 1) * 100);
    }
    return res;
}

} // namespace perfbench
