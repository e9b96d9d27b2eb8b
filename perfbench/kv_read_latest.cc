/**
 * @file
 * kv_read_latest: the paper's Sec VII-A key-value harness at the
 * paper's size: 10k records and 100k operations. The tree (about
 * 0.7 MiB of nodes) overflows the simulated 256 KiB L2 and fits the
 * 2 MiB L3.
 *
 * 95% GET / 5% insert of new records, the YCSB "latest" distribution,
 * 8-byte keys and values, over a persistent RbTree under Version::Hw,
 * one closed-loop client and no transactions. Almost all of the work
 * lands in containers, in core's pointer translation and reuse, and
 * in the arch timing model; transactions, the persistence domain,
 * sharding and the compiler do nothing here, so a change to those
 * should leave this workload's numbers unchanged.
 */

#include <map>
#include <memory>
#include <optional>

#include "bench.hh"
#include "kvstore/kv_store.hh"

namespace perfbench
{

namespace
{

using namespace upr;

using Tree = RbTree<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kRecords = 10'000;
constexpr std::uint64_t kOps = 100'000;
/** Operations per measurement window (about 20 ms). */
constexpr std::size_t kWindowOps = 10'000;
constexpr Bytes kPoolBytes = 4ULL << 20;
/** Adoptions of each repetition's pool image timed for recover_ms. */
constexpr int kAdoptions = 8;
/** GET answer recorded for a missing key (keys are never this). */
constexpr std::uint64_t kMissing = ~std::uint64_t{0};

WorkloadSpec
spec(std::uint64_t seed)
{
    WorkloadSpec s; // 95/5 GET/insert, latest: the paper's shape
    s.recordCount = kRecords;
    s.operationCount = kOps;
    s.seed = mixSeed(seed, 1);
    return s;
}

Runtime::Config
runtimeConfig()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 0xB0;
    return cfg;
}

/** What one repetition measured. */
struct Rep
{
    double setupS = 0;
    double runS = 0;
    std::vector<Window> windows;
    std::vector<double> recoverMs;
    ExactCounts exact;
    std::uint64_t ops = 0;
    std::uint64_t inserts = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    double rssMb = 0;
};

/**
 * One repetition: setup (generate, create, load), run, verify. With
 * @p buf set, every layer call is wrapped in a span; @p deepVerify
 * also reopens the pool image and compares the whole tree.
 */
Rep
runRep(const Options &opt, SpanBuffer *buf, bool deepVerify, Result &res)
{
    Rep rep;
    const auto t0 = Clock::now();
    std::unique_ptr<YcsbWorkload> w;
    {
        Span s(buf, "kvstore.gen");
        w = std::make_unique<YcsbWorkload>(spec(opt.seed));
    }
    std::unique_ptr<Runtime> rt;
    {
        Span s(buf, "core.runtime_create");
        rt = std::make_unique<Runtime>(runtimeConfig());
    }
    RuntimeScope scope(*rt);
    PoolId pool = 0;
    {
        Span s(buf, "nvm.pool_create");
        pool = rt->createPool("kv", kPoolBytes);
    }
    std::optional<Tree> tree;
    {
        Span s(buf, "containers.load");
        tree.emplace(MemEnv::persistentEnv(*rt, pool));
        for (const KvOp &op : w->loadOps())
            tree->insert(op.key, op.value);
    }
    // Publish the tree as the pool's root so a reopened image finds it.
    rt->pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(tree->header().bits())));
    // Counters cover the run phase; the warmed caches stay.
    rt->machine().resetAllStats();
    rt->resetCounters();
    rep.setupS = secondsSince(t0);

    const std::vector<KvOp> &ops = w->runOps();
    std::vector<std::uint64_t> answers(ops.size(), kMissing);
    std::vector<float> latNs(ops.size());
    std::vector<Clock::time_point> windowEnds;
    windowEnds.reserve(ops.size() / kWindowOps + 1);
    const Cycles c0 = rt->machine().now();
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const KvOp &op = ops[i];
        const auto a = Clock::now();
        try {
            if (op.kind == KvOp::Kind::Get) {
                Span s(buf, "containers.find", i + 1);
                if (auto v = tree->find(op.key))
                    answers[i] = *v;
            } else {
                Span s(buf, "containers.insert", i + 1);
                tree->insert(op.key, op.value);
            }
        } catch (const std::exception &) {
            ++rep.failed;
        }
        const auto b = Clock::now();
        latNs[i] = static_cast<float>(nsBetween(a, b));
        if ((i + 1) % kWindowOps == 0 || i + 1 == ops.size())
            windowEnds.push_back(b);
    }
    rep.runS = secondsSince(r0);
    rep.rssMb = peakRssMb();
    rep.ops = ops.size();
    rep.exact["cycles"] = rt->machine().now() - c0;
    rep.exact["dynamicChecks"] = rt->dynamicChecks();
    rep.exact["arenaUsed"] = rt->pools().pool(pool).header().usedBytes;
    addModelCounts(rep.exact, *rt);

    // Windows: GETs are request class 0, inserts class 1.
    auto start = r0;
    for (std::size_t c = 0; c < windowEnds.size(); ++c) {
        Window win;
        win.latNs.resize(2);
        const std::size_t end = std::min(ops.size(), (c + 1) * kWindowOps);
        for (std::size_t i = c * kWindowOps; i < end; ++i) {
            win.latNs[ops[i].kind == KvOp::Kind::Get ? 0 : 1].push_back(
                latNs[i]);
        }
        win.rate = static_cast<double>(end - c * kWindowOps) /
                   (static_cast<double>(nsBetween(start, windowEnds[c])) /
                    1e9);
        start = windowEnds[c];
        rep.windows.push_back(std::move(win));
    }

    // Verify, outside timing: every GET answer against a std::map
    // replay of the same operation stream.
    std::map<std::uint64_t, std::uint64_t> ref;
    for (const KvOp &op : w->loadOps())
        ref[op.key] = op.value;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const KvOp &op = ops[i];
        if (op.kind == KvOp::Kind::Set) {
            ref[op.key] = op.value;
            ++rep.inserts;
            continue;
        }
        const auto it = ref.find(op.key);
        if (answers[i] != (it == ref.end() ? kMissing : it->second))
            ++rep.mismatches;
    }

    // Restart: reopen the pool from its media image.
    std::vector<std::uint8_t> image;
    {
        Span s(buf, "mem.crash_image");
        image = rt->pools().pool(pool).backing().crashImage(
            CrashMode::DiscardUnfenced);
    }
    // A clean adoption takes microseconds, so one sample times a batch
    // of adoptions, each into its own prepared runtime.
    std::vector<std::unique_ptr<Runtime>> fresh;
    std::vector<Backing> media(kAdoptions);
    for (Backing &m : media) {
        m.assign(image);
        fresh.push_back(std::make_unique<Runtime>(runtimeConfig()));
    }
    std::vector<PoolId> ids;
    const auto a = Clock::now();
    for (int k = 0; k < kAdoptions; ++k) {
        RuntimeScope freshScope(*fresh[k]);
        Span s(buf, "nvm.adopt_image");
        ids.push_back(fresh[k]->pools().adoptImage(std::move(media[k]), "kv"));
    }
    rep.recoverMs.push_back(static_cast<double>(nsBetween(a, Clock::now())) /
                            1e6 / kAdoptions);
    if (deepVerify) {
        Runtime &rt0 = *fresh.front();
        RuntimeScope freshScope(rt0);
        const PoolId id = ids.front();
        Tree reopened(MemEnv::persistentEnv(rt0, id),
                      Ptr<Tree::Header>::fromBits(PtrRepr::makeRelative(
                          id, rt0.pools().pool(id).rootOff())));
        std::map<std::uint64_t, std::uint64_t> got;
        {
            Span s(buf, "containers.scan");
            reopened.forEach([&](std::uint64_t key, std::uint64_t value) {
                got.emplace(key, value);
            });
        }
        res.check(got == ref && reopened.size() == ref.size(),
                  "reopened pool image holds all " +
                      std::to_string(ref.size()) + " records");
    }
    return rep;
}

} // namespace

Result
runKvReadLatest(const Options &opt)
{
    Result res;
    std::vector<double> setupS, recoverMs, rates;
    std::vector<Window> windows;
    ExactCounts ref;
    bool haveRef = false;
    double runS = 0;
    double rssMb = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t inserts = 0;
    std::size_t reps = 0;
    while (moreReps(runS, reps, opt.seconds)) {
        Rep r = runRep(opt, nullptr, reps == 0, res);
        checkExact(res, ref, haveRef, r.exact,
                   "repetition " + std::to_string(reps));
        setupS.push_back(r.setupS);
        for (Window &w : r.windows) {
            rates.push_back(w.rate);
            windows.push_back(std::move(w));
        }
        recoverMs.insert(recoverMs.end(), r.recoverMs.begin(),
                         r.recoverMs.end());
        if (reps == 0)
            rssMb = r.rssMb;
        runS += r.runS;
        inserts = r.inserts;
        res.attempted += r.ops;
        res.failed += r.failed + r.mismatches;
        mismatches += r.mismatches;
        ++reps;
    }
    res.check(mismatches == 0,
              "GET answers equal a std::map replay (" +
                  std::to_string(mismatches) + " mismatches over " +
                  std::to_string(reps) + " repetitions)");
    res.check(haveRef, "exact counters repeat bit for bit over " +
                           std::to_string(reps) + " repetitions");

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
    // The user data is the live records' 8-byte keys and values.
    const auto records = static_cast<double>(kRecords + inserts);
    res.layer("nvm.arena_used_bytes", static_cast<double>(ref["arenaUsed"]));
    res.layer("nvm.space_amp",
              static_cast<double>(ref["arenaUsed"]) / (records * 16));

    if (opt.trace) {
        SpanBuffer buf(0, Clock::now());
        Rep r = runRep(opt, &buf, true, res);
        checkExact(res, ref, haveRef, r.exact, "traced repetition");
        res.check(r.mismatches == 0, "traced repetition GET answers");
        res.attempted += r.ops;
        res.failed += r.failed + r.mismatches;
        const LayerTimes t = reportTrace(res, opt, "kv_read_latest",
                                         buf.spans());
        res.layer("kvstore.gen_ms", spanTotalMs(t, "kvstore.gen"));
        res.layer("core.runtime_create_ms",
                  spanTotalMs(t, "core.runtime_create"));
        res.layer("nvm.pool_create_ms", spanTotalMs(t, "nvm.pool_create"));
        res.layer("containers.load_ms", spanTotalMs(t, "containers.load"));
        spanPercentiles(res, t, "containers.find", "containers.find_ns");
        spanPercentiles(res, t, "containers.insert", "containers.insert_ns");
        std::vector<double> traced;
        for (const Window &w : r.windows)
            traced.push_back(w.rate);
        res.layer("obs.trace_overhead_pct",
                  (median(rates) / median(traced) - 1) * 100);
    }
    return res;
}

} // namespace perfbench
