#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/runtime.hh"

namespace perfbench
{

namespace
{

/** The repository's modules, in the order the report prints them. */
const char *const kLayers[] = {"kvstore", "containers", "core", "mem",
                               "nvm",     "compiler",   "obs"};

} // namespace

const char *const kIrPrograms[7] = {"fig9",    "ptr_chase", "sweep",
                                    "publish", "stream",    "scan",
                                    "conflict"};

const std::vector<Metric> &
endToEndSpecs()
{
    static const std::vector<Metric> specs = {
        {"setup_s", 0, "s"},
        {"throughput_ops_s", 0, "1/s"},
        {"op_p50_us", 0, "us"},
        {"op_p99_us", 0, "us"},
        {"sim_cycles_per_op", 0, "cycles"},
        {"recover_ms", 0, "ms"},
        {"peak_rss_mb", 0, "MB"},
    };
    return specs;
}

const std::vector<Metric> &
perLayerSpecs()
{
    static const std::vector<Metric> specs = [] {
        std::vector<Metric> s = {
            {"kvstore.gen_ms", 0, "ms"},
            {"kvstore.partition_ms", 0, "ms"},
            {"kvstore.get_ns.p50", 0, "ns"},
            {"kvstore.get_ns.p99", 0, "ns"},
            {"kvstore.set_ns.p50", 0, "ns"},
            {"kvstore.set_ns.p99", 0, "ns"},
            {"containers.load_ms", 0, "ms"},
            {"containers.find_ns.p50", 0, "ns"},
            {"containers.find_ns.p99", 0, "ns"},
            {"containers.insert_ns.p50", 0, "ns"},
            {"containers.insert_ns.p99", 0, "ns"},
            {"core.runtime_create_ms", 0, "ms"},
            {"core.rel_to_abs_per_op", 0, "1/op"},
            {"core.abs_to_rel_per_op", 0, "1/op"},
            {"core.reuse_hit_ratio", 0, "ratio"},
            {"core.dynamic_checks_per_kinst", 0, "1/kinst"},
            {"core.shard_busy_ms.max", 0, "ms"},
            {"core.shard_busy_ms.mean", 0, "ms"},
            {"core.shard_imbalance", 0, "ratio"},
            {"core.shard_cycles_imbalance", 0, "ratio"},
            {"core.fork_join_ms", 0, "ms"},
            {"arch.mem_accesses_per_op", 0, "1/op"},
            {"arch.l1_miss_ratio", 0, "ratio"},
            {"arch.l3_miss_ratio", 0, "ratio"},
            {"arch.polb_walks_per_kop", 0, "1/kop"},
            {"arch.valb_walks_per_kop", 0, "1/kop"},
            {"arch.storep_per_op", 0, "1/op"},
            {"arch.branch_miss_ratio", 0, "ratio"},
            {"arch.model_ms", 0, "ms"},
            {"mem.domain_enable_ms", 0, "ms"},
            {"nvm.pool_create_ms", 0, "ms"},
            {"nvm.begin_ns.p50", 0, "ns"},
            {"nvm.begin_ns.p99", 0, "ns"},
            {"nvm.commit_ns.p50", 0, "ns"},
            {"nvm.commit_ns.p99", 0, "ns"},
            {"nvm.fences_per_commit", 0, "1/commit"},
            {"nvm.flushes_per_commit", 0, "1/commit"},
            {"nvm.arena_used_bytes", 0, "bytes"},
            {"nvm.space_amp", 0, "ratio"},
            {"compiler.compile_ms", 0, "ms"},
            {"compiler.lower_ms", 0, "ms"},
        };
        for (const char *p : kIrPrograms)
            s.push_back({std::string("compiler.native_ms.") + p, 0, "ms"});
        for (const char *p : kIrPrograms)
            s.push_back({std::string("compiler.model_ms.") + p, 0, "ms"});
        s.insert(s.end(), {
            {"compiler.retained_guard_ratio", 0, "ratio"},
            {"compiler.fused_pairs", 0, "count"},
            {"compiler.native_minst_s", 0, "Minst/s"},
            {"compiler.model_minst_s", 0, "Minst/s"},
            {"obs.trace_overhead_pct", 0, "%"},
        });
        for (const char *l : kLayers)
            s.push_back({std::string(l) + ".self_ms", 0, "ms"});
        return s;
    }();
    return specs;
}

void
Result::check(bool ok, const std::string &what)
{
    verdicts.push_back(std::string(ok ? "PASS " : "FAIL ") + what);
    if (!ok)
        correct = false;
}

void
checkExact(Result &res, ExactCounts &ref, bool &haveRef,
           const ExactCounts &got, const std::string &label)
{
    if (!haveRef) {
        ref = got;
        haveRef = true;
        return;
    }
    if (got == ref)
        return;
    for (const auto &[name, value] : got) {
        auto it = ref.find(name);
        const std::uint64_t want = it == ref.end() ? 0 : it->second;
        if (want != value) {
            std::fprintf(stderr, "exact counter %s: %llu vs %llu (%s)\n",
                         name.c_str(), (unsigned long long)value,
                         (unsigned long long)want, label.c_str());
        }
    }
    res.check(false, "exact counters repeat bit for bit (" + label + ")");
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double acc = 0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

double
secondsSince(Clock::time_point t0)
{
    return static_cast<double>(nsBetween(t0, Clock::now())) / 1e9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
moreReps(double runSecondsSoFar, std::size_t reps, double seconds,
         std::size_t minReps)
{
    return reps < minReps || runSecondsSoFar < seconds;
}

LayerTimes
reportTrace(Result &res, const Options &opt, const std::string &workload,
            const std::vector<SpanRecord> &spans)
{
    LayerTimes t = analyzeSpans(spans);

    // The obs layer's own cost: writing the in-memory spans out.
    const auto t0 = Clock::now();
    const std::string base = opt.traceDir + "/" + workload;
    const bool wrote = writeChromeTrace(spans, base + ".trace.json");
    t.selfNs["obs"] += nsBetween(t0, Clock::now());
    res.check(wrote && writeLayerSnapshot(t, base + ".layers.json"),
              "trace written: " + base + ".trace.json (" +
                  std::to_string(spans.size()) + " spans), " + base +
                  ".layers.json");

    std::int64_t total = 0;
    for (const auto &[layer, ns] : t.selfNs)
        total += ns;
    for (const char *layer : kLayers) {
        const auto it = t.selfNs.find(layer);
        const double ms =
            it == t.selfNs.end() ? 0 : static_cast<double>(it->second) / 1e6;
        std::printf("layer %-10s self %10.3f ms  %5.1f%%\n", layer, ms,
                    total > 0 ? ms * 1e8 / static_cast<double>(total) : 0);
        res.layer(std::string(layer) + ".self_ms", ms);
    }
    return t;
}

void
spanPercentiles(Result &res, const LayerTimes &t, const std::string &name,
                const std::string &metric)
{
    std::vector<double> d;
    if (auto it = t.durations.find(name); it != t.durations.end())
        d.assign(it->second.begin(), it->second.end());
    res.layer(metric + ".p50", percentile(d, 50));
    res.layer(metric + ".p99", percentile(d, 99));
}

WindowFigures
fastestDecile(const std::vector<Window> &windows)
{
    WindowFigures f;
    if (windows.empty())
        return f;
    std::vector<const Window *> byRate;
    for (const Window &w : windows)
        byRate.push_back(&w);
    std::sort(byRate.begin(), byRate.end(),
              [](const Window *a, const Window *b) {
                  return a->rate > b->rate;
              });
    byRate.resize(std::max<std::size_t>(1, byRate.size() / 10));
    // Per class, the median over the selected windows of each window's
    // percentile, so one window's stray tail cannot move it. Windows
    // too small for a p99 of their own (under 100 samples of the
    // class) are pooled instead.
    const std::size_t classes = byRate.front()->latNs.size();
    std::vector<double> rates;
    std::vector<std::vector<double>> p50(classes), p99(classes),
        pooled(classes);
    for (const Window *w : byRate) {
        rates.push_back(w->rate);
        for (std::size_t c = 0; c < classes; ++c) {
            const std::vector<double> lat(w->latNs[c].begin(),
                                          w->latNs[c].end());
            p50[c].push_back(percentile(lat, 50));
            p99[c].push_back(percentile(lat, 99));
            pooled[c].insert(pooled[c].end(), lat.begin(), lat.end());
        }
    }
    f.rate = median(rates);
    for (std::size_t c = 0; c < classes; ++c) {
        const bool pool = pooled[c].size() < 100 * byRate.size();
        f.p50.push_back(pool ? percentile(pooled[c], 50) : median(p50[c]));
        f.p99.push_back(pool ? percentile(pooled[c], 99) : median(p99[c]));
    }
    return f;
}

double
lowDecile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    v.resize(std::max<std::size_t>(1, v.size() / 10));
    return median(v);
}

void
addModelCounts(ExactCounts &e, upr::Runtime &rt)
{
    upr::Machine &m = rt.machine();
    e["relToAbs"] += rt.relToAbs();
    e["absToRel"] += rt.absToRel();
    e["reuseHits"] += rt.reuseHits();
    e["memAccesses"] += m.memAccesses();
    e["l1Hits"] += m.caches().l1().hits();
    e["l1Misses"] += m.caches().l1().misses();
    e["l3Hits"] += m.caches().l3().hits();
    e["l3Misses"] += m.caches().l3().misses();
    e["polbWalks"] += m.polb().walkCount();
    e["valbWalks"] += m.valb().walkCount();
    e["storePs"] += m.storePCount();
    e["branches"] += m.bpred().branches();
    e["branchMisses"] += m.bpred().mispredicts();
}

void
setModelMetrics(Result &res, const ExactCounts &e, double ops)
{
    const auto get = [&](const char *k) {
        const auto it = e.find(k);
        return it == e.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto share = [&](const char *part, const char *rest) {
        const double all = get(part) + get(rest);
        return all > 0 ? get(part) / all : 0;
    };
    res.layer("core.rel_to_abs_per_op", get("relToAbs") / ops);
    res.layer("core.abs_to_rel_per_op", get("absToRel") / ops);
    res.layer("core.reuse_hit_ratio", share("reuseHits", "relToAbs"));
    res.layer("core.dynamic_checks_per_kinst",
              get("dynamicChecks") / ops * 1e3);
    res.layer("arch.mem_accesses_per_op", get("memAccesses") / ops);
    res.layer("arch.l1_miss_ratio", share("l1Misses", "l1Hits"));
    res.layer("arch.l3_miss_ratio", share("l3Misses", "l3Hits"));
    res.layer("arch.polb_walks_per_kop", get("polbWalks") / ops * 1e3);
    res.layer("arch.valb_walks_per_kop", get("valbWalks") / ops * 1e3);
    res.layer("arch.storep_per_op", get("storePs") / ops);
    res.layer("arch.branch_miss_ratio",
              get("branches") > 0 ? get("branchMisses") / get("branches")
                                  : 0);
}

double
spanTotalMs(const LayerTimes &t, const std::string &name)
{
    double ns = 0;
    if (auto it = t.durations.find(name); it != t.durations.end()) {
        for (std::int64_t d : it->second)
            ns += static_cast<double>(d);
    }
    return ns / 1e6;
}

} // namespace perfbench
