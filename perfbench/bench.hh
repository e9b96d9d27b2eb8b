/**
 * @file
 * What every workload of the benchmark shares: options, the result
 * record, and the statistics helpers.
 *
 * A workload runs as repetitions. Each repetition repeats the same
 * phases on fresh state built from the same seed: setup (which
 * includes the load), run, and verify. Only the run phase feeds
 * throughput and latency. Because every repetition does identical
 * work, its exact counters (modeled cycles, translations, fences...)
 * must repeat bit for bit; the traced repetition must match too, which
 * shows that tracing does not perturb the model.
 */

#ifndef UPR_PERFBENCH_BENCH_HH
#define UPR_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace upr
{
class Runtime;
} // namespace upr

namespace perfbench
{

/** Command-line options a workload receives. */
struct Options
{
    std::uint64_t seed = 1;
    /** Run-phase time to accumulate over the untraced repetitions. */
    double seconds = 10;
    /** Also run one traced repetition and report per-layer metrics. */
    bool trace = false;
    /** Directory for the Chrome trace and the layer snapshot. */
    std::string traceDir = ".";
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The metric names every workload prints, in print order, with their
 * units. BENCHMARK.json lists the same names. A per-layer metric a
 * workload does not exercise (its layer is bypassed) prints as 0.
 */
const std::vector<Metric> &endToEndSpecs();
const std::vector<Metric> &perLayerSpecs();

/** The seven compiler-path programs of the ir_exec workload. */
extern const char *const kIrPrograms[7];

/** Everything a workload reports. */
struct Result
{
    /** End-to-end metrics (untraced repetitions), by name. */
    std::map<std::string, double> endToEnd;
    /** Per-layer metrics (traced and untraced repetitions), by name. */
    std::map<std::string, double> perLayer;
    /** Operations attempted over all repetitions. */
    std::uint64_t attempted = 0;
    /** Operations that threw or returned a wrong answer. */
    std::uint64_t failed = 0;
    /** Oracle and self-check verdicts, one line each. */
    std::vector<std::string> verdicts;
    /** False if any oracle or self-check failed. */
    bool correct = true;

    void e2e(const std::string &n, double v) { endToEnd[n] = v; }
    void layer(const std::string &n, double v) { perLayer[n] = v; }
    /** Record a verdict; @p ok false marks the run incorrect. */
    void check(bool ok, const std::string &what);
};

/** Exact counters of one repetition, compared across repetitions. */
using ExactCounts = std::map<std::string, std::uint64_t>;

/**
 * Compare @p got against the first repetition's counters in @p ref
 * (stored on first call) and record the verdict in @p res.
 */
void checkExact(Result &res, ExactCounts &ref, bool &haveRef,
                const ExactCounts &got, const std::string &label);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** @p p-th percentile (0-100, linear interpolation) of @p v. */
double percentile(std::vector<double> v, double p);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/** Seconds since @p t0. */
double secondsSince(Clock::time_point t0);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** 64-bit mix of a seed and a stream tag (splitmix64 finalizer). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag);

/**
 * Repetition-loop policy: keep repeating until the run phases add up
 * to @p seconds, with at least @p minReps repetitions.
 */
bool moreReps(double runSecondsSoFar, std::size_t reps, double seconds,
              std::size_t minReps = 3);

/**
 * Per-layer self times of a traced repetition: writes the Chrome trace
 * and the uprstat snapshot to @p opt.traceDir, prints one line per
 * layer, and sets the "<layer>.self_ms" metrics.
 */
LayerTimes reportTrace(Result &res, const Options &opt,
                       const std::string &workload,
                       const std::vector<SpanRecord> &spans);

/**
 * Set "<metric>.p50" and "<metric>.p99" from the durations of the
 * spans named @p name.
 */
void spanPercentiles(Result &res, const LayerTimes &t,
                     const std::string &name, const std::string &metric);

/**
 * One measurement window of a run phase: operations timed together
 * (a chunk of one client's operations, a repetition, or one call).
 *
 * The host this benchmark runs on may be shared: on a busy machine the
 * same window runs up to 2x slower for seconds at a time while other
 * tenants load the memory system. Timing metrics therefore come from
 * the fastest tenth of the windows, a best-of-N estimate that drops
 * windows slowed by interference.
 */
struct Window
{
    /** Operations per second over the window. */
    double rate = 0;
    /** Latency samples (ns) per request class of the workload. */
    std::vector<std::vector<float>> latNs;
};

/** Timing figures of the fastest tenth of the windows. */
struct WindowFigures
{
    /** Median rate of the selected windows. */
    double rate = 0;
    /** Per request class: median over the selected windows of their
     * p50 and p99 latencies (ns), or the percentiles of the pooled
     * samples when windows hold under 100 samples of the class. */
    std::vector<double> p50;
    std::vector<double> p99;
};

/** Figures over the fastest tenth (at least one) of @p windows. */
WindowFigures fastestDecile(const std::vector<Window> &windows);

/** Median of the lowest tenth (at least one) of @p v. */
double lowDecile(std::vector<double> v);

/** Add @p rt's exact model counters (translations, caches...) to @p e. */
void addModelCounts(ExactCounts &e, upr::Runtime &rt);

/**
 * Set the exact core.* and arch.* per-layer metrics from counters that
 * addModelCounts summed, plus "dynamicChecks", over @p ops operations.
 */
void setModelMetrics(Result &res, const ExactCounts &e, double ops);

/** Summed duration of the spans named @p name, in ms. */
double spanTotalMs(const LayerTimes &t, const std::string &name);

/** Workload entry points. */
Result runKvReadLatest(const Options &opt);
Result runKvUpdateDurable(const Options &opt);
Result runIrExec(const Options &opt);

} // namespace perfbench

#endif // UPR_PERFBENCH_BENCH_HH
