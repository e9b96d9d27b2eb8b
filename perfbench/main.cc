/**
 * @file
 * uprbench: the repository benchmark. One command runs one workload,
 * prints every metric by name with its unit plus the oracle verdicts,
 * and ends with one JSON line:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * With --trace 0 the JSON carries the end-to-end metrics of the
 * untraced repetitions; with --trace 1 it carries the per-layer
 * metrics, which need one extra traced repetition.
 *
 * Usage: uprbench --workload kv_read_latest|kv_update_durable|ir_exec
 *                 --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * Exit status: 0 when every oracle and self-check passed, 1 when one
 * failed (the JSON line still reports it), 2 on bad usage or an
 * unexpected error (no JSON line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "common/logging.hh"

using namespace perfbench;

namespace
{

/**
 * Drop the library's informational and warning lines (recovery warns
 * on every rolled-back crash image, inside a timed adoption); keep
 * fatal and panic messages.
 */
void
quietSink(upr::LogLevel level, const std::string &message)
{
    if (level == upr::LogLevel::Fatal || level == upr::LogLevel::Panic)
        std::fprintf(stderr, "%s\n", message.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: uprbench --workload "
                 "kv_read_latest|kv_update_durable|ir_exec --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
}

/** All digits of a finite double; non-finite values print as 0. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The workload's values in canonical order. A name the workload did
 * not set is 0 (a bypassed layer); a name it set that the canonical
 * list lacks is a bug in the benchmark.
 */
std::vector<Metric>
canonical(const std::vector<Metric> &specs,
          const std::map<std::string, double> &values)
{
    std::vector<Metric> out = specs;
    for (Metric &m : out) {
        if (auto it = values.find(m.name); it != values.end())
            m.value = it->second;
    }
    for (const auto &[name, v] : values) {
        const bool known = std::any_of(
            specs.begin(), specs.end(),
            [&](const Metric &m) { return m.name == name; });
        if (!known)
            throw std::logic_error("metric not in the list: " + name);
    }
    return out;
}

void
printMetrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%s %-36s %22s %s\n", kind, m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string workload;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (!std::strcmp(a, "--workload")) {
            workload = v;
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(v, &end, 10);
            haveSeed = *v != '\0' && *end == '\0';
        } else if (!std::strcmp(a, "--seconds")) {
            opt.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600)
                return usage();
        } else if (!std::strcmp(a, "--trace")) {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return usage();
            opt.trace = v[0] == '1';
        } else if (!std::strcmp(a, "--trace-dir")) {
            opt.traceDir = v;
        } else {
            return usage();
        }
    }
    if (!haveSeed)
        return usage();

    upr::setLogSink(quietSink);
    Result res;
    std::vector<Metric> e2e;
    std::vector<Metric> layers;
    try {
        if (workload == "kv_read_latest") {
            res = runKvReadLatest(opt);
        } else if (workload == "kv_update_durable") {
            res = runKvUpdateDurable(opt);
        } else if (workload == "ir_exec") {
            res = runIrExec(opt);
        } else {
            return usage();
        }
        e2e = canonical(endToEndSpecs(), res.endToEnd);
        layers = canonical(perLayerSpecs(), res.perLayer);
        for (const Metric &m : e2e) {
            if (!(m.value > 0))
                throw std::logic_error("end-to-end metric not measured: " +
                                       m.name);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uprbench %s: %s\n", workload.c_str(),
                     e.what());
        return 2;
    }

    std::printf("workload %s seed %llu\n", workload.c_str(),
                (unsigned long long)opt.seed);
    printMetrics("e2e  ", e2e);
    printMetrics("layer", layers);
    const double failedFrac =
        res.attempted ? static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted)
                      : 1.0;
    std::printf("e2e   %-36s %22s ratio\n", "failed_frac",
                num(failedFrac).c_str());
    for (const std::string &v : res.verdicts)
        std::printf("oracle %s\n", v.c_str());
    const bool correct =
        res.correct && res.failed == 0 && res.attempted > 0;
    std::printf("oracle verdict: %s\n", correct ? "PASS" : "FAIL");

    const std::vector<Metric> &out = opt.trace ? layers : e2e;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
                num(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
