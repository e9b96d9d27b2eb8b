/**
 * @file
 * uprstat: pretty-print and diff observability metrics JSON.
 *
 *   uprstat FILE               human-readable counter/histogram table
 *   uprstat --json FILE        canonical JSON re-emission (round-trip)
 *   uprstat --diff OLD NEW     per-entry delta between two documents
 *   uprstat --paper VIEW FILE  a paper figure/table from a fig11 grid
 *                              (VIEW: fig11, fig13, fig15 or table5)
 *
 * Accepted inputs: a MetricsSnapshot document ({"counters": ...,
 * "histograms": ...}) as written by MetricsSnapshot::toJson(), or a
 * bench_harness BENCH_*.json file, whose per-cell "metrics" sections
 * are aggregated under "<workload>/<version>." prefixed names.
 * --paper reads a BENCH_fig11.json (bench_harness --only fig11): one
 * cell per Table III benchmark and version, rows in file order.
 *
 * Exit status: 0 ok (diff: documents identical), 1 diff found
 * differences, 2 usage/parse error (--paper: also a document that is
 * not a complete fig11 grid, a failed cell or a zero denominator).
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_value.hh"

using upr::obs::JsonValue;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: uprstat [--json] FILE\n"
                 "       uprstat --diff OLD NEW\n"
                 "       uprstat --paper fig11|fig13|fig15|table5 "
                 "FILE\n");
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/**
 * A flattened document: counter name -> value, histogram name ->
 * (field name -> value). Maps give a stable order for printing and
 * diffing regardless of source order.
 */
struct FlatDoc
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::map<std::string, std::uint64_t>>
        histograms;
};

void
flattenHistogram(FlatDoc &doc, const std::string &name,
                 const JsonValue &h)
{
    if (!h.isObject())
        return;
    for (const auto &[field, value] : h.members()) {
        if (value.isUint())
            doc.histograms[name][field] = value.asUint();
    }
}

/** Flatten one MetricsSnapshot object into @p doc with @p prefix. */
void
flattenSnapshot(FlatDoc &doc, const std::string &prefix,
                const JsonValue &snap)
{
    if (const JsonValue *cs = snap.find("counters");
        cs && cs->isObject()) {
        for (const auto &[name, value] : cs->members()) {
            if (value.isUint())
                doc.counters[prefix + name] = value.asUint();
        }
    }
    if (const JsonValue *hs = snap.find("histograms");
        hs && hs->isObject()) {
        for (const auto &[name, h] : hs->members())
            flattenHistogram(doc, prefix + name, h);
    }
}

/** Flatten either document shape (see file comment). */
bool
flatten(const JsonValue &root, FlatDoc &doc)
{
    if (root.find("counters") || root.find("histograms")) {
        flattenSnapshot(doc, "", root);
        return true;
    }
    const JsonValue *cells = root.find("cells");
    if (!cells || !cells->isArray())
        return false;
    for (const JsonValue &cell : cells->items()) {
        const JsonValue *w = cell.find("workload");
        const JsonValue *v = cell.find("version");
        const JsonValue *m = cell.find("metrics");
        if (!w || !v || !m)
            continue;
        const std::string prefix =
            w->asString() + "/" + v->asString() + ".";
        for (const auto &[name, h] : m->members())
            flattenHistogram(doc, prefix + name, h);
    }
    return true;
}

void
printFlat(const FlatDoc &doc)
{
    if (!doc.counters.empty()) {
        std::printf("counters (%zu):\n", doc.counters.size());
        for (const auto &[name, value] : doc.counters)
            std::printf("  %-40s %20" PRIu64 "\n", name.c_str(),
                        value);
    }
    if (!doc.histograms.empty()) {
        std::printf("histograms (%zu):\n", doc.histograms.size());
        for (const auto &[name, fields] : doc.histograms) {
            std::printf("  %s:", name.c_str());
            for (const auto &[field, value] : fields)
                std::printf(" %s=%" PRIu64, field.c_str(), value);
            std::printf("\n");
        }
    }
    if (doc.counters.empty() && doc.histograms.empty())
        std::printf("(no metrics)\n");
}

/** Print one side-by-side diff row. */
void
diffRow(const std::string &name, const std::uint64_t *oldv,
        const std::uint64_t *newv)
{
    if (oldv && newv) {
        const std::int64_t delta =
            static_cast<std::int64_t>(*newv) -
            static_cast<std::int64_t>(*oldv);
        std::printf("  %-40s %20" PRIu64 " -> %20" PRIu64
                    "  (%+" PRId64 ")\n",
                    name.c_str(), *oldv, *newv, delta);
    } else if (newv) {
        std::printf("  %-40s %20s -> %20" PRIu64 "  (new)\n",
                    name.c_str(), "-", *newv);
    } else {
        std::printf("  %-40s %20" PRIu64 " -> %20s  (gone)\n",
                    name.c_str(), *oldv, "-");
    }
}

int
diffDocs(const FlatDoc &olds, const FlatDoc &news)
{
    bool differ = false;

    std::map<std::string, std::uint64_t> oldFlat = olds.counters;
    std::map<std::string, std::uint64_t> newFlat = news.counters;
    // Histogram fields join the same namespace as "name.field".
    for (const auto &[name, fields] : olds.histograms)
        for (const auto &[field, value] : fields)
            oldFlat[name + "." + field] = value;
    for (const auto &[name, fields] : news.histograms)
        for (const auto &[field, value] : fields)
            newFlat[name + "." + field] = value;

    std::vector<std::string> names;
    for (const auto &[name, value] : oldFlat)
        names.push_back(name);
    for (const auto &[name, value] : newFlat) {
        if (!oldFlat.count(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        const auto oi = oldFlat.find(name);
        const auto ni = newFlat.find(name);
        const std::uint64_t *ov =
            oi == oldFlat.end() ? nullptr : &oi->second;
        const std::uint64_t *nv =
            ni == newFlat.end() ? nullptr : &ni->second;
        if (ov && nv && *ov == *nv)
            continue;
        differ = true;
        diffRow(name, ov, nv);
    }

    if (!differ) {
        std::printf("identical: %zu entries\n", oldFlat.size());
        return 0;
    }
    return 1;
}

// ----------------------------------------------------------------------
// Paper views over a fig11 grid
// ----------------------------------------------------------------------

/** Why a document cannot be rendered as a paper view. */
struct PaperError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

const char *const kTableIII[] = {"LL", "Hash", "RB", "Splay", "AVL", "SG"};
const char *const kVersions[] = {"Volatile", "HW", "SW", "Explicit"};

/** A complete fig11 grid: every row has a cell per version. */
struct Grid
{
    std::vector<std::string> rows; // workloads, in file order
    std::map<std::string, const JsonValue *> cells; // "row/version"

    std::uint64_t
    at(const std::string &row, const char *version, const char *key) const
    {
        const JsonValue *v = cells.at(row + "/" + version)->find(key);
        if (v == nullptr || !v->isUint())
            throw PaperError("cell " + row + "/" + version +
                             " has no counter '" + key + "'");
        return v->asUint();
    }

    /** @p num / @p den, refusing a zero denominator. */
    static double
    ratio(std::uint64_t num, std::uint64_t den, const std::string &what)
    {
        if (den == 0)
            throw PaperError("zero denominator: " + what);
        return static_cast<double>(num) / static_cast<double>(den);
    }

    /** @p key of @p version relative to the same key of @p base. */
    double
    rel(const std::string &row, const char *version, const char *key,
        const char *base = "Volatile") const
    {
        return ratio(at(row, version, key), at(row, base, key),
                     row + "/" + base + " " + key);
    }
};

Grid
loadGrid(const JsonValue &root)
{
    const JsonValue *cells = root.find("cells");
    if (cells == nullptr || !cells->isArray())
        throw PaperError("not a bench document (no cells)");
    Grid g;
    for (const JsonValue &cell : cells->items()) {
        const JsonValue *w = cell.find("workload");
        const JsonValue *v = cell.find("version");
        const std::string row = w ? w->asString() : "";
        const std::string version = v ? v->asString() : "";
        const std::string name = row + "/" + version;
        if (std::find(std::begin(kTableIII), std::end(kTableIII), row) ==
                std::end(kTableIII) ||
            std::find(std::begin(kVersions), std::end(kVersions),
                      version) == std::end(kVersions))
            throw PaperError("not a fig11 grid: cell " + name);
        if (const JsonValue *e = cell.find("error"))
            throw PaperError("cell " + name + " failed: " + e->asString());
        if (!g.cells.emplace(name, &cell).second)
            throw PaperError("duplicate cell " + name);
        if (std::find(g.rows.begin(), g.rows.end(), row) == g.rows.end())
            g.rows.push_back(row);
    }
    if (g.rows.empty())
        throw PaperError("not a fig11 grid: no cells");
    for (const std::string &row : g.rows)
        for (const char *version : kVersions)
            if (!g.cells.count(row + "/" + version))
                throw PaperError("missing cell " + row + "/" + version);
    return g;
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/**
 * Figure 11: execution time normalized to Volatile. Paper shapes: HW
 * close to Volatile (largest overhead ~12%, on Splay); SW far slower
 * (average 2.75x); HW beats Explicit by 1-3x thanks to conversion
 * reuse.
 */
void
fig11View(const Grid &g)
{
    std::printf("\nFigure 11: execution time normalized to Volatile "
                "(lower is better)\n");
    std::printf("%-6s %10s %10s %10s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit");
    std::vector<double> hw, sw, ex, ex_vs_hw;
    for (const std::string &row : g.rows) {
        hw.push_back(g.rel(row, "HW", "cycles"));
        sw.push_back(g.rel(row, "SW", "cycles"));
        ex.push_back(g.rel(row, "Explicit", "cycles"));
        ex_vs_hw.push_back(g.rel(row, "Explicit", "cycles", "HW"));
        std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n", row.c_str(),
                    1.0, hw.back(), sw.back(), ex.back());
    }
    std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n", "gmean", 1.0,
                geomean(hw), geomean(sw), geomean(ex));
    std::printf("\npaper expectations: HW ~1.0-1.12x, SW avg ~2.75x, "
                "Explicit/HW ~1.33x (ours: %.2fx)\n",
                geomean(ex_vs_hw));
}

/**
 * Figure 13: branch mispredictions normalized to Volatile. SW's
 * dynamic checks are conditional branches (paper: 6.7x-2944x HW's
 * mispredictions); HW's checks are wired logic, so it sits at ~1.0.
 */
void
fig13View(const Grid &g)
{
    std::printf("\nFigure 13: branch mispredictions normalized to "
                "Volatile (lower is better)\n");
    std::printf("%-6s %12s %12s %12s %12s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit", "SW/HW");
    for (const std::string &row : g.rows) {
        std::printf("%-6s %12.2f %12.2f %12.2f %12.2f %10.1f\n",
                    row.c_str(), 1.0, g.rel(row, "HW", "branchMisses"),
                    g.rel(row, "SW", "branchMisses"),
                    g.rel(row, "Explicit", "branchMisses"),
                    g.rel(row, "SW", "branchMisses", "HW"));
    }
    std::printf("\n(absolute branch counts, for reference)\n");
    std::printf("%-6s %14s %14s %14s\n", "bench", "Volatile.br",
                "SW.br", "SW.miss");
    for (const std::string &row : g.rows) {
        std::printf("%-6s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                    row.c_str(), g.at(row, "Volatile", "branches"),
                    g.at(row, "SW", "branches"),
                    g.at(row, "SW", "branchMisses"));
    }
    std::printf("\npaper expectation: SW mispredictions 6.7-2944x "
                "those of HW; HW ~= Volatile\n");
}

/**
 * Figure 15: the shares of HW-version memory accesses that are
 * storeP, touch the VALB/VAW and touch the POLB/POW — why VALB
 * latency barely matters (Fig 14) while the POLB sits on the load
 * path.
 */
void
fig15View(const Grid &g)
{
    std::printf("\nFigure 15: share of memory accesses touching each "
                "UPR structure (HW version)\n");
    std::printf("%-6s %14s %12s %12s %12s\n", "bench", "mem accesses",
                "storeP %", "VALB %", "POLB %");
    double sums[3] = {0, 0, 0};
    for (const std::string &row : g.rows) {
        const std::uint64_t total = g.at(row, "HW", "memAccesses");
        double pct[3];
        int k = 0;
        for (const char *key : {"storePs", "valbAccesses", "polbAccesses"}) {
            pct[k] = 100.0 * Grid::ratio(g.at(row, "HW", key), total,
                                         row + "/HW memAccesses");
            sums[k] += pct[k];
            ++k;
        }
        std::printf("%-6s %14" PRIu64 " %11.3f%% %11.3f%% %11.3f%%\n",
                    row.c_str(), total, pct[0], pct[1], pct[2]);
    }
    const double n = static_cast<double>(g.rows.size());
    std::printf("%-6s %14s %11.3f%% %11.3f%% %11.3f%%\n", "mean", "",
                sums[0] / n, sums[1] / n, sums[2] / n);
    std::printf("\npaper: 0.38%% storeP, 0.22%% VALB/VAW, 12.6%% "
                "POLB/POW\n");
}

/** Table V: dynamic checks and conversions per benchmark. */
void
table5View(const Grid &g)
{
    std::printf("\nTable V: dynamic checks and conversions per "
                "benchmark (SW version)\n");
    std::printf("%-6s %16s %16s %16s\n", "bench", "dynamic checks",
                "abs. to rel.", "rel. to abs.");
    for (const std::string &row : g.rows) {
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 " %16" PRIu64 "\n",
                    row.c_str(), g.at(row, "SW", "dynamicChecks"),
                    g.at(row, "SW", "absToRel"),
                    g.at(row, "SW", "relToAbs"));
    }
    std::printf("\n(HW version conversion traffic, showing the "
                "reuse effect of Fig 12)\n");
    std::printf("%-6s %16s %16s\n", "bench", "abs. to rel.",
                "rel. to abs.");
    for (const std::string &row : g.rows) {
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 "\n", row.c_str(),
                    g.at(row, "HW", "absToRel"),
                    g.at(row, "HW", "relToAbs"));
    }
}

using PaperView = void (*)(const Grid &);

const std::pair<const char *, PaperView> kPaperViews[] = {
    {"fig11", fig11View},
    {"fig13", fig13View},
    {"fig15", fig15View},
    {"table5", table5View},
};

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool diff = false;
    PaperView paper = nullptr;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--diff") == 0) {
            diff = true;
        } else if (std::strcmp(argv[i], "--paper") == 0 && i + 1 < argc &&
                   paper == nullptr) {
            for (const auto &[name, view] : kPaperViews)
                if (std::strcmp(argv[i + 1], name) == 0)
                    paper = view;
            if (paper == nullptr)
                return usage();
            ++i;
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            return usage();
        } else {
            files.push_back(argv[i]);
        }
    }
    if (json + diff + (paper != nullptr) > 1 ||
        (diff ? files.size() != 2 : files.size() != 1))
        return usage();

    std::vector<JsonValue> docs;
    for (const std::string &path : files) {
        std::string text;
        if (!readFile(path, text)) {
            std::fprintf(stderr, "uprstat: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        try {
            docs.push_back(upr::obs::parseJson(text));
        } catch (const upr::obs::JsonParseError &e) {
            std::fprintf(stderr, "uprstat: %s: %s\n", path.c_str(),
                         e.what());
            return 2;
        }
    }

    if (json) {
        // Canonical re-emission: parse(dump(parse(x))) == parse(x),
        // and dump is byte-stable on its own output.
        std::fputs(docs[0].dump().c_str(), stdout);
        return 0;
    }

    if (paper != nullptr) {
        try {
            const Grid grid = loadGrid(docs[0]);
            const JsonValue *rev = docs[0].find("gitRev");
            const JsonValue *scale = docs[0].find("benchScale");
            std::printf("# %s: git %s, benchScale %s\n", files[0].c_str(),
                        rev ? rev->asString().c_str() : "?",
                        scale ? scale->raw().c_str() : "?");
            paper(grid);
        } catch (const PaperError &e) {
            std::fprintf(stderr, "uprstat: %s: %s\n", files[0].c_str(),
                         e.what());
            return 2;
        }
        return 0;
    }

    std::vector<FlatDoc> flat(docs.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
        if (!flatten(docs[i], flat[i])) {
            std::fprintf(stderr,
                         "uprstat: %s: neither a metrics snapshot "
                         "nor a bench file\n",
                         files[i].c_str());
            return 2;
        }
    }

    if (diff)
        return diffDocs(flat[0], flat[1]);
    printFlat(flat[0]);
    return 0;
}
