/**
 * @file
 * uprstat: pretty-print and diff observability metrics JSON.
 *
 *   uprstat FILE               human-readable counter/histogram table
 *   uprstat --json FILE        canonical JSON re-emission (round-trip)
 *   uprstat --diff OLD NEW     per-entry delta between two documents
 *   uprstat --paper VIEW FILE  a paper figure/table from a bench file,
 *                              with its shape claims checked
 *
 * Accepted inputs: a MetricsSnapshot document ({"counters": ...,
 * "histograms": ...}) as written by MetricsSnapshot::toJson(), or a
 * bench_harness BENCH_*.json file, whose per-cell "metrics" sections
 * are aggregated under "<workload>/<version>." prefixed names.
 * --paper reads the cells of a bench_harness file by workload and
 * version (kPaperViews lists each VIEW): fig11, fig13, fig15 and
 * table5 read BENCH_fig11.json; fig14 and sens_memory
 * BENCH_sweep.json; the others BENCH_paper.json.
 *
 * Exit status: 0 ok (diff: documents identical), 1 diff found
 * differences or a paper view's shape claim (EXPERIMENTS.md) fails,
 * 2 usage/parse error (--paper: also a missing or failed cell, or a
 * zero denominator).
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_value.hh"

using upr::obs::JsonValue;

namespace
{

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
// Paper views over bench cells
// ----------------------------------------------------------------------

/** Why a document cannot be rendered as a paper view. */
struct PaperError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

const char *const kTableIII[] = {"LL", "Hash", "RB", "Splay", "AVL", "SG"};

/** A bench document's cells by workload/version. */
struct Grid
{
    std::map<std::string, const JsonValue *> cells; // "workload/version"

    /** Counter @p key ("group.name" if nested) of cell @p row/@p version. */
    std::uint64_t
    at(const std::string &row, const std::string &version,
       const std::string &key) const
    {
        const auto it = cells.find(row + "/" + version);
        if (it == cells.end())
            throw PaperError("missing cell " + row + "/" + version);
        const JsonValue *v = it->second;
        for (std::size_t b = 0, e = 0; v != nullptr && e != key.size();
             b = e + 1) {
            e = std::min(key.find('.', b), key.size());
            v = v->find(key.substr(b, e - b));
        }
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
    rel(const std::string &row, const std::string &version,
        const std::string &key, const std::string &base = "Volatile") const
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
        const std::string name = (w ? w->asString() : "") + "/" +
                                 (v ? v->asString() : "");
        if (const JsonValue *e = cell.find("error"))
            throw PaperError("cell " + name + " failed: " + e->asString());
        if (!g.cells.emplace(name, &cell).second)
            throw PaperError("duplicate cell " + name);
    }
    return g;
}

/**
 * The shape claims a view checks, as EXPERIMENTS.md states them: one
 * line each, and uprstat exits 1 if any fails.
 */
struct Claims
{
    bool ok = true;

    void
    operator()(bool holds, const std::string &what)
    {
        std::printf("shape: %s: %s\n", what.c_str(),
                    holds ? "holds" : "FAILS");
        ok = ok && holds;
    }
};

double
geomean(const std::vector<double> &xs)
{
    double acc = 0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Whether @p xs strictly increases. */
bool
rising(const std::vector<double> &xs)
{
    return std::adjacent_find(xs.begin(), xs.end(),
                              std::greater_equal<>()) == xs.end();
}

/** The Table III row holding the largest of @p xs. */
std::string
worstRow(const std::vector<double> &xs)
{
    return kTableIII[std::max_element(xs.begin(), xs.end()) - xs.begin()];
}

/**
 * Figure 11: execution time normalized to Volatile. Paper shapes: HW
 * close to Volatile (largest overhead ~12%, on Splay); SW far slower
 * (average 2.75x); HW beats Explicit by 1-3x thanks to conversion
 * reuse.
 */
void
fig11View(const Grid &g, Claims &claim)
{
    std::printf("\nFigure 11: execution time normalized to Volatile "
                "(lower is better)\n");
    std::printf("%-6s %10s %10s %10s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit");
    std::vector<double> hw, sw, ex, ex_vs_hw;
    bool ordered = true;
    for (const char *row : kTableIII) {
        hw.push_back(g.rel(row, "HW", "cycles"));
        sw.push_back(g.rel(row, "SW", "cycles"));
        ex.push_back(g.rel(row, "Explicit", "cycles"));
        ex_vs_hw.push_back(g.rel(row, "Explicit", "cycles", "HW"));
        ordered = ordered && 1.0 < hw.back() && hw.back() < ex.back() &&
                  ex.back() < sw.back();
        std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n", row, 1.0,
                    hw.back(), sw.back(), ex.back());
    }
    std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n", "gmean", 1.0,
                geomean(hw), geomean(sw), geomean(ex));
    std::printf("\npaper expectations: HW ~1.0-1.12x, SW avg ~2.75x, "
                "Explicit/HW ~1.33x (ours: %.2fx)\n\n",
                geomean(ex_vs_hw));
    claim(ordered, "Volatile < HW < Explicit < SW on every row");
    claim(worstRow(hw) == "Splay" && worstRow(sw) == "Splay",
          "Splay is the worst row for HW and for SW");
}

/**
 * Figure 13: branch mispredictions normalized to Volatile. SW's
 * dynamic checks are conditional branches (paper: 6.7x-2944x HW's
 * mispredictions); HW's checks are wired logic, so it sits at ~1.0.
 */
void
fig13View(const Grid &g, Claims &claim)
{
    std::printf("\nFigure 13: branch mispredictions normalized to "
                "Volatile (lower is better)\n");
    std::printf("%-6s %12s %12s %12s %12s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit", "SW/HW");
    std::vector<double> hw, sw_vs_hw;
    for (const char *row : kTableIII) {
        hw.push_back(g.rel(row, "HW", "branchMisses"));
        sw_vs_hw.push_back(g.rel(row, "SW", "branchMisses", "HW"));
        std::printf("%-6s %12.2f %12.2f %12.2f %12.2f %10.1f\n", row, 1.0,
                    hw.back(), g.rel(row, "SW", "branchMisses"),
                    g.rel(row, "Explicit", "branchMisses"),
                    sw_vs_hw.back());
    }
    std::printf("\n(absolute branch counts, for reference)\n");
    std::printf("%-6s %14s %14s %14s\n", "bench", "Volatile.br",
                "SW.br", "SW.miss");
    for (const char *row : kTableIII) {
        std::printf("%-6s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                    row, g.at(row, "Volatile", "branches"),
                    g.at(row, "SW", "branches"),
                    g.at(row, "SW", "branchMisses"));
    }
    std::printf("\npaper expectation: SW mispredictions 6.7-2944x "
                "those of HW; HW ~= Volatile\n\n");
    claim(*std::min_element(sw_vs_hw.begin(), sw_vs_hw.end()) > 1.0 &&
              worstRow(sw_vs_hw) == "LL",
          "SW mispredicts more than HW on every row, most on LL");
    claim(std::all_of(hw.begin(), hw.end(),
                      [](double x) { return std::fabs(x - 1.0) <= 0.01; }),
          "HW within 1% of Volatile on every row");
}

/**
 * Figure 15: the shares of HW-version memory accesses that are
 * storeP, touch the VALB/VAW and touch the POLB/POW — why VALB
 * latency barely matters (Fig 14) while the POLB sits on the load
 * path.
 */
void
fig15View(const Grid &g, Claims &claim)
{
    std::printf("\nFigure 15: share of memory accesses touching each "
                "UPR structure (HW version)\n");
    std::printf("%-6s %14s %12s %12s %12s\n", "bench", "mem accesses",
                "storeP %", "VALB %", "POLB %");
    double sums[3] = {0, 0, 0};
    bool ordered = true;
    for (const char *row : kTableIII) {
        const std::uint64_t total = g.at(row, "HW", "memAccesses");
        double pct[3];
        int k = 0;
        for (const char *key : {"storePs", "valbAccesses", "polbAccesses"}) {
            pct[k] = 100.0 * Grid::ratio(g.at(row, "HW", key), total,
                                         std::string(row) +
                                             "/HW memAccesses");
            sums[k] += pct[k];
            ++k;
        }
        ordered = ordered && pct[1] <= pct[0] && pct[0] < pct[2];
        std::printf("%-6s %14" PRIu64 " %11.3f%% %11.3f%% %11.3f%%\n",
                    row, total, pct[0], pct[1], pct[2]);
    }
    const double n = std::size(kTableIII);
    std::printf("%-6s %14s %11.3f%% %11.3f%% %11.3f%%\n", "mean", "",
                sums[0] / n, sums[1] / n, sums[2] / n);
    std::printf("\npaper: 0.38%% storeP, 0.22%% VALB/VAW, 12.6%% "
                "POLB/POW\n\n");
    claim(ordered, "VALB <= storeP < POLB share on every row");
    claim(sums[2] >= 5 * sums[0], "mean POLB share >= 5x storeP's");
}

/** Table V: dynamic checks and conversions per benchmark. */
void
table5View(const Grid &g, Claims &claim)
{
    std::printf("\nTable V: dynamic checks and conversions per "
                "benchmark (SW version)\n");
    std::printf("%-6s %16s %16s %16s\n", "bench", "dynamic checks",
                "abs. to rel.", "rel. to abs.");
    bool noAbsToRel = true;
    for (const char *row : kTableIII) {
        noAbsToRel = noAbsToRel && g.at(row, "SW", "absToRel") == 0;
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 " %16" PRIu64 "\n",
                    row, g.at(row, "SW", "dynamicChecks"),
                    g.at(row, "SW", "absToRel"),
                    g.at(row, "SW", "relToAbs"));
    }
    std::printf("\n(HW version conversion traffic, showing the "
                "reuse effect of Fig 12)\n");
    std::printf("%-6s %16s %16s\n", "bench", "abs. to rel.",
                "rel. to abs.");
    for (const char *row : kTableIII) {
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 "\n", row,
                    g.at(row, "HW", "absToRel"),
                    g.at(row, "HW", "relToAbs"));
    }
    const auto checks = [&g](const char *row) {
        return g.at(row, "SW", "dynamicChecks");
    };
    std::printf("\n");
    claim(checks("LL") < checks("Hash") && checks("Hash") < checks("RB") &&
              std::max(checks("RB"), checks("AVL")) < checks("SG") &&
              checks("SG") < checks("Splay"),
          "SW dynamic checks LL < Hash < RB, AVL < SG < Splay");
    claim(noAbsToRel, "SW converts no pointer abs. to rel.");
}

/** Figure 12: conversion reuse on a field-access codelet. */
void
fig12View(const Grid &g, Claims &claim)
{
    const char *const rows[] = {"Volatile", "HW", "HW-noreuse", "Explicit"};
    std::printf("\nFigure 12 mechanism: conversion reuse on a "
                "field-access codelet\n");
    std::printf("%-12s %12s %14s %14s\n", "version", "cycles",
                "rel->abs", "POLB accesses");
    std::vector<double> cycles;
    for (const char *v : rows) {
        cycles.push_back(g.at("fig12", v, "cycles"));
        std::printf("%-12s %12" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                    v, g.at("fig12", v, "cycles"),
                    g.at("fig12", v, "relToAbs"),
                    g.at("fig12", v, "polbAccesses"));
    }
    const std::uint64_t hw = g.at("fig12", "HW", "relToAbs");
    const std::uint64_t ex = g.at("fig12", "Explicit", "relToAbs");
    std::printf("\nExplicit/HW cycle ratio: %.2fx (paper: HW wins "
                "1-3x); reuse off costs HW %.2fx\n\n",
                g.rel("fig12", "Explicit", "cycles", "HW"),
                g.rel("fig12", "HW-noreuse", "cycles", "HW"));
    claim(rising(cycles), "Volatile < HW < HW-noreuse < Explicit cycles");
    claim(ex >= 8 * hw, "HW translates >= 8x less often than Explicit");
    claim(g.at("fig12", "HW-noreuse", "relToAbs") == ex,
          "HW with reuse off translates exactly as often as Explicit");
}

/**
 * Figure 14: HW execution time under VALB/VAW latency, normalized to
 * Explicit. Paper: < 10% rise even at 50 cycles.
 */
void
fig14View(const Grid &g, Claims &claim)
{
    const std::pair<const char *, const char *> lats[] = {
        {"1c", "HW-valb1"},   {"5c", "HW-valb5"},   {"10c", "HW-valb10"},
        {"20c", "HW-valb20"}, {"30c", "HW-valb30"}, {"50c", "HW-valb50"}};
    std::printf("\nFigure 14: HW execution time vs VALB/VAW latency, "
                "normalized to Explicit\n");
    std::printf("%-6s", "bench");
    for (const auto &[label, version] : lats)
        std::printf(" %8s", label);
    std::printf("  rise@50c\n");
    bool flat = true;
    double splay = 0;
    std::string overPaper;
    for (const char *row : kTableIII) {
        std::printf("%-6s", row);
        for (const auto &[label, version] : lats)
            std::printf(" %8.3f", g.rel(row, version, "cycles", "Explicit"));
        const double rise =
            100.0 * (g.rel(row, "HW-valb50", "cycles", "HW-valb1") - 1.0);
        std::printf("  %+6.2f%%\n", rise);
        if (std::string(row) == "Splay")
            splay = rise;
        else
            flat = flat && rise < 1.0;
        if (rise >= 10.0)
            overPaper += std::string(overPaper.empty() ? "" : ", ") + row;
    }
    std::printf("\npaper: < 10%% rise at 50-cycle VALB/VAW; rows at or "
                "over it: %s\n\n",
                overPaper.empty() ? "none" : overPaper.c_str());
    claim(flat, "every row but Splay rises < 1% at 50c");
    claim(splay < 12.0, "Splay rises < 12% at 50c");
}

/** Table II: on-chip storage and 45 nm area of the UPR structures. */
void
table2View(const Grid &g, Claims &claim)
{
    std::printf("\nTable II: hardware storage and area (45 nm)\n");
    std::printf("%-10s %12s %12s %12s %12s\n", "structure", "entry (B)",
                "entries", "total (B)", "area (mm^2)");
    std::uint64_t bytes = 0, area = 0;
    for (const char *row : {"FSM", "POLB", "VALB"}) {
        bytes += g.at("table2", row, "bytes");
        area += g.at("table2", row, "areaUm2");
        std::printf("%-10s %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                    " %12.4f\n",
                    row, g.at("table2", row, "entryBytes"),
                    g.at("table2", row, "entries"),
                    g.at("table2", row, "bytes"),
                    g.at("table2", row, "areaUm2") / 1e6);
    }
    std::printf("%-10s %12s %12s %12" PRIu64 " %12.4f\n", "total", "", "",
                bytes, area / 1e6);
    std::printf("\npaper: 1,280 B, 0.0479 mm^2, 0.059%% of a 45 nm "
                "octal-core die (~%.0f mm^2)\n\n",
                area / 1e6 / 0.00059);
    claim(bytes == 1280, "1,280 B in total");
    claim((area + 50) / 100 == 479, "0.0479 mm^2 in total");
}

/** Table III: the six benchmark structures' node sizes. */
void
table3View(const Grid &g, Claims &claim)
{
    const std::pair<const char *, const char *> rows[] = {
        {"LL", "doubly linked list (2 ptrs + 16 B value)"},
        {"Hash", "separate-chaining hash map"},
        {"RB", "red-black tree"},
        {"Splay", "splay tree"},
        {"AVL", "AVL tree"},
        {"SG", "scapegoat tree (alpha=0.7)"}};
    std::printf("\nTable III: the six benchmark data structures\n");
    std::printf("%-6s %-44s %10s\n", "name", "description", "node (B)");
    for (const auto &[row, desc] : rows)
        std::printf("%-6s %-44s %10" PRIu64 "\n", row, desc,
                    g.at("table3", row, "nodeBytes"));
    std::printf("\nPopulation after the load phase: the HW memory "
                "accesses of `uprstat --paper fig15 BENCH_fig11.json`.\n\n");
    const std::uint64_t tree = g.at("table3", "RB", "nodeBytes");
    claim(g.at("table3", "LL", "nodeBytes") == 32,
          "an LL node is 32 B (2 pointers + a 16 B value)");
    claim(g.at("table3", "Splay", "nodeBytes") == tree &&
              g.at("table3", "AVL", "nodeBytes") == tree &&
              g.at("table3", "SG", "nodeBytes") == tree,
          "the four trees share one node size");
}

/** Sec VII-E: the KNN case study's performance half. */
void
knnView(const Grid &g, Claims &claim)
{
    std::printf("\nSec VII-E case study: KNN on iris, 3 of 4 matrices "
                "persisted\n");
    std::printf("%-10s %14s %10s %12s %10s\n", "version", "cycles", "norm",
                "rel->abs", "accuracy");
    bool sameAccuracy = true;
    for (const char *v : {"Volatile", "HW", "SW", "Explicit"}) {
        sameAccuracy = sameAccuracy && g.at("knn", v, "correct") ==
                                           g.at("knn", "Volatile", "correct");
        std::printf("%-10s %14" PRIu64 " %10.3f %12" PRIu64 " %6" PRIu64
                    "/150\n",
                    v, g.at("knn", v, "cycles"), g.rel("knn", v, "cycles"),
                    g.at("knn", v, "relToAbs"), g.at("knn", v, "correct"));
    }
    std::printf("\ntranslating loads under HW: %.3f%% of %" PRIu64
                " (paper: 0.22%%); paper: HW ~= baseline, SW ~7.56x\n\n",
                100.0 * Grid::ratio(g.at("knn", "HW", "relToAbs"),
                                    g.at("knn", "HW", "loads"), "loads"),
                g.at("knn", "HW", "loads"));
    const auto c = [&g](const char *v) { return g.at("knn", v, "cycles"); };
    claim(c("Volatile") < c("HW") && c("HW") < c("Explicit") &&
              c("Explicit") < c("SW"),
          "Volatile < HW < Explicit < SW cycles");
    claim(sameAccuracy, "every version classifies alike");
}

/** Ablation: Sec V-B pointer-kind inference (SW, 2000-node stack). */
void
inferenceView(const Grid &g, Claims &claim)
{
    const std::pair<const char *, const char *> rows[] = {
        {"none", "no inference"},
        {"library", "inference (library mode)"},
        {"refined", "  + block refinement"},
        {"whole", "inference (whole program)"}};
    std::printf("\nAblation: compiler pointer-kind inference (SW version, "
                "2000-node stack workload)\n");
    std::printf("%-28s %8s %10s %14s %12s\n", "configuration", "sites",
                "dyn sites", "dyn executed", "cycles");
    for (const auto &[v, label] : rows)
        std::printf("%-28s %8" PRIu64 " %10" PRIu64 " %14" PRIu64
                    " %12" PRIu64 "\n",
                    label, g.at("inference", v, "staticTotalSites"),
                    g.at("inference", v, "staticRemainingSites"),
                    g.at("inference", v, "irDynamicChecks"),
                    g.at("inference", v, "cycles"));
    const auto dynSites = [&g](const char *v) {
        return g.at("inference", v, "staticRemainingSites");
    };
    std::printf("\nstatic sites kept dynamic: %.0f%% in library mode "
                "(paper: ~42%% of checks remain)\n\n",
                100.0 * Grid::ratio(
                            dynSites("library"),
                            g.at("inference", "library", "staticTotalSites"),
                            "inference/library staticTotalSites"));
    claim(dynSites("whole") < dynSites("refined") &&
              dynSites("refined") < dynSites("library") &&
              dynSites("library") <= dynSites("none"),
          "dynamic sites: whole < refined < library <= none");
}

/** Ablation (Sec VI / Fig 10): why ra2va must not be value-numbered. */
void
optorderView(const Grid &g, Claims &claim)
{
    const std::uint64_t sound = g.at("optorder", "codelet", "soundCycles");
    const std::uint64_t vn = g.at("optorder", "codelet", "vnCycles");
    std::printf("\nAblation: optimization ordering vs soundness "
                "(Sec VI / Fig 10)\n");
    std::printf("codelet p!=q && p!=o, 10k iterations (SW): sound %" PRIu64
                " cycles, value-numbered %" PRIu64 " (%.1f%% faster)\n",
                sound, vn, 100.0 * (1.0 - Grid::ratio(vn, sound, "sound")));
    const bool faulted = g.at("optorder", "detach", "faultRaised") == 1;
    const bool unmapped = g.at("optorder", "detach", "staleUnmapped") == 1;
    std::printf("pool detach between two uses of p: the sound code "
                "faults: %s; the value-numbered one reuses a VA now "
                "unmapped: %s\n\n",
                faulted ? "yes" : "no", unmapped ? "yes" : "no");
    claim(vn < sound, "value numbering saves cycles");
    claim(faulted && unmapped,
          "after a detach the sound code faults and the stale VA is "
          "unmapped");
}

/** Ablation: undo transactions around 50-insert batches (Sec VI). */
void
txnView(const Grid &g, Claims &claim)
{
    std::printf("\nAblation: undo-log transactions around library calls "
                "(50-insert batches, RB index)\n");
    std::printf("%-10s %14s %14s %10s\n", "version", "no txn",
                "txn/batch", "overhead");
    bool bounded = true;
    for (const char *v : {"Volatile", "HW", "SW", "Explicit"}) {
        const std::string txn = std::string(v) + "-txn";
        const double over = 100.0 * (g.rel("txn", txn, "cycles", v) - 1.0);
        if (std::string(v) != "Volatile")
            bounded = bounded && over >= 15.0 && over <= 40.0;
        std::printf("%-10s %14" PRIu64 " %14" PRIu64 " %+9.1f%%\n", v,
                    g.at("txn", v, "cycles"), g.at("txn", txn, "cycles"),
                    over);
    }
    std::printf("\n");
    const auto c = [&g](const std::string &v) {
        return g.at("txn", v, "cycles");
    };
    claim(c("Volatile-txn") == c("Volatile"),
          "transactions are a Volatile no-op");
    claim(bounded, "logging costs 15-40% on every NVM version");
    for (const std::string sfx : {"", "-txn"})
        claim(c("Volatile" + sfx) <= c("HW" + sfx) &&
                  c("HW" + sfx) < c("Explicit" + sfx) &&
                  c("Explicit" + sfx) < c("SW" + sfx),
              "Volatile <= HW < Explicit < SW" +
                  std::string(sfx.empty() ? " without" : " with") +
                  " transactions");
}

/** Ablation: MMU-front probe delay and the non-PMO bypass predictor. */
void
bypassView(const Grid &g, Claims &claim)
{
    std::printf("\nAblation: MMU-front probe delay + non-PMO bypass "
                "prediction (HW version)\n");
    std::printf("%-8s %14s %14s %14s %10s\n", "bench", "none", "always",
                "predicted", "recovered");
    bool ordered = true;
    double mixed = 0;
    for (const char *row : {"LL", "RB", "mixed"}) {
        const std::string w = std::string("bypass-") + row;
        const std::uint64_t none = g.at(w, "none", "cycles");
        const std::uint64_t always = g.at(w, "always", "cycles");
        const std::uint64_t pred = g.at(w, "predicted", "cycles");
        const double recovered =
            always <= none ? 0.0
                           : 100.0 * (static_cast<double>(always) -
                                      static_cast<double>(pred)) /
                                 static_cast<double>(always - none);
        ordered = ordered && none <= pred && none <= always &&
                  pred <= always + always / 10000;
        mixed = recovered;
        std::printf("%-8s %14" PRIu64 " %14" PRIu64 " %14" PRIu64
                    " %9.1f%%\n",
                    row, none, always, pred, recovered);
    }
    std::printf("\nAn all-persistent workload cannot bypass: every "
                "access is a PMO access.\n\n");
    claim(ordered, "none <= predicted <= always (+0.01%) on every row");
    claim(mixed >= 80.0, "prediction recovers >= 80% of the delay on mixed");
}

/** NVM- and POLB-latency sensitivity (the contrast with Fig 14). */
void
sensMemoryView(const Grid &g, Claims &claim)
{
    std::printf("\n(a) NVM latency sweep (RB): HW time normalized to "
                "Volatile\n");
    std::vector<double> nvm;
    for (const char *v : {"HW-nvm120", "HW-nvm240", "HW-nvm480",
                          "HW-nvm960"}) {
        nvm.push_back(g.rel("RB", v, "cycles"));
        std::printf("%-10s %8.3f\n", v + 3, nvm.back());
    }
    std::printf("\n(b) POLB latency sweep: HW time normalized to the "
                "1-cycle POLB\n%-6s", "bench");
    const char *const polb[] = {"HW-polb1", "HW-polb2", "HW-polb4",
                                "HW-polb8", "HW-polb16"};
    for (const char *v : polb)
        std::printf(" %8s", v + 3);
    std::printf("\n");
    bool polbRises = true;
    for (const char *row : {"RB", "Splay"}) {
        std::vector<double> xs;
        std::printf("%-6s", row);
        for (const char *v : polb) {
            xs.push_back(g.rel(row, v, "cycles", "HW-polb1"));
            std::printf(" %8.3f", xs.back());
        }
        std::printf("\n");
        polbRises = polbRises && rising(xs);
    }
    std::printf("\nThe POLB is on the load critical path; the VALB is "
                "hidden by the storeP unit (Fig 14).\n\n");
    claim(rising(nvm), "HW/Volatile rises with NVM latency");
    claim(polbRises, "HW time rises with POLB latency on RB and Splay");
}

/** Cache-geometry sensitivity by trace replay (RB run phase). */
void
sensCacheView(const Grid &g, Claims &claim)
{
    const std::pair<const char *, const char *> geometries[] = {
        {"tiny", "(8K/64K/512K)"},
        {"paper", "(32K/256K/2M)"},
        {"big", "(64K/1M/8M)"},
        {"huge", "(128K/4M/32M)"}};
    std::printf("\nCache sensitivity via trace replay (RB, run phase), "
                "traces of %" PRIu64 " (Volatile) and %" PRIu64
                " (HW) events\n",
                g.at("sens_cache", "Volatile", "traceEvents"),
                g.at("sens_cache", "HW", "traceEvents"));
    std::printf("%-20s %12s %12s %8s %12s\n", "cache config", "Volatile",
                "HW", "HW/Vol", "HW L1-miss%");
    bool banded = true;
    for (const auto &[name, sizes] : geometries) {
        const std::string cycles = std::string(name) + ".cycles";
        const double ratio = g.rel("sens_cache", "HW", cycles);
        banded = banded && ratio >= 1.07 && ratio <= 1.11;
        std::printf("%-6s %-13s %12" PRIu64 " %12" PRIu64 " %8.3f %11.2f%%\n",
                    name, sizes, g.at("sens_cache", "Volatile", cycles),
                    g.at("sens_cache", "HW", cycles), ratio,
                    100.0 * Grid::ratio(
                                g.at("sens_cache", "HW",
                                     std::string(name) + ".l1Misses"),
                                g.at("sens_cache", "HW", "memAccesses"),
                                "sens_cache/HW memAccesses"));
    }
    std::printf("\nThe HW overhead is translation work, not cache "
                "pressure.\n\n");
    claim(banded, "HW/Volatile within [1.07, 1.11] on every geometry");
}

using PaperView = void (*)(const Grid &, Claims &);

/** Views of BENCH_fig11.json, BENCH_paper.json and BENCH_sweep.json. */
const std::pair<const char *, PaperView> kPaperViews[] = {
    {"fig11", fig11View},
    {"fig13", fig13View},
    {"fig15", fig15View},
    {"table5", table5View},
    {"fig12", fig12View},
    {"table2", table2View},
    {"table3", table3View},
    {"knn", knnView},
    {"inference", inferenceView},
    {"optorder", optorderView},
    {"txn", txnView},
    {"bypass", bypassView},
    {"sens_cache", sensCacheView},
    {"fig14", fig14View},
    {"sens_memory", sensMemoryView},
};
int
usage()
{
    std::string views;
    for (const auto &[name, view] : kPaperViews)
        views += std::string(views.empty() ? "" : "|") + name;
    std::fprintf(stderr,
                 "usage: uprstat [--json] FILE\n"
                 "       uprstat --diff OLD NEW\n"
                 "       uprstat --paper %s FILE\n",
                 views.c_str());
    return 2;
}

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
            Claims claims;
            paper(grid, claims);
            return claims.ok ? 0 : 1;
        } catch (const PaperError &e) {
            std::fprintf(stderr, "uprstat: %s: %s\n", files[0].c_str(),
                         e.what());
            return 2;
        }
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
