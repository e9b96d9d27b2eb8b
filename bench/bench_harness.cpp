/**
 * @file
 * Benchmark harness: runs the bench sections — the Figure 11 grid,
 * pointer-op microkernels, static analysis, the fault sweep, the txn
 * engines, the execution tiers, the sharded KV store, and the rest of
 * the paper's evaluation (paper, sweep) — and writes one
 * machine-readable BENCH_<section>.json per section.
 *
 * Every section produces the same cell record ({workload, version,
 * wallMs, error, values}) and one emitter writes every file. Each
 * value is tagged where it is produced: *exact* values are
 * deterministic functions of the model and the seed, *timing* values
 * are host time. The file header lists the exact keys, so
 * scripts/bench_diff.py gates them bit for bit without knowing any
 * section (wall regression = warning, exact drift = hard error).
 * `uprstat --paper VIEW` renders the paper's tables and figures from
 * these files and checks their shape.
 *
 * The fig11, micro, concurrent, paper and sweep sections run each
 * cell in a forked child process, not a thread, for determinism:
 * branch-predictor site indices are salted at each pointer-op call
 * site's first execution (detail::nextSiteSalt), so concurrent cells
 * sharing one process would be handed salts in thread-schedule order
 * and "identical" runs would drift by a few cycles. fork() gives every
 * cell the pristine pre-run salt state: each cell's counters equal a
 * standalone run of exactly that cell, under any parallelism, every
 * time. The other sections run serially in-process, in a fixed order.
 * Moving a section from one mode to the other, or reordering its
 * cells, moves counters.
 *
 * Usage: bench_harness [--quick] [--jobs N] [--out DIR] [--only SECTION]
 *   --quick        scale workloads down 100x (smoke test; implies scale
 *                  via UPR_BENCH_SCALE only if that variable is unset)
 *   --jobs N       worker processes (default: hardware concurrency)
 *   --out DIR      output directory for the JSON files (default: .)
 *   --only SECTION run just that section (default: fig11, micro and
 *                  static); see kSections for the names
 */

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <thread>
#include <tuple>

#include "arch/trace.hh"
#include "bench_common.hh"
#include "bench_ir.hh"
#include "bench_json.hh"
#include "compiler/analysis/abstract_interp.hh"
#include "compiler/analysis/elision.hh"
#include "compiler/demo_programs.hh"
#include "compiler/interpreter.hh"
#include "compiler/ir_parser.hh"
#include "core/ptr.hh"
#include "faultinject/fault_sweep.hh"
#include "kvstore/concurrent_kv_store.hh"
#include "kvstore/kv_store.hh"
#include "ml/iris.hh"
#include "ml/knn.hh"
#include "obs/trace_ring.hh"
#include "txn_ir_workload.hh"

#ifndef UPR_GIT_REV
#define UPR_GIT_REV "unknown"
#endif

using namespace upr;
using namespace upr::bench;

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
millisSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               SteadyClock::now() - start)
        .count();
}

const Version kAllVersions[] = {Version::Volatile, Version::Sw,
                                Version::Hw, Version::Explicit};

// ----------------------------------------------------------------------
// Cell record
// ----------------------------------------------------------------------

/** One reported value: a counter or a latency-histogram summary. */
struct Value
{
    /** A string literal; "group.name" nests under object "group". */
    const char *key = nullptr;
    /** Exact values are gated bit for bit; timing ones are host time. */
    bool exact = false;
    bool isHist = false;
    std::uint64_t number = 0;
    HistSummary hist = {};
};

/**
 * One bench cell's result. Trivially copyable and holding only
 * string-literal pointers (a forked child's literals sit at the
 * parent's addresses), so a child ships it as one pipe write.
 */
struct Record
{
    static constexpr std::size_t kMaxValues = 24;

    const char *workload = "";
    const char *version = "";
    double wallMs = 0;
    char error[160] = {};
    std::size_t size = 0;
    Value values[kMaxValues] = {};

    Record() = default;
    Record(const char *w, const char *v) : workload(w), version(v) {}

    void exact(const char *key, std::uint64_t v) { add({key, true, false, v}); }
    void exact(const char *key, const HistSummary &h) { add({key, true, true, 0, h}); }
    void timing(const char *key, const HistSummary &h) { add({key, false, true, 0, h}); }

    /** Value @p key, or nullptr if the cell does not report it. */
    const Value *
    find(const char *key) const
    {
        for (std::size_t i = 0; i < size; ++i)
            if (!std::strcmp(values[i].key, key))
                return &values[i];
        return nullptr;
    }

    /** Counter @p key, or 0 if the cell does not report it. */
    std::uint64_t
    get(const char *key) const
    {
        const Value *v = find(key);
        return v ? v->number : 0;
    }

    bool failed() const { return error[0] != '\0'; }

    void
    fail(const char *what)
    {
        std::snprintf(error, sizeof(error), "%s", what);
    }

  private:
    void
    add(const Value &v)
    {
        if (size == kMaxValues)
            throw std::length_error("bench cell: too many values");
        values[size++] = v;
    }
};

static_assert(std::is_trivially_copyable_v<Record>,
              "a cell record crosses a pipe");
static_assert(sizeof(Record) <= PIPE_BUF,
              "a cell record is one atomic pipe write");

/** The RunStats counters, in emission order; all exact. */
void
addStats(Record &r, const RunStats &st)
{
    r.exact("cycles", st.cycles);
    r.exact("checksum", st.checksum);
    r.exact("memAccesses", st.memAccesses);
    r.exact("storePs", st.storePs);
    r.exact("polbAccesses", st.polbAccesses);
    r.exact("polbWalks", st.polbWalks);
    r.exact("valbAccesses", st.valbAccesses);
    r.exact("valbWalks", st.valbWalks);
    r.exact("branches", st.branches);
    r.exact("branchMisses", st.branchMisses);
    r.exact("dynamicChecks", st.dynamicChecks);
    r.exact("absToRel", st.absToRel);
    r.exact("relToAbs", st.relToAbs);
    r.exact("reuseHits", st.reuseHits);
    // Per-operation latency histograms of the measured phase, in
    // simulated cycles: deterministic like the counters above.
    r.exact("metrics.checkCycles", st.checkCycles);
    r.exact("metrics.ptrAssignCycles", st.ptrAssignCycles);
}

/**
 * Print OUTPUT MISMATCH for every successful cell whose @p key differs
 * from that of the first successful cell of its workload reporting
 * it. @return true if they all agree.
 */
bool
checksumsAgree(const std::vector<Record> &cells,
               const char *key = "checksum")
{
    bool ok = true;
    std::map<std::string, const Record *> ref; // workload -> first cell
    for (const Record &r : cells) {
        if (r.failed() || r.find(key) == nullptr)
            continue;
        const Record *&first = ref[r.workload];
        if (first == nullptr) {
            first = &r;
        } else if (r.get(key) != first->get(key)) {
            std::fprintf(stderr, "OUTPUT MISMATCH on %s: version %s (%s)\n",
                         r.workload, r.version, key);
            ok = false;
        }
    }
    return ok;
}

// ----------------------------------------------------------------------
// Cell runners
// ----------------------------------------------------------------------

/** Computes cell @p i's values into its record. */
using CellFn = std::function<void(std::size_t i, Record &r)>;

/** Run one cell, timing it and turning an exception into an error. */
void
runCell(std::size_t i, Record &r, const CellFn &fn)
{
    const auto t0 = SteadyClock::now();
    try {
        fn(i, r);
    } catch (const std::exception &e) {
        r.fail(e.what());
    }
    r.wallMs = millisSince(t0);
}

/** Live threads in this process (fork safety: must be 1 to fork). */
unsigned
threadCount()
{
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return 1; // no procfs: cannot tell, assume quiesced
    unsigned n = 0;
    while (const dirent *e = readdir(dir)) {
        if (e->d_name[0] != '.')
            ++n;
    }
    closedir(dir);
    return n;
}

/**
 * Run every cell in its own forked child, at most @p jobs children
 * live at once. A child that dies without reporting yields a failed
 * cell, not a dead harness.
 *
 * Fork safety: fork() in a multi-threaded process duplicates only the
 * calling thread — any lock another thread holds (malloc's arena, a
 * Runtime's shard) stays locked forever in the child. Cells that
 * spawn threads (the concurrent ones) must join them before the next
 * fork; this runner enforces the contract by refusing to fork while
 * the process has more than one live thread.
 */
void
runForked(std::vector<Record> &cells, unsigned jobs, const CellFn &fn)
{
    const std::size_t n = cells.size();
    std::vector<pid_t> pids(n, -1);
    std::vector<int> fds(n, -1);
    std::size_t launched = 0;
    std::size_t live = 0;

    const auto launch = [&](std::size_t i) {
        if (threadCount() > 1) {
            cells[i].fail("refusing to fork: the harness process is "
                          "multi-threaded (a previous section did not "
                          "quiesce its workers)");
            return;
        }
        int pipefd[2];
        if (pipe(pipefd) != 0) {
            cells[i].fail("pipe() failed");
            return;
        }
        std::fflush(nullptr); // don't duplicate buffered output
        const pid_t pid = fork();
        if (pid < 0) {
            close(pipefd[0]);
            close(pipefd[1]);
            cells[i].fail("fork() failed");
            return;
        }
        if (pid == 0) {
            close(pipefd[0]);
            runCell(i, cells[i], fn);
            // One record, at most PIPE_BUF: a single atomic write.
            const ssize_t w = write(pipefd[1], &cells[i], sizeof(Record));
            _exit(w == static_cast<ssize_t>(sizeof(Record)) ? 0 : 1);
        }
        close(pipefd[1]);
        pids[i] = pid;
        fds[i] = pipefd[0];
        ++live;
    };

    const auto reap = [&] {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            if (pids[i] != pid)
                continue;
            Record got;
            const ssize_t r = read(fds[i], &got, sizeof(got));
            if (r == static_cast<ssize_t>(sizeof(got)))
                cells[i] = got;
            if (r != static_cast<ssize_t>(sizeof(got)) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0) ||
                WIFSIGNALED(status)) {
                if (!cells[i].failed())
                    cells[i].fail("cell process died without reporting");
            }
            close(fds[i]);
            fds[i] = -1;
            pids[i] = -1;
            --live;
            return;
        }
    };

    while (launched < n || live > 0) {
        if (launched < n && live < jobs)
            launch(launched++);
        else
            reap();
    }
}

/**
 * How a section's cells run: forked (one child per cell, @c jobs at a
 * time) or serially in-process, in order (@c jobs is then 1).
 */
struct CellRunner
{
    bool fork;
    unsigned jobs;

    void
    operator()(std::vector<Record> &cells, const CellFn &fn) const
    {
        if (fork) {
            runForked(cells, jobs, fn);
        } else {
            for (std::size_t i = 0; i < cells.size(); ++i)
                runCell(i, cells[i], fn);
        }
    }
};

// ----------------------------------------------------------------------
// Emitter
// ----------------------------------------------------------------------

void
emitValues(JsonWriter &json, const Record &r)
{
    std::string group; // the open nested object, if any
    for (std::size_t i = 0; i < r.size; ++i) {
        const Value &v = r.values[i];
        const char *dot = std::strchr(v.key, '.');
        const std::string g = dot ? std::string(v.key, dot) : "";
        if (g != group) {
            if (!group.empty())
                json.end();
            if (!g.empty())
                json.key(g).beginObject();
            group = g;
        }
        const char *leaf = dot ? dot + 1 : v.key;
        if (!v.isHist) {
            json.kv(leaf, v.number);
            continue;
        }
        json.key(leaf).beginObject();
        json.kv("count", v.hist.count);
        json.kv("p50", v.hist.p50);
        json.kv("p90", v.hist.p90);
        json.kv("p99", v.hist.p99);
        json.kv("max", v.hist.max);
        json.end();
    }
    if (!group.empty())
        json.end();
}

/** Write one section's file. @return false on I/O error. */
bool
emit(const std::string &path, const std::vector<Record> &cells,
     unsigned jobs, double harnessWallMs, double serialSumMs)
{
    std::vector<std::string> exactKeys; // first-appearance order
    for (const Record &r : cells) {
        for (std::size_t i = 0; !r.failed() && i < r.size; ++i) {
            const Value &v = r.values[i];
            if (v.exact && std::find(exactKeys.begin(), exactKeys.end(),
                                     v.key) == exactKeys.end())
                exactKeys.push_back(v.key);
        }
    }

    JsonWriter json;
    json.beginObject();
    json.kv("schema", std::uint64_t{2});
    json.kv("gitRev", UPR_GIT_REV);
    json.kv("benchScale", benchScale());
    json.kv("jobs", std::uint64_t{jobs});
    json.kv("harnessWallMs", harnessWallMs);
    json.kv("serialSumMs", serialSumMs);
    json.key("exactKeys").beginArray();
    for (const std::string &k : exactKeys)
        json.value(k);
    json.end();
    json.key("cells").beginArray();
    for (const Record &r : cells) {
        json.beginObject();
        json.kv("workload", r.workload);
        json.kv("version", r.version);
        json.kv("wallMs", r.wallMs);
        if (r.failed())
            json.kv("error", r.error);
        else
            emitValues(json, r);
        json.end();
    }
    json.end();
    json.end();
    return json.writeFile(path);
}

// ----------------------------------------------------------------------
// Fig 11 grid
// ----------------------------------------------------------------------

bool
fig11Section(std::vector<Record> &cells, const CellRunner &runCells)
{
    for (Workload w : kAllWorkloads)
        for (Version v : kAllVersions)
            cells.emplace_back(workloadName(w), versionName(v));
    runCells(cells, [](std::size_t i, Record &r) {
        addStats(r, run(kAllWorkloads[i / 4], kAllVersions[i % 4]));
    });
    // Soundness: every version of a workload computed the same value.
    return checksumsAgree(cells);
}

// ----------------------------------------------------------------------
// Microkernels: tight loops over single pointer operations, the
// host-hot paths the translation caches serve. Cycle counts and model
// counters are deterministic per (kernel, version, scale).
// ----------------------------------------------------------------------

struct MicroNode
{
    Ptr<MicroNode> next;
    std::uint64_t value = 0;
};

/**
 * The counters of @p body alone (it returns a checksum): counters
 * reset first, while the microarchitectural state stays warm from the
 * setup.
 */
template <typename Body>
RunStats
measure(Runtime &rt, Body &&body)
{
    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles begin = rt.machine().now();
    const std::uint64_t sum = body();
    return bench::detail::snapshot(rt, rt.machine().now() - begin, sum);
}

/** A fresh runtime, bound to this thread, with one 64 MiB pool. */
struct MicroRig
{
    static Runtime::Config
    config(Version v)
    {
        Runtime::Config cfg;
        cfg.version = v;
        cfg.seed = 0xB0;
        return cfg;
    }

    explicit MicroRig(Version v)
        : rt(config(v)), scope(rt),
          env(MemEnv::persistentEnv(rt, rt.createPool("micro", 64 << 20)))
    {
    }

    Runtime rt;
    RuntimeScope scope;
    MemEnv env;
};

/** Chase one pointer ring end to end @p laps times. */
RunStats
microPtrChase(Version v, std::uint64_t nodes, std::uint64_t laps)
{
    MicroRig m(v);
    std::vector<Ptr<MicroNode>> ring;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        Ptr<MicroNode> n = m.env.alloc<MicroNode>();
        n.setField(&MicroNode::value, i);
        ring.push_back(n);
    }
    for (std::uint64_t i = 0; i < nodes; ++i)
        ring[i].setPtrField(&MicroNode::next, ring[(i + 1) % nodes]);

    return measure(m.rt, [&] {
        std::uint64_t sum = 0;
        Ptr<MicroNode> p = ring[0];
        for (std::uint64_t i = 0; i < nodes * laps; ++i) {
            sum += p.field(&MicroNode::value);
            p = p.ptrField(&MicroNode::next);
        }
        return sum;
    });
}

/** storeP churn: overwrite pointer slots with relative values. */
RunStats
microStorePChurn(Version v, std::uint64_t slots, std::uint64_t rounds)
{
    MicroRig m(v);
    std::vector<Ptr<MicroNode>> cells;
    for (std::uint64_t i = 0; i < slots; ++i)
        cells.push_back(m.env.alloc<MicroNode>());

    return measure(m.rt, [&] {
        for (std::uint64_t r = 0; r < rounds; ++r)
            for (std::uint64_t i = 0; i < slots; ++i)
                cells[i].setPtrField(&MicroNode::next,
                                     cells[(i + r + 1) % slots]);
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < slots; ++i)
            sum += cells[i].ptrField(&MicroNode::next).bits();
        return sum;
    });
}

/** Hot ra2va: dereference the same few persistent objects. */
RunStats
microResolveHot(Version v, std::uint64_t objects, std::uint64_t reps)
{
    MicroRig m(v);
    std::vector<Ptr<MicroNode>> objs;
    for (std::uint64_t i = 0; i < objects; ++i) {
        Ptr<MicroNode> n = m.env.alloc<MicroNode>();
        n.setField(&MicroNode::value, i * 3 + 1);
        objs.push_back(n);
    }

    return measure(m.rt, [&] {
        std::uint64_t sum = 0;
        for (std::uint64_t r = 0; r < reps; ++r)
            for (std::uint64_t i = 0; i < objects; ++i)
                sum += objs[i].field(&MicroNode::value);
        return sum;
    });
}

bool
microSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    const std::uint64_t scale = benchScale();
    struct Kernel
    {
        const char *name;
        RunStats (*fn)(Version, std::uint64_t, std::uint64_t);
        std::uint64_t a;
        std::uint64_t b;
    };
    const Kernel kernels[] = {
        {"ptr_chase", microPtrChase, 1024, 64 / std::min<std::uint64_t>(scale, 64)},
        {"storep_churn", microStorePChurn, 512, 128 / std::min<std::uint64_t>(scale, 128)},
        {"resolve_hot", microResolveHot, 64, 2048 / std::min<std::uint64_t>(scale, 2048)},
    };
    for (const Kernel &k : kernels)
        for (Version v : kAllVersions)
            cells.emplace_back(k.name, versionName(v));
    runCells(cells, [&](std::size_t i, Record &r) {
        const Kernel &k = kernels[i / 4];
        addStats(r, k.fn(kAllVersions[i % 4], k.a, k.b));
    });
    return true;
}

// ----------------------------------------------------------------------
// Static-analysis section: the Fig 9 program interpreted under three
// check plans — fully dynamic, inference-pruned, and elision-pruned —
// with the plan statistics and elided-check counts alongside the
// simulated counters, plus the persistency analysis's proof counts on
// the transactional round workload.
// ----------------------------------------------------------------------

bool
staticSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    using namespace upr::ir;
    const std::uint64_t kNodes = 200;

    Module mod = parseModule(kFig9Source);
    const InferenceResult inf = inferPointerKinds(mod, true);
    FlowAnalysis flow(mod, inf);

    struct Plan
    {
        const char *variant;
        CheckPlan plan;
        std::uint64_t elided = 0;
    };
    std::vector<Plan> plans;
    plans.push_back({"sw-dynamic", insertChecks(mod, nullptr), 0});
    plans.push_back({"sw-inferred", insertChecks(mod, &inf), 0});
    {
        Plan p{"sw-elided", insertChecks(mod, &inf), 0};
        p.elided = elideChecks(mod, flow, p.plan).elidedSites;
        plans.push_back(std::move(p));
    }
    for (const Plan &p : plans)
        cells.emplace_back("fig9", p.variant);
    cells.emplace_back("txn-round", "sw-persistency");

    bool ok = true;
    runCells(cells, [&](std::size_t i, Record &r) {
        if (i == plans.size()) {
            // The persistency analysis's proof and diagnostic counts
            // are exact functions of the module: a lattice change
            // that silently proves more (or less) must recapture the
            // golden deliberately.
            const txnir::Program p = txnir::compile(/*elide=*/true);
            r.exact("txStores", p.persistency.txStores);
            r.exact("logElided", p.persistency.logElided);
            r.exact("elidedFresh", p.persistency.elidedFresh);
            r.exact("elidedDominated", p.persistency.elidedDominated);
            r.exact("persistencyDiags", p.persistency.findingCount());
            if (p.persistency.diags.errorCount() != 0) {
                std::fprintf(stderr,
                             "FAIL static bench: txn-round has "
                             "persistency errors:\n%s",
                             p.persistency.diags.render().c_str());
                ok = false;
            }
            return;
        }
        const Plan &plan = plans[i];
        Runtime::Config cfg;
        cfg.version = Version::Sw;
        cfg.seed = 0xB0;
        Runtime rt(cfg);
        Interpreter::Config icfg;
        icfg.pool = rt.createPool("static", 32 << 20);
        Interpreter interp(rt, mod, plan.plan, icfg);
        addStats(r, measure(rt, [&] {
                     return interp.call("main", {kNodes});
                 }));
        r.exact("staticTotalSites", plan.plan.totalSites);
        r.exact("staticRemainingSites", plan.plan.remainingSites);
        r.exact("staticRefinedSites", plan.plan.refinedSites);
        r.exact("staticElidedSites", plan.elided);
        r.exact("irInstructions", interp.instructionCount());
        r.exact("irDynamicChecks", interp.dynamicCheckCount());
    });
    return checksumsAgree(cells) && ok;
}

// ----------------------------------------------------------------------
// Fault section: the hostile-media corruption sweep, one cell per
// retention mode. Every count is a deterministic function of the seed
// (the persistence-event stream, the retention coin flips, and the
// fault RNG are all seed-driven), so all are exact: a classification
// shifting from `repaired` to `quarantined` — or worse, to `silent` —
// is model drift.
// ----------------------------------------------------------------------

namespace faultbench
{

using Tree = RbTree<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kSetupKeys = 8;

struct Op
{
    bool erase;
    std::uint64_t key;
    std::uint64_t value;
};

const std::vector<Op> &
ops()
{
    static const std::vector<Op> kOps = {
        {false, 100, 1000},
        {false, 3, 333},
        {true, 5, 0},
        {false, 101, 1010},
    };
    return kOps;
}

std::map<std::uint64_t, std::uint64_t>
referenceState(std::size_t n)
{
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        m[i] = i * 10;
    for (std::size_t i = 0; i < n && i < ops().size(); ++i) {
        if (ops()[i].erase)
            m.erase(ops()[i].key);
        else
            m[ops()[i].key] = ops()[i].value;
    }
    return m;
}

Runtime::Config
config()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234;
    return cfg;
}

void
workload(CrashInjector &injector, std::size_t &committed)
{
    committed = 0;
    Runtime rt(config());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("sweep", 1 << 20);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    KvStore<Tree> store(env);
    rt.pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(store.index().header().bits())));
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        store.set(i, i * 10);

    injector.attach(rt.pools().pool(pool).backing());
    for (const Op &op : ops()) {
        rt.beginTxn(pool);
        if (op.erase)
            store.index().erase(op.key);
        else
            store.set(op.key, op.value);
        rt.commitTxn();
        ++committed;
    }
}

bool
contentValid(const std::vector<std::uint8_t> &image,
             std::size_t committed)
{
    try {
        Backing b;
        b.assign(image);
        Runtime rt(config());
        RuntimeScope scope(rt);
        const PoolId id = rt.pools().adoptImage(std::move(b), "v");

        const ArenaReport arena =
            rt.pools().allocator(id).inspectArena();
        if (!arena.tagsValid || !arena.freeListValid ||
            !arena.usedBytesMatch)
            return false;

        const PoolOffset root = rt.pools().pool(id).rootOff();
        if (root == 0)
            return false;
        MemEnv env = MemEnv::persistentEnv(rt, id);
        Tree tree(env, Ptr<Tree::Header>::fromBits(
                           PtrRepr::makeRelative(id, root)));
        tree.validate();
        std::map<std::uint64_t, std::uint64_t> actual;
        tree.forEach([&](std::uint64_t k, std::uint64_t v) {
            actual.emplace(k, v);
        });
        return actual == referenceState(committed) ||
               actual == referenceState(committed + 1);
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace faultbench

bool
faultSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    const CrashMode kModes[] = {
        CrashMode::DiscardUnfenced, CrashMode::RetainRandom,
        CrashMode::RetainEpoch, CrashMode::RetainBoundedStale};
    for (CrashMode mode : kModes)
        cells.emplace_back("fault_sweep", crashModeName(mode));

    // Sweeps spew (expected) torn-log warnings; keep the bench output
    // readable.
    setLogSink(+[](LogLevel, const std::string &) {});
    std::size_t committed = 0;
    runCells(cells, [&](std::size_t i, Record &r) {
        FaultSweepConfig cfg;
        cfg.mode = kModes[i];
        cfg.seed = 99;
        cfg.pointStride = 61;
        const FaultSweepResult res = faultSweep(
            [&committed](CrashInjector &inj) {
                faultbench::workload(inj, committed);
            },
            [&committed](const std::vector<std::uint8_t> &image,
                         std::uint64_t) {
                return faultbench::contentValid(image, committed);
            },
            cfg);
        r.exact("crashPointsSampled", res.crashPointsSampled);
        r.exact("injections", res.injections);
        r.exact("benign", res.benign);
        r.exact("repaired", res.repaired);
        r.exact("quarantined", res.quarantined);
        r.exact("rejected", res.rejected);
        r.exact("noEffect", res.noEffect);
        r.exact("silent", res.silent);
        r.exact("containment", res.containment);
    });
    setLogSink(nullptr);

    bool ok = true;
    for (const Record &r : cells) {
        if (r.get("silent") != 0 || r.get("containment") != 0) {
            std::fprintf(stderr,
                         "FAIL fault sweep (%s): %llu silent, %llu "
                         "containment failures\n",
                         r.version,
                         (unsigned long long)r.get("silent"),
                         (unsigned long long)r.get("containment"));
            ok = false;
        }
    }
    return ok;
}

// ----------------------------------------------------------------------
// Exec section: the compiler-path workloads run through the
// direct-threaded FastExecutor in both tiers. Model is the simulated
// machine (bit-exact to the Interpreter); Native skips the timing
// model and is expected to be >= 10x faster on at least one
// workload. The harness itself enforces the cross-tier contract —
// identical checksum, instruction count and dynamic-check count per
// workload — and scripts/bench_diff.py re-checks it between runs.
// The emitted counters are plan functions of the workload,
// independent of branch-predictor salt order.
// ----------------------------------------------------------------------

bool
execSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    const std::vector<ExecWorkload> workloads =
        execWorkloads(benchScale());
    const ExecTier kTiers[] = {ExecTier::Model, ExecTier::Native};

    // Compile outside the cells: a cell's wallMs times its tier only.
    std::vector<ExecProgram> progs(workloads.size());
    std::vector<std::string> compileErrors(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        try {
            progs[w] = compileExecProgram(workloads[w].source);
        } catch (const std::exception &e) {
            compileErrors[w] = std::string("compile: ") + e.what();
        }
        for (ExecTier t : kTiers)
            cells.emplace_back(workloads[w].name, execTierName(t));
    }

    runCells(cells, [&](std::size_t i, Record &r) {
        const std::size_t w = i / 2;
        if (!compileErrors[w].empty())
            throw std::runtime_error(compileErrors[w]);
        const ExecRun res =
            runExecTier(progs[w], kTiers[i % 2], workloads[w].args);
        r.exact("checksum", res.result);
        r.exact("dynamicChecks", res.dynamicChecks);
        r.exact("irInstructions", res.instructions);
        r.exact("loweredSites", res.lowered.sites);
        r.exact("retainedGuards", res.lowered.retainedGuards);
        r.exact("elidedGuards", res.lowered.elidedGuards);
        r.exact("elidedSites", progs[w].elidedSites);
        r.exact("fusedPairs", res.lowered.fusedPairs);
    });

    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        const Record &model = cells[i];
        const Record &native = cells[i + 1];
        if (model.failed() || native.failed())
            continue;
        for (const char *k : {"checksum", "irInstructions", "dynamicChecks"}) {
            if (model.get(k) != native.get(k)) {
                std::fprintf(stderr,
                             "TIER MISMATCH on %s: %s model %llu vs "
                             "native %llu\n",
                             model.workload, k,
                             (unsigned long long)model.get(k),
                             (unsigned long long)native.get(k));
                ok = false;
            }
        }
        std::printf("exec %-10s model %8.1f ms, native %7.1f ms "
                    "(%.1fx), %llu/%llu guards retained\n",
                    model.workload, model.wallMs, native.wallMs,
                    native.wallMs > 0 ? model.wallMs / native.wallMs
                                      : 0.0,
                    (unsigned long long)model.get("retainedGuards"),
                    (unsigned long long)model.get("loweredSites"));
    }
    return ok;
}

// ----------------------------------------------------------------------
// Txn section: the same write-heavy transactional workload committed
// through the undo engine, the redo engine, and redo group commit,
// then the transactional round IR workload with and without the
// persistency analysis's logging-elision proofs. The flush/fence
// tallies come from the "txn" metrics group and are exact functions
// of the fence-accounting model; commit latency is real wall time and
// is reported (like wallMs) for information only.
// ----------------------------------------------------------------------

/** The txn.* counter deltas @p fn causes. */
template <typename Fn>
std::map<std::string, std::uint64_t>
txnCounterDelta(Fn &&fn)
{
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::instance().snapshot();
    fn();
    const obs::MetricsSnapshot d =
        obs::MetricsRegistry::instance().snapshot().minus(before);
    std::map<std::string, std::uint64_t> out;
    for (const char *name :
         {"txn.undoCommits", "txn.redoCommits", "txn.undoFlushes",
          "txn.redoFlushes", "txn.undoFences", "txn.redoFences",
          "txn.groupBatches", "txn.groupTxns", "txn.undoElidedWrites",
          "txn.redoElidedRuns", "txn.redoJournalEntries",
          "txn.redoJournalBytes"}) {
        const auto it = d.counters.find(name);
        out[name] = it == d.counters.end() ? 0 : it->second;
    }
    return out;
}

bool
txnSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    struct EngineCell
    {
        const char *variant;
        EngineKind engine;
        unsigned group;
    };
    const EngineCell engines[] = {
        {"undo", EngineKind::Undo, 1},
        {"redo", EngineKind::Redo, 1},
        {"redo-group4", EngineKind::Redo, 4},
    };
    constexpr std::uint64_t kTxns = 96;
    constexpr std::uint64_t kWritesPerTxn = 4;

    // IR cells: each runs through the Interpreter and both
    // FastExecutor tiers, and the engine counters (and the committed
    // pool image) must be bit-identical across the three — elision is
    // a property of the plan, not of who executes it. The measured
    // win: undo-ir-elided issues fewer flushes than undo-ir, and
    // redo-ir-elided journals fewer bytes than redo-ir, while the
    // committed user bytes stay byte-identical to the unelided run.
    const txnir::Program plain = txnir::compile(/*elide=*/false);
    const txnir::Program elided = txnir::compile(/*elide=*/true);
    struct IrCell
    {
        const char *variant;
        EngineKind engine;
        const txnir::Program *prog;
    };
    const IrCell ircells[] = {
        {"undo-ir", EngineKind::Undo, &plain},
        {"undo-ir-elided", EngineKind::Undo, &elided},
        {"redo-ir", EngineKind::Redo, &plain},
        {"redo-ir-elided", EngineKind::Redo, &elided},
    };
    constexpr std::size_t kEngines = std::size(engines);
    for (const EngineCell &c : engines)
        cells.emplace_back("txn", c.variant);
    for (const IrCell &c : ircells)
        cells.emplace_back("txn-ir", c.variant);

    bool ok = true;
    std::map<EngineKind, std::vector<std::uint8_t>> userBytes;
    const auto engineCell = [&](const EngineCell &cell, Record &r) {
        Runtime rt(faultbench::config());
        RuntimeScope scope(rt);
        const PoolId pool = rt.createPool("txn", 1 << 20, cell.engine);
        rt.setGroupCommitSize(cell.group);
        Pool &p = rt.pools().pool(pool);
        const Bytes base = p.header().arenaStart + 64;

        // Counted after pool creation: formatting the fresh log
        // control block costs one flush+fence outside the model.
        const auto d = txnCounterDelta([&] {
            for (std::uint64_t t = 0; t < kTxns; ++t) {
                rt.beginTxn(pool);
                for (std::uint64_t w = 0; w < kWritesPerTxn; ++w) {
                    const std::uint64_t n = t * kWritesPerTxn + w;
                    const std::uint64_t value = n * 2654435761u;
                    // 64-byte spacing: distinct journal runs, one
                    // undo record each; wraps over a 16 KiB window.
                    p.backing().write(base + 64 * (n % 256), &value,
                                      sizeof(value));
                }
                rt.commitTxn();
            }
            rt.flushGroup(); // drain a trailing partial batch
        });
        r.exact("txns", kTxns);
        r.exact("writesPerTxn", kWritesPerTxn);
        r.exact("commits", d.at("txn.undoCommits") + d.at("txn.redoCommits"));
        r.exact("fences", d.at("txn.undoFences") + d.at("txn.redoFences"));
        r.exact("flushes", d.at("txn.undoFlushes") + d.at("txn.redoFlushes"));
        r.exact("groupBatches", d.at("txn.groupBatches"));
        r.exact("groupTxns", d.at("txn.groupTxns"));
        r.timing("commitNs", summarize(rt.txnCommitHistogram()));
    };
    const auto irCell = [&](const IrCell &cell, Record &r) {
        std::map<std::string, std::uint64_t> counters;
        std::vector<std::uint8_t> image0;
        for (txnir::Tier tier : {txnir::Tier::Interp, txnir::Tier::Model,
                                 txnir::Tier::Native}) {
            std::vector<std::uint8_t> image;
            std::vector<std::uint64_t> bits;
            auto cur = txnCounterDelta([&] {
                bits = txnir::run(*cell.prog, cell.engine, tier, nullptr,
                                  nullptr, &image);
            });
            if (tier != txnir::Tier::Interp) {
                if (cur != counters || image != image0) {
                    std::fprintf(stderr,
                                 "TIER MISMATCH on %s: engine counters "
                                 "or pool image diverge from the "
                                 "Interpreter run\n",
                                 cell.variant);
                    ok = false;
                }
                continue;
            }
            counters = std::move(cur);
            image0 = std::move(image);
            // The committed user data, for the plain-vs-elided
            // comparison.
            std::vector<std::uint8_t> user;
            for (const PoolOffset o : txnir::cellOffsets(bits))
                user.insert(user.end(), image0.begin() + o,
                            image0.begin() + o + 64);
            if (userBytes.count(cell.engine) &&
                userBytes[cell.engine] != user) {
                std::fprintf(stderr,
                             "FAIL txn bench (%s): elision changed the "
                             "committed user bytes\n",
                             cell.variant);
                ok = false;
            }
            userBytes[cell.engine] = std::move(user);
        }
        const auto get = [&counters](const char *n) {
            return counters.at(n);
        };
        const std::uint64_t commits =
            get("txn.undoCommits") + get("txn.redoCommits");
        r.exact("txns", commits);
        r.exact("commits", commits);
        r.exact("fences", get("txn.undoFences") + get("txn.redoFences"));
        r.exact("flushes", get("txn.undoFlushes") + get("txn.redoFlushes"));
        r.exact("undoElidedWrites", get("txn.undoElidedWrites"));
        r.exact("redoElidedRuns", get("txn.redoElidedRuns"));
        r.exact("redoJournalBytes", get("txn.redoJournalBytes"));
        r.exact("logElided", cell.prog->persistency.logElided);
    };
    runCells(cells, [&](std::size_t i, Record &r) {
        if (i < kEngines)
            engineCell(engines[i], r);
        else
            irCell(ircells[i - kEngines], r);
    });

    for (std::size_t i = 0; i < kEngines; ++i) {
        if (cells[i].get("commits") != kTxns) {
            std::fprintf(stderr,
                         "FAIL txn bench (%s): %llu commits counted, "
                         "%llu expected\n",
                         cells[i].version,
                         (unsigned long long)cells[i].get("commits"),
                         (unsigned long long)kTxns);
            ok = false;
        }
    }
    // The headline invariant of the redo design: per committed
    // transaction, redo fences strictly less than undo, and group
    // commit strictly less than solo redo.
    const std::uint64_t undo = cells[0].get("fences");
    const std::uint64_t redo = cells[1].get("fences");
    const std::uint64_t group4 = cells[2].get("fences");
    if (!(redo < undo && group4 < redo)) {
        std::fprintf(stderr,
                     "FAIL txn bench: fence ordering violated "
                     "(undo=%llu redo=%llu group4=%llu)\n",
                     (unsigned long long)undo, (unsigned long long)redo,
                     (unsigned long long)group4);
        ok = false;
    }
    // The measured elision win, gated hard: each engine's cost shrinks
    // in its own currency (undo: flushes; redo: journaled bytes).
    const auto shrinks = [&](std::size_t plainIdx, const char *key,
                             const char *what) {
        const std::uint64_t before = cells[kEngines + plainIdx].get(key);
        const std::uint64_t after =
            cells[kEngines + plainIdx + 1].get(key);
        if (after < before)
            return true;
        std::fprintf(stderr,
                     "FAIL txn bench: elision did not reduce %s "
                     "(%llu vs %llu)\n",
                     what, (unsigned long long)after,
                     (unsigned long long)before);
        return false;
    };
    ok = shrinks(0, "flushes", "undo flushes") && ok;
    ok = shrinks(2, "redoJournalBytes", "redo journal bytes") && ok;
    return ok;
}

// ----------------------------------------------------------------------
// Concurrent section: the sharded multi-threaded KV store — T worker
// threads, one shard-owned Runtime each — over YCSB presets at
// T in {1, 2, 4}. Every reported counter depends only on per-shard
// sequential histories (never on thread timing), so all are exact
// even though real threads run the cells. The T=1 cell is
// additionally checked against a plain single-Runtime reference: any
// drift fails the cell, proving the sharding machinery costs nothing
// in model terms at one thread. Cells run in forked children
// (pristine branch-salt state); the workers live and die inside the
// child, so the parent stays single-threaded for the next fork.
// ----------------------------------------------------------------------

namespace concbench
{

WorkloadSpec
spec(char preset)
{
    WorkloadSpec s = ycsbPreset(preset);
    s.recordCount = 10'000 / benchScale();
    s.operationCount = 100'000 / benchScale();
    return s;
}

ShardedRuntime::Config
fleetConfig(unsigned threads)
{
    ShardedRuntime::Config cfg;
    cfg.shards = threads;
    cfg.runtime.version = Version::Hw;
    cfg.runtime.seed = 0xC0;
    cfg.poolName = "bench";
    cfg.poolSize = 32ULL << 20;
    cfg.engine = EngineKind::Undo;
    return cfg;
}

void
runCell(char preset, unsigned threads, Record &r)
{
    const YcsbWorkload workload(spec(preset));
    ShardedRuntime fleet(fleetConfig(threads));
    ConcurrentKvStore store(fleet);
    const KvConcurrentResult res = store.run(workload);

    // Fleet-wide commit latency: the per-shard histograms merged.
    obs::HistogramData commit;
    for (unsigned s = 0; s < threads; ++s)
        commit.merge(fleet.runtime(s).txnCommitHistogram().data());

    r.exact("threads", threads);
    r.exact("gets", res.gets);
    r.exact("getHits", res.getHits);
    r.exact("sets", res.sets);
    r.exact("checksum", res.checksum);
    r.exact("maxCycles", res.maxCycles);
    r.exact("sumCycles", res.sumCycles);
    r.exact("commits", commit.count);
    r.timing("commitNs", HistSummary{commit.count, commit.percentile(50),
                                     commit.percentile(90),
                                     commit.percentile(99), commit.max});

    if (threads == 1) {
        // Zero-drift gate: one plain Runtime, one HashMap, the same
        // per-operation transactions and checksum fold — no fleet
        // machinery at all.
        KvRunResult ref;
        Runtime rt(fleetConfig(1).runtime);
        RuntimeScope scope(rt);
        const PoolId pool =
            rt.createPool("ref", 32ULL << 20, EngineKind::Undo);
        HashMap<std::uint64_t, std::uint64_t> table(
            MemEnv::persistentEnv(rt, pool));
        table.reserve(workload.loadOps().size());
        for (const KvOp &op : workload.loadOps()) {
            rt.beginTxn(pool);
            table.insert(op.key, op.value);
            rt.commitTxn();
        }
        for (const KvOp &op : workload.runOps()) {
            if (op.kind == KvOp::Kind::Get) {
                ++ref.gets;
                if (auto v = table.find(op.key)) {
                    ++ref.getHits;
                    ref.checksum ^= *v;
                    ref.checksum =
                        (ref.checksum << 1) | (ref.checksum >> 63);
                }
            } else {
                ++ref.sets;
                rt.beginTxn(pool);
                table.insert(op.key, op.value);
                rt.commitTxn();
            }
        }
        if (ref.gets != res.gets || ref.getHits != res.getHits ||
            ref.sets != res.sets || ref.checksum != res.checksum) {
            throw std::runtime_error(
                "T=1 counter drift vs the single-runtime reference");
        }
    }
}

} // namespace concbench

bool
concurrentSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    const struct
    {
        char preset;
        const char *name;
    } kPresets[] = {{'a', "ycsb_a"}, {'b', "ycsb_b"}, {'f', "ycsb_f"}};
    const struct
    {
        unsigned threads;
        const char *name;
    } kThreads[] = {{1, "t1"}, {2, "t2"}, {4, "t4"}};

    for (const auto &p : kPresets)
        for (const auto &t : kThreads)
            cells.emplace_back(p.name, t.name);
    runCells(cells, [&](std::size_t i, Record &r) {
        concbench::runCell(kPresets[i / 3].preset, kThreads[i % 3].threads,
                           r);
    });
    return true;
}

// ----------------------------------------------------------------------
// Paper and sweep sections: the rest of the paper's evaluation and our
// ablations, every number they report an exact value of a cell, which
// `uprstat --paper` renders and shape-checks (DESIGN.md experiment
// index). `paper` holds the cheap artifacts, `sweep` the Fig 14 and
// memory-latency sweeps (57 full KV runs). Both fork like fig11, so
// each cell's counters are those of a standalone run of that cell.
// ----------------------------------------------------------------------

/** A cell of a section built from a list: its names and its body. */
struct CellDef
{
    const char *workload;
    const char *version;
    std::function<void(Record &)> run;
};

void
runDefs(std::vector<Record> &cells, const CellRunner &runCells,
        const std::vector<CellDef> &defs)
{
    for (const CellDef &d : defs)
        cells.emplace_back(d.workload, d.version);
    runCells(cells, [&](std::size_t i, Record &r) { defs[i].run(r); });
}

namespace paperbench
{

struct Fields4
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
};

/**
 * Fig 12's codelet: repeated accesses through the same persistent
 * pointer (four stores and four loads per record). Under user
 * transparency the first ra2va result is reused; Explicit, and HW
 * with reuse off, translate every access.
 */
void
fig12Codelet(Version version, bool reuse, Record &r)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.hwConversionReuse = reuse;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    MemEnv env = MemEnv::persistentEnv(rt, rt.createPool("fig12", 64 << 20));
    const std::uint64_t n = 20'000 / benchScale() + 64;
    Ptr<Fields4> recs = env.allocArray<Fields4>(n);
    const Cycles start = rt.machine().now();
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        Ptr<Fields4> p = recs + static_cast<std::ptrdiff_t>(i);
        p.setField(&Fields4::a, i);
        p.setField(&Fields4::b, i * 2);
        p.setField(&Fields4::c, i * 3);
        p.setField(&Fields4::d, i * 5);
        sum += p.field(&Fields4::a) + p.field(&Fields4::b) +
               p.field(&Fields4::c) + p.field(&Fields4::d);
    }
    r.exact("cycles", rt.machine().now() - start);
    r.exact("checksum", sum);
    r.exact("relToAbs", rt.relToAbs());
    r.exact("polbAccesses", rt.machine().polb().accesses());
    r.exact("memAccesses", rt.machine().memAccesses());
}

/**
 * A Table II row: on-chip bytes, and 45 nm area from a small-SRAM
 * model calibrated to the paper (CACTI): 40.04 um^2/B through the 512 B
 * FSM (0.0205 mm^2), 35.68 um^2/B for the 384 B CAM-tagged tables.
 */
void
table2Row(std::uint64_t entryBytes, std::uint64_t entries, Record &r)
{
    const std::uint64_t bytes = entryBytes * entries;
    r.exact("entryBytes", entryBytes);
    r.exact("entries", entries);
    r.exact("bytes", bytes);
    r.exact("areaUm2", bytes * (bytes >= 512 ? 4004 : 3568) / 100);
}

/** Sec VII-E: KNN on iris, 3 of the 4 matrices persisted. */
void
knnCell(Version version, Record &r)
{
    Runtime::Config cfg;
    cfg.version = version;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    MemEnv penv = MemEnv::persistentEnv(rt, rt.createPool("knn", 256 << 20));
    MemEnv venv = MemEnv::volatileEnv(rt);

    const IrisDataset ds = IrisDataset::make();
    Matrix input = ds.toMatrix(venv);
    const Cycles start = rt.machine().now();
    const Knn::Result res =
        Knn::search(input, input, 5, Knn::Placement{venv, penv, penv, penv});
    r.exact("cycles", rt.machine().now() - start);

    const std::vector<int> pred = Knn::classify(res.neighbors, ds.labels);
    std::uint64_t correct = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        correct += pred[i] == ds.labels[i] ? 1 : 0;
    r.exact("loads", rt.machine().stats().lookup("loads"));
    r.exact("relToAbs", rt.relToAbs());
    r.exact("correct", correct);
}

/** A library (unknown parameters) and the application driving it. */
const char *const kLibraryStackSource = R"(
; --- the "legacy library": a stack of nodes {ptr next; i64 v} ---
func @push(%head: ptr, %node: ptr) {
entry:
  %slot = gep %node, 0
  %old = load.ptr %head
  storep %old, %slot
  storep %node, %head
  ret
}

func @sum(%head: ptr) -> i64 {
entry:
  %zero = const 0
  %cur0 = load.ptr %head
  jmp loop
loop:
  %cur = phi.ptr [entry, %cur0], [body, %nxt]
  %acc = phi.i64 [entry, %zero], [body, %accn]
  %ci = ptrtoint %cur
  %done = eq %ci, %zero
  br %done, out, body
body:
  %vslot = gep %cur, 8
  %v = load.i64 %vslot
  %accn = add %acc, %v
  %nslot = gep %cur, 0
  %nxt = load.ptr %nslot
  jmp loop
out:
  ret %acc
}

; --- the application: persistent head cell and nodes ---
func @main(%n: i64) -> i64 {
entry:
  %zero = const 0
  %head = pmalloc 8
  %null = inttoptr %zero
  storep %null, %head
  jmp fill
fill:
  %i = phi.i64 [entry, %zero], [fbody, %inext]
  %c = lt %i, %n
  br %c, fbody, done
fbody:
  %node = pmalloc 16
  %vslot = gep %node, 8
  %one = const 1
  %inext = add %i, %one
  store %inext, %vslot
  call @push(%head, %node)
  jmp fill
done:
  %total = call @sum(%head)
  ret %total
}
)";

/**
 * Sec V-B inference ablation: the library workload under SW, its
 * checks planned without inference, with it in library mode (with
 * and without block refinement) or over the whole program.
 */
void
inferenceCell(bool inference, bool wholeProgram, bool refine, Record &r)
{
    using namespace upr::ir;
    Module mod = parseModule(kLibraryStackSource);
    InferenceResult inf;
    if (inference)
        inf = inferPointerKinds(mod, !wholeProgram);
    const CheckPlan plan =
        insertChecks(mod, inference ? &inf : nullptr, refine);

    Runtime::Config cfg;
    cfg.version = Version::Sw;
    Runtime rt(cfg);
    Interpreter::Config icfg;
    icfg.pool = rt.createPool("abl", 64 << 20);
    Interpreter interp(rt, mod, plan, icfg);
    r.exact("checksum", interp.call("main", {2000}));
    r.exact("cycles", rt.machine().now());
    r.exact("irDynamicChecks", interp.dynamicCheckCount());
    r.exact("staticTotalSites", plan.totalSites);
    r.exact("staticRemainingSites", plan.remainingSites);
}

struct Cell
{
    std::uint64_t v = 0;
};

/** The Fig 10 codelet `p != q && p != o`, @p iters times. */
Cycles
optCodelet(Runtime &rt, Ptr<Cell> p, Ptr<Cell> q, Ptr<Cell> o,
           bool valueNumbered, std::uint64_t &sink)
{
    const Cycles start = rt.machine().now();
    sink = 0;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        if (valueNumbered) {
            // One conversion of p, reused for both comparisons: what
            // value numbering would emit.
            const SimAddr pva = rt.resolveForAccess(p.bits(), 1);
            const SimAddr qva = rt.resolveForAccess(q.bits(), 2);
            const SimAddr ova = rt.resolveForAccess(o.bits(), 3);
            sink += (pva != qva && pva != ova) ? 1 : 0;
        } else {
            // The sound SW code converts per operation (Fig 10 left).
            sink += (p != q && p != o) ? 1 : 0;
        }
    }
    return rt.machine().now() - start;
}

/**
 * Sec VI / Fig 10 ablation, what value-numbering ra2va would save:
 * the codelet's sound and value-numbered forms on one SW runtime.
 */
void
optorderCodelet(Record &r)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.hwConversionReuse = false;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    MemEnv env = MemEnv::persistentEnv(rt, rt.createPool("opt", 16 << 20));
    Ptr<Cell> p = env.alloc<Cell>();
    Ptr<Cell> q = env.alloc<Cell>();
    Ptr<Cell> o = env.alloc<Cell>();
    std::uint64_t sound = 0, vn = 0;
    r.exact("soundCycles", optCodelet(rt, p, q, o, false, sound));
    r.exact("vnCycles", optCodelet(rt, p, q, o, true, vn));
    if (sound != vn)
        throw std::runtime_error("value-numbered codelet computed a "
                                 "different result");
    r.exact("checksum", sound);
}

/**
 * ...and what it breaks: the pool detaches between two uses of p.
 * Sound code faults at the second conversion; value-numbered code
 * reuses a stale, now unmapped, virtual address.
 */
void
optorderDetach(Record &r)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("opt", 16 << 20);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    Ptr<Cell> p = env.alloc<Cell>();
    Ptr<Cell> q = env.alloc<Cell>();
    const SimAddr stale = rt.resolveForAccess(p.bits(), 1);
    (void)rt.resolveForAccess(q.bits(), 2);
    rt.pools().detach(pool);

    bool faulted = false;
    try {
        (void)rt.resolveForAccess(p.bits(), 3);
    } catch (const Fault &f) {
        faulted = f.kind() == FaultKind::PoolDetached;
    }
    const bool unmapped = !rt.space().isMapped(stale, 1);
    r.exact("faultRaised", faulted);
    r.exact("staleUnmapped", unmapped);
    if (!faulted || !unmapped)
        throw std::runtime_error("soundness verdict: the sound code must "
                                 "fault and the stale VA be unmapped");
}

/**
 * Sec VI ablation: 50-insert batches into a persistent RB tree, with
 * or without an undo transaction around each batch (a Volatile no-op).
 */
void
txnInserts(Version version, bool txnPerBatch, Record &r)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.seed = 0xAB;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("txn", 256 << 20);
    RbTree<std::uint64_t, std::uint64_t> tree(MemEnv::persistentEnv(rt, pool));
    const bool txn = txnPerBatch && version != Version::Volatile;
    const std::uint64_t total = 20'000 / benchScale() + 100;
    const Cycles start = rt.machine().now();
    for (std::uint64_t base = 0; base < total; base += 50) {
        if (txn)
            rt.beginTxn(pool);
        for (std::uint64_t i = base; i < std::min(base + 50, total); ++i)
            tree.insert(i * 7, i);
        if (txn)
            rt.commitTxn();
    }
    r.exact("cycles", rt.machine().now() - start);
    std::uint64_t sum = 0;
    tree.forEach([&](std::uint64_t k, std::uint64_t v) {
        sum = sum * 31 + (k ^ v);
    });
    r.exact("checksum", sum);
}

/**
 * Bypass ablation's mixed traffic: a persistent RB tree behind an
 * equally hot volatile cache, so about half the accesses are non-PMO
 * and can bypass the POLB/VALB probe.
 */
void
bypassMixed(MmuFrontModel front, Record &r)
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 0xB0;
    cfg.machine.mmuFront = front;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    using Tree = RbTree<std::uint64_t, std::uint64_t>;
    Tree pers(MemEnv::persistentEnv(rt, rt.createPool("bench", 256 << 20)));
    Tree cache(MemEnv::volatileEnv(rt));
    const std::uint64_t n = 10'000 / benchScale() + 100;
    for (std::uint64_t i = 0; i < n; ++i)
        pers.insert(i, i * 3);

    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles start = rt.machine().now();
    std::uint64_t sum = 0;
    Rng rng(5);
    for (std::uint64_t op = 0; op < 4 * n; ++op) {
        const std::uint64_t k = rng.nextBounded(n);
        if (auto hit = cache.find(k)) {
            sum += *hit;
            continue;
        }
        const std::uint64_t v = pers.find(k).value();
        cache.insert(k, v);
        sum += v;
    }
    r.exact("cycles", rt.machine().now() - start);
    r.exact("checksum", sum);
}

/** A cache geometry of the trace-replay sweep, with its value keys. */
struct Geometry
{
    const char *cycles;
    const char *l1Misses;
    Bytes l1, l2, l3;
};

const Geometry kGeometries[] = {
    {"tiny.cycles", "tiny.l1Misses", 8 << 10, 64 << 10, 512 << 10},
    {"paper.cycles", "paper.l1Misses", 32 << 10, 256 << 10, 2 << 20},
    {"big.cycles", "big.l1Misses", 64 << 10, 1 << 20, 8 << 20},
    {"huge.cycles", "huge.l1Misses", 128 << 10, 4 << 20, 32 << 20},
};

/**
 * Cache-geometry sensitivity by trace replay: record the RB KV run
 * phase once, then re-simulate it under every geometry.
 */
void
sensCache(Version version, Record &r)
{
    Trace trace;
    {
        Runtime::Config cfg;
        cfg.version = version;
        cfg.seed = 0xB0;
        Runtime rt(cfg);
        RuntimeScope scope(rt);
        const YcsbWorkload workload(paperSpec());
        KvStore<RbTree<std::uint64_t, std::uint64_t>> store(
            MemEnv::persistentEnv(rt, rt.createPool("bench", 512 << 20)));
        store.loadPhase(workload);
        rt.setTrace(&trace);
        store.runPhase(workload);
        rt.setTrace(nullptr);
    }
    r.exact("traceEvents", trace.size());
    for (const Geometry &g : kGeometries) {
        MachineParams p;
        p.l1Size = g.l1;
        p.l2Size = g.l2;
        p.l3Size = g.l3;
        const ReplayResult res = replayTrace(trace, p);
        if (&g == kGeometries)
            r.exact("memAccesses", res.memAccesses);
        r.exact(g.cycles, res.cycles);
        r.exact(g.l1Misses, res.l1Misses);
    }
}

} // namespace paperbench

bool
paperSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    using namespace paperbench;
    using K = std::uint64_t;
    std::vector<CellDef> d;
    const Version kFig12[] = {Version::Volatile, Version::Hw,
                              Version::Explicit};
    for (Version v : kFig12)
        d.push_back({"fig12", versionName(v),
                     [v](Record &r) { fig12Codelet(v, true, r); }});
    d.push_back({"fig12", "HW-noreuse", [](Record &r) {
                     fig12Codelet(Version::Hw, false, r);
                 }});

    // Table II: FSM entry (Fig 6) = Rd VA + Rs RA placeholders, 16 B;
    // POLB and VALB entries pack a base, size and pool ID in 12 B.
    const MachineParams mp;
    const std::tuple<const char *, std::uint64_t, std::uint64_t> kStorage[] =
        {{"FSM", 16, mp.storePFsmEntries},
         {"POLB", 12, mp.polbEntries},
         {"VALB", 12, mp.valbEntries}};
    for (const auto &[name, entryBytes, entries] : kStorage)
        d.push_back({"table2", name, [=](Record &r) {
                         table2Row(entryBytes, entries, r);
                     }});

    // Table III node sizes; the LL harness stores a 16-byte value.
    const std::pair<const char *, std::uint64_t> kNodes[] = {
        {"LL", sizeof(LinkedList<std::array<K, 2>>::Node)},
        {"Hash", sizeof(HashMap<K, K>::Node)},
        {"RB", sizeof(RbTree<K, K>::Node)},
        {"Splay", sizeof(SplayTree<K, K>::Node)},
        {"AVL", sizeof(AvlTree<K, K>::Node)},
        {"SG", sizeof(ScapegoatTree<K, K>::Node)}};
    for (const auto &[name, bytes] : kNodes)
        d.push_back({"table3", name,
                     [b = bytes](Record &r) { r.exact("nodeBytes", b); }});

    for (Version v : kAllVersions)
        d.push_back({"knn", versionName(v),
                     [v](Record &r) { knnCell(v, r); }});

    const std::tuple<const char *, bool, bool, bool> kPlans[] = {
        {"none", false, false, false},
        {"library", true, false, false},
        {"refined", true, false, true},
        {"whole", true, true, false}};
    for (const auto &[name, inference, whole, refine] : kPlans)
        d.push_back({"inference", name, [=](Record &r) {
                         inferenceCell(inference, whole, refine, r);
                     }});

    d.push_back({"optorder", "codelet", optorderCodelet});
    d.push_back({"optorder", "detach", optorderDetach});

    const std::pair<Version, const char *> kTxn[] = {
        {Version::Volatile, "Volatile-txn"},
        {Version::Hw, "HW-txn"},
        {Version::Sw, "SW-txn"},
        {Version::Explicit, "Explicit-txn"}};
    for (const auto &[v, txnName] : kTxn) {
        d.push_back({"txn", versionName(v),
                     [v = v](Record &r) { txnInserts(v, false, r); }});
        d.push_back({"txn", txnName,
                     [v = v](Record &r) { txnInserts(v, true, r); }});
    }

    const std::pair<MmuFrontModel, const char *> kFronts[] = {
        {MmuFrontModel::None, "none"},
        {MmuFrontModel::Always, "always"},
        {MmuFrontModel::Predicted, "predicted"}};
    for (const auto &[w, row] : {std::pair{Workload::LL, "bypass-LL"},
                                 std::pair{Workload::RB, "bypass-RB"}}) {
        for (const auto &[front, name] : kFronts) {
            MachineParams p;
            p.mmuFront = front;
            d.push_back({row, name, [w = w, p](Record &r) {
                             addStats(r, run(w, Version::Hw, p));
                         }});
        }
    }
    for (const auto &[front, name] : kFronts)
        d.push_back({"bypass-mixed", name,
                     [f = front](Record &r) { bypassMixed(f, r); }});

    for (Version v : {Version::Volatile, Version::Hw})
        d.push_back({"sens_cache", versionName(v),
                     [v](Record &r) { sensCache(v, r); }});

    runDefs(cells, runCells, d);
    // Every variant of an artifact computed the same output.
    return checksumsAgree(cells) && checksumsAgree(cells, "correct");
}

bool
sweepSection(std::vector<Record> &cells, const CellRunner &runCells)
{
    std::vector<CellDef> d;
    const auto add = [&d](Workload w, Version v, const char *name,
                          const MachineParams &p) {
        d.push_back({workloadName(w), name,
                     [=](Record &r) { addStats(r, run(w, v, p)); }});
    };
    // Fig 14: HW under VALB/VAW latency, against Explicit.
    const std::pair<const char *, Cycles> kValb[] = {
        {"HW-valb1", 1},   {"HW-valb5", 5},   {"HW-valb10", 10},
        {"HW-valb20", 20}, {"HW-valb30", 30}, {"HW-valb50", 50}};
    for (Workload w : kAllWorkloads) {
        add(w, Version::Explicit, "Explicit", {});
        for (const auto &[name, lat] : kValb) {
            MachineParams p;
            p.valbHitLatency = lat;
            p.vawLatency = lat;
            add(w, Version::Hw, name, p);
        }
    }
    // Memory sensitivity: NVM latency on RB against Volatile, and
    // POLB latency (on the load critical path, unlike the VALB).
    add(Workload::RB, Version::Volatile, "Volatile", {});
    const std::pair<const char *, Cycles> kNvm[] = {
        {"HW-nvm120", 120}, {"HW-nvm240", 240},
        {"HW-nvm480", 480}, {"HW-nvm960", 960}};
    for (const auto &[name, lat] : kNvm) {
        MachineParams p;
        p.nvmLatency = lat;
        add(Workload::RB, Version::Hw, name, p);
    }
    const std::pair<const char *, Cycles> kPolb[] = {
        {"HW-polb1", 1}, {"HW-polb2", 2}, {"HW-polb4", 4},
        {"HW-polb8", 8}, {"HW-polb16", 16}};
    for (Workload w : {Workload::RB, Workload::Splay}) {
        for (const auto &[name, lat] : kPolb) {
            MachineParams p;
            p.polbHitLatency = lat;
            add(w, Version::Hw, name, p);
        }
    }
    runDefs(cells, runCells, d);
    return checksumsAgree(cells);
}

// ----------------------------------------------------------------------
// Section table and main
// ----------------------------------------------------------------------

/** A section writes BENCH_<name>.json. */
struct Section
{
    const char *name;
    /** Part of the default run (no --only). */
    bool byDefault;
    /** One forked child per cell; else serially in-process. */
    bool forked;
    bool (*run)(std::vector<Record> &cells, const CellRunner &runCells);
};

// Off by default: fault, txn, exec and concurrent register lazy
// metrics groups ("fault", "txn", "exec", per-shard groups) that the
// default run must leave unregistered.
const Section kSections[] = {
    {"fig11", true, true, fig11Section},
    {"micro", true, true, microSection},
    {"static", true, false, staticSection},
    {"fault", false, false, faultSection},
    {"txn", false, false, txnSection},
    {"exec", false, false, execSection},
    {"concurrent", false, true, concurrentSection},
    {"paper", false, true, paperSection},
    {"sweep", false, true, sweepSection},
};

/** Run @p s, check it, write its file. @return false on any failure. */
bool
runSection(const Section &s, const std::string &outDir, unsigned jobs)
{
    const CellRunner runner{s.forked, s.forked ? jobs : 1};
    std::vector<Record> cells;
    const auto start = SteadyClock::now();
    bool ok = s.run(cells, runner);
    const double wall = millisSince(start);

    double serialSum = 0;
    for (const Record &r : cells) {
        serialSum += r.wallMs;
        if (r.failed()) {
            std::fprintf(stderr, "FAIL %s %s/%s: %s\n", s.name,
                         r.workload, r.version, r.error);
            ok = false;
        }
    }
    const std::string path =
        outDir + "/BENCH_" + std::string(s.name) + ".json";
    if (!emit(path, cells, runner.jobs, wall, serialSum)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("%s: %zu cells, wall %.0f ms (serial sum %.0f ms), %s\n",
                s.name, cells.size(), wall, serialSum, path.c_str());
    return ok;
}

int
usage(const char *argv0)
{
    std::string names;
    for (const Section &s : kSections)
        names += std::string(names.empty() ? "" : "|") + s.name;
    std::fprintf(stderr,
                 "usage: %s [--quick] [--jobs N] [--out DIR] "
                 "[--only %s]\n",
                 argv0, names.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    std::string out_dir = ".";
    const Section *only = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--quick")) {
            // Smoke mode: shrink workloads unless the caller already
            // pinned a scale explicitly.
            setenv("UPR_BENCH_SCALE", "100", /*overwrite=*/0);
        } else if (!std::strcmp(arg, "--jobs") && i + 1 < argc) {
            const char *v = argv[++i];
            const char *end = v + std::strlen(v);
            const auto [ptr, ec] = std::from_chars(v, end, jobs);
            if (ec != std::errc() || ptr != end || jobs == 0)
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--out") && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (!std::strcmp(arg, "--only") && i + 1 < argc &&
                   only == nullptr) {
            // One section per process: the in-process sections would
            // otherwise inherit each other's branch-salt state.
            const char *name = argv[++i];
            for (const Section &s : kSections)
                if (!std::strcmp(s.name, name))
                    only = &s;
            if (only == nullptr)
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }

    printConfigBanner();
    std::printf("# harness: %u worker process(es), git %s\n", jobs,
                UPR_GIT_REV);

    bool ok = true;
    for (const Section &s : kSections)
        if (only != nullptr ? &s == only : s.byDefault)
            ok = runSection(s, out_dir, jobs) && ok;

    // With UPR_OBS_TRACE set, dump the harness process's event ring
    // (the serial sections and any in-process setup; forked cells
    // have their own rings that die with them).
    if (obs::traceEnabled()) {
        const std::string path = out_dir + "/BENCH_trace.json";
        std::ofstream trace(path);
        if (trace) {
            obs::traceRing().exportChromeTrace(trace);
            std::printf("trace: %llu events, %s\n",
                        (unsigned long long)
                            obs::traceRing().appended(),
                        path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
