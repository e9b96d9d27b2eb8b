/** @file Differential tests for the companion-thread timing model:
 * the same workload driven inline, on a one-stage companion and on a
 * two-stage (memory stage, then clock stage) companion must agree on
 * simulated cycles, every metrics-registry counter, both span
 * histograms and the recorded trace; plus the ticks records carry,
 * and the rule that decides where the model runs (event threshold,
 * free budget slots, executor calls, multi-shard fleets). */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_ir.hh"
#include "compiler/demo_programs.hh"
#include "compiler/interpreter.hh"
#include "containers/rb_tree.hh"
#include "core/sharded_runtime.hh"

using namespace upr;
using namespace upr::bench;

namespace
{

/** Everything a run can be compared on. */
struct Outcome
{
    Cycles cycles = 0;
    unsigned stages = 0;
    std::map<std::string, std::uint64_t> counters;
    obs::HistogramData checkCycles;
    obs::HistogramData ptrAssignCycles;
    std::vector<TraceEvent> trace;
};

void
expectSameHistogram(const obs::HistogramData &a,
                    const obs::HistogramData &b, const char *name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.buckets, b.buckets);
}

void
expectSameOutcome(const Outcome &inl, const Outcome &comp)
{
    EXPECT_EQ(inl.stages, 0u);
    EXPECT_EQ(comp.cycles, inl.cycles);
    EXPECT_EQ(comp.counters, inl.counters);
    expectSameHistogram(comp.checkCycles, inl.checkCycles,
                        "upr.checkCycles");
    expectSameHistogram(comp.ptrAssignCycles, inl.ptrAssignCycles,
                        "upr.ptrAssignCycles");
    ASSERT_EQ(comp.trace.size(), inl.trace.size());
    EXPECT_TRUE(comp.trace == inl.trace);
}

/** A companion can start in this process at all. */
bool
companionsPossible()
{
    return ModelCompanion::budget() > 0;
}

/**
 * Hold budget slots so that exactly @p free stay free (as many as
 * the budget allows); a plain runtime started meanwhile gets a
 * companion of min(@p free, 2) stages.
 */
class FreeSlots
{
  public:
    explicit FreeSlots(unsigned free)
        : hold_(freeNow() > free ? freeNow() - free : 0)
    {}

    static unsigned
    freeNow()
    {
        return ModelCompanion::budget() - ModelCompanion::live();
    }

    /** Stages a companion started now gets. */
    static unsigned stagesNow() { return std::min(freeNow(), 2u); }

  private:
    ModelCompanion::Slots hold_;
};

/**
 * Run @p work on a fresh runtime with a trace attached from the first
 * event; @p inlineModel pins the model inline, otherwise the runtime
 * is plain and moves its model to a companion past the threshold.
 * Counters are the registry delta over the runtime's life, taken
 * while it is still alive (the snapshot drains the ring).
 */
Outcome
runWorkload(const Runtime::Config &cfg, bool inlineModel,
            const std::function<void(Runtime &)> &work)
{
    auto &reg = obs::MetricsRegistry::instance();
    const obs::MetricsSnapshot before = reg.snapshot();
    Outcome out;
    Trace trace;
    {
        Runtime rt(cfg);
        if (inlineModel)
            rt.keepModelInline();
        RuntimeScope scope(rt);
        rt.machine().setTrace(&trace);
        work(rt);
        out.stages = rt.modelStages();
        const obs::MetricsSnapshot snap = reg.snapshot().minus(before);
        out.counters = snap.counters;
        out.checkCycles = snap.histograms.at("upr.checkCycles");
        out.ptrAssignCycles = snap.histograms.at("upr.ptrAssignCycles");
        out.cycles = rt.machine().now();
        rt.machine().setTrace(nullptr);
    }
    out.trace = trace.events();
    return out;
}

/** The workload inline, then on a companion of each stage count
 * the budget allows: every companion run matches the inline one. */
void
expectCompanionMatchesInline(const Runtime::Config &cfg,
                             const std::function<void(Runtime &)> &work)
{
    const Outcome inl = runWorkload(cfg, true, work);
    // Far past the start threshold, so most events took the ring.
    EXPECT_GT(inl.trace.size(), 2 * Runtime::kCompanionAfterEvents);
    for (unsigned stages : {2u, 1u}) {
        SCOPED_TRACE(stages == 2 ? "two stages" : "one stage");
        const FreeSlots free(stages);
        const unsigned expect = FreeSlots::stagesNow();
        const Outcome comp = runWorkload(cfg, false, work);
        EXPECT_EQ(comp.stages, expect);
        expectSameOutcome(inl, comp);
    }
}

using Tree = RbTree<std::uint64_t, std::uint64_t>;

/** Inserts then lookups on a persistent RB tree. */
void
treeWork(Runtime &rt, std::uint64_t n)
{
    const PoolId pool = rt.createPool("t", 8 << 20);
    Tree tree(MemEnv::persistentEnv(rt, pool));
    for (std::uint64_t i = 0; i < n; ++i)
        tree.insert(i * 7919 % (4 * n), i);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        sum += tree.find(i * 3 % (4 * n)).value_or(0);
    EXPECT_GT(sum, 0u);
}

/** Volatile stores and loads: cheap events to cross the threshold. */
void
streamWork(Runtime &rt, std::uint64_t n)
{
    const SimAddr buf = rt.mallocBytes(4096);
    for (std::uint64_t i = 0; i < n; ++i) {
        const SimAddr a = buf + (i * 72) % 4096 / 8 * 8;
        rt.storeData<std::uint64_t>(a, i);
        rt.dataBranch(rt.loadData<std::uint64_t>(a) % 3 == 0, 5);
    }
}

/** Threads of this process, from /proc/self/status (0 if unknown). */
unsigned
processThreads()
{
    // A sanitizer runtime may add a helper thread of its own at the
    // first thread creation; make that happen before any count.
    static const bool settled = [] {
        std::thread([] {}).join();
        return true;
    }();
    (void)settled;
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
    return 0;
}

} // namespace

TEST(ModelCompanion, RbTreeHwPredictedMatchesInline)
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.mmuFront = MmuFrontModel::Predicted;
    cfg.seed = 11;
    expectCompanionMatchesInline(cfg,
                                 [](Runtime &rt) { treeWork(rt, 2500); });
}

TEST(ModelCompanion, UndoTransactionUpdatesMatchInline)
{
    for (Version v : {Version::Sw, Version::Hw}) {
        SCOPED_TRACE(versionName(v));
        Runtime::Config cfg;
        cfg.version = v;
        cfg.seed = 12;
        expectCompanionMatchesInline(cfg, [](Runtime &rt) {
            const PoolId pool = rt.createPool("u", 8 << 20);
            Tree tree(MemEnv::persistentEnv(rt, pool));
            for (std::uint64_t i = 0; i < 1500; ++i) {
                rt.beginTxn(pool);
                tree.insert(i * 31 % 1024, i);
                if (i % 7 == 3) {
                    rt.abortTxn();
                } else {
                    rt.commitTxn();
                }
            }
        });
    }
}

TEST(ModelCompanion, StrictStorePFaultMidAssignmentMatchesInline)
{
    for (Version v : {Version::Sw, Version::Hw}) {
        SCOPED_TRACE(versionName(v));
        Runtime::Config cfg;
        cfg.version = v;
        cfg.seed = 13;
        cfg.strictStoreP = true;
        expectCompanionMatchesInline(cfg, [](Runtime &rt) {
            const PoolId pool = rt.createPool("f", 1 << 20);
            const SimAddr slot = rt.ptrToInt(rt.pmallocBits(pool, 64), 1);
            const PtrBits dram = PtrRepr::fromVa(rt.mallocBytes(64));
            const PtrBits nvm = rt.pmallocBits(pool, 64);
            unsigned faults = 0;
            for (std::uint64_t i = 0; i < 60000; ++i) {
                // Every assignment opens a span; the DRAM-into-NVM
                // ones fault inside it and must stay unrecorded.
                try {
                    rt.storePtr(slot, i % 5 == 0 ? dram : nvm, 7);
                } catch (const Fault &f) {
                    EXPECT_EQ(f.kind(), FaultKind::StorePFault);
                    ++faults;
                }
                rt.loadPtr(slot);
            }
            EXPECT_EQ(faults, 12000u);
            EXPECT_EQ(rt.ptrAssignHistogram().count(), 48000u);
        });
    }
}

TEST(ModelCompanion, ExplicitMatchesInline)
{
    Runtime::Config cfg;
    cfg.version = Version::Explicit;
    cfg.seed = 14;
    expectCompanionMatchesInline(cfg,
                                 [](Runtime &rt) { treeWork(rt, 2000); });
}

TEST(ModelCompanion, ReadsInsideTheRunSeeEveryEvent)
{
    // machine(), the histograms and resetCounters sync mid-run: each
    // read sees exactly the inline value at that point.
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.seed = 15;
    // Pass 0 inline, then two stages, then one.
    std::vector<std::uint64_t> seen[3];
    for (unsigned pass = 0; pass < 3; ++pass) {
        const FreeSlots free(pass == 1 ? 2 : 1);
        const unsigned stages = FreeSlots::stagesNow();
        Runtime rt(cfg);
        if (pass == 0)
            rt.keepModelInline();
        RuntimeScope scope(rt);
        const PoolId pool = rt.createPool("r", 4 << 20);
        Tree tree(MemEnv::persistentEnv(rt, pool));
        for (std::uint64_t i = 0; i < 3000; ++i) {
            tree.insert(i * 13 % 2048, i);
            if (i % 500 == 499) {
                seen[pass].push_back(rt.machine().now());
                seen[pass].push_back(rt.checkHistogram().count());
                seen[pass].push_back(rt.machine().caches().l1().misses());
                rt.resetCounters();
                rt.machine().resetAllStats();
            }
        }
        EXPECT_EQ(rt.modelStages(), pass == 0 ? 0 : stages);
    }
    EXPECT_EQ(seen[1], seen[0]);
    EXPECT_EQ(seen[2], seen[0]);
}

TEST(ModelCompanionBudget, ShortRuntimeStartsNoThread)
{
    const unsigned threads = processThreads();
    const unsigned live = ModelCompanion::live();
    Runtime rt;
    RuntimeScope scope(rt);
    streamWork(rt, Runtime::kCompanionAfterEvents / 4);
    EXPECT_EQ(rt.modelStages(), 0u);
    EXPECT_EQ(ModelCompanion::live(), live);
    EXPECT_EQ(processThreads(), threads);
}

TEST(ModelCompanionBudget, SixteenRuntimesStayWithinBudget)
{
    // Each runtime takes two slots while two are free, then one: the
    // budget's slots, not its runtimes, bound the threads.
    const unsigned threads = processThreads();
    const unsigned budget = ModelCompanion::budget();
    constexpr unsigned kRuntimes = 16;
    std::vector<std::unique_ptr<Runtime>> rts;
    for (unsigned i = 0; i < kRuntimes; ++i) {
        rts.push_back(std::make_unique<Runtime>());
        RuntimeScope scope(*rts.back());
        streamWork(*rts.back(), Runtime::kCompanionAfterEvents);
    }
    unsigned on = 0;
    unsigned stages = 0;
    for (const auto &rt : rts) {
        on += rt->modelStages() > 0;
        stages += rt->modelStages();
    }
    EXPECT_EQ(on, std::min((budget + 1) / 2, kRuntimes));
    EXPECT_EQ(stages, std::min(budget, 2 * kRuntimes));
    EXPECT_EQ(ModelCompanion::live(), stages);
    if (threads > 0) {
        EXPECT_EQ(processThreads(), threads + stages);
    }
    // Companion or inline, every runtime ran the same workload.
    for (const auto &rt : rts) {
        EXPECT_EQ(rt->machine().now(), rts[0]->machine().now());
        EXPECT_EQ(rt->machine().memAccesses(),
                  rts[0]->machine().memAccesses());
        EXPECT_EQ(rt->machine().bpred().mispredicts(),
                  rts[0]->machine().bpred().mispredicts());
    }
    rts.clear();
    EXPECT_EQ(ModelCompanion::live(), 0u);
    if (threads > 0) {
        EXPECT_EQ(processThreads(), threads);
    }
}

TEST(ModelCompanionBudget, StagesFollowFreeSlots)
{
    // Two stages when two slots are free, one when one is, inline
    // when none is; with latencies too long for a record, one.
    const unsigned budget = ModelCompanion::budget();
    for (unsigned free : {2u, 1u, 0u}) {
        if (free > budget)
            continue;
        SCOPED_TRACE(free);
        const FreeSlots hold(free);
        const unsigned live = ModelCompanion::live();
        Runtime rt;
        RuntimeScope scope(rt);
        streamWork(rt, Runtime::kCompanionAfterEvents + 10);
        EXPECT_EQ(rt.modelStages(), free);
        EXPECT_EQ(ModelCompanion::live(), live + free);
    }
    if (budget >= 2) {
        Runtime::Config cfg;
        cfg.machine.nvmLatency = TraceEvent::kAccessMax;
        Runtime rt(cfg);
        RuntimeScope scope(rt);
        streamWork(rt, Runtime::kCompanionAfterEvents + 10);
        EXPECT_EQ(rt.modelStages(), 1u);
        EXPECT_EQ(ModelCompanion::live(), 1u);
    }
    EXPECT_EQ(ModelCompanion::live(), 0u);
}

TEST(ModelCompanion, CarriedTicksMatchInline)
{
    // Ticks ride on the next MemAccess/PtrLoad/Branch; a second tick,
    // a tick too long for the field, another record kind or a drain
    // sends the held one as a record of its own. Every path replays
    // to the inline trace.
    AddressSpace space;
    PoolManager pools(space);
    const MachineParams params;
    const auto script = [](auto &&tick, auto &&event, auto &&sync) {
        using Kind = TraceEvent::Kind;
        for (std::uint64_t i = 0; i < 3 * ModelCompanion::kRecords; ++i) {
            tick(i % 5 + 1);
            switch (i % 7) {
              case 0:
                event(TraceEvent{Kind::MemAccess, 0x1000 + i * 24, 1});
                break;
              case 1:
                event(TraceEvent{Kind::PtrLoad, 0x1000 + i * 8});
                break;
              case 2:
                event(TraceEvent{Kind::Branch, i % 13, i % 3 == 0});
                break;
              case 3:
                tick(7); // a second tick before any carrier
                event(TraceEvent{Kind::Branch, 3, 1});
                break;
              case 4:
                tick(TraceEvent::kCarryMax + 1); // too long to carry
                event(TraceEvent{Kind::MemAccess, 0x9000, 0});
                break;
              case 5:
                event(TraceEvent{Kind::SpanBegin, 0});
                event(TraceEvent{Kind::SpanEnd, 0});
                break;
              case 6:
                if (i % 4099 == 6)
                    sync();
                break;
            }
        }
    };
    Trace inlTrace;
    Machine inl(params, pools);
    inl.setTrace(&inlTrace);
    script([&](Cycles n) { inl.tick(n); },
           [&](const TraceEvent &e) { inl.apply(e); }, [] {});

    for (unsigned stages : {2u, 1u}) {
        SCOPED_TRACE(stages);
        const FreeSlots free(stages);
        const unsigned expect = FreeSlots::stagesNow();
        Trace trace;
        Machine m(params, pools);
        m.setTrace(&trace);
        std::unique_ptr<ModelCompanion> c = ModelCompanion::start(m);
        if (!c) {
            EXPECT_EQ(expect, 0u);
            continue;
        }
        EXPECT_EQ(c->stages(), expect);
        script([&](Cycles n) { c->pushTick(n); },
               [&](const TraceEvent &e) { c->push(e); },
               [&] { c->drain(); });
        c->drain();
        EXPECT_EQ(m.now(), inl.now());
        EXPECT_EQ(m.memAccesses(), inl.memAccesses());
        EXPECT_EQ(m.spanHistogram(Machine::Span::Check).count(),
                  inl.spanHistogram(Machine::Span::Check).count());
        ASSERT_EQ(trace.size(), inlTrace.size());
        EXPECT_TRUE(trace.events() == inlTrace.events());
        c.reset();
    }
}

namespace
{

struct ExecOutcome
{
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t result = 0;
    bool onCompanionBefore = false;
    bool onCompanionAfter = false;
};

/** Cross the threshold on plain events, then run @main under
 * @p interp (Interpreter) or the FastExecutor Model tier. */
ExecOutcome
runExec(const ExecProgram &p, bool interp, bool inlineModel)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.seed = 0xB0;
    Runtime rt(cfg);
    if (inlineModel)
        rt.keepModelInline();
    const PoolId pool = rt.createPool("exec", 32 << 20);
    streamWork(rt, Runtime::kCompanionAfterEvents);
    ExecOutcome o;
    o.onCompanionBefore = rt.modelStages() > 0;
    if (interp) {
        Interpreter::Config icfg;
        icfg.pool = pool;
        Interpreter in(rt, p.mod, p.plan, icfg);
        o.result = in.call("main", {64, 40});
        o.instructions = in.instructionCount();
    } else {
        const LoweredModule lm = lowerModule(p.mod, p.plan, rt.version());
        FastExecutor::Config xcfg;
        xcfg.pool = pool;
        xcfg.tier = ExecTier::Model;
        FastExecutor ex(rt, lm, xcfg);
        o.result = ex.call("main", {64, 40});
        o.instructions = ex.instructionCount();
    }
    // Events after the call go back through the ring.
    streamWork(rt, 1000);
    o.onCompanionAfter = rt.modelStages() > 0;
    o.cycles = rt.machine().now();
    return o;
}

} // namespace

TEST(ModelCompanionRules, ExecutorCallsMatchInline)
{
    const ExecProgram p = compileExecProgram(ir::kPtrChaseSource);
    for (bool interp : {true, false}) {
        SCOPED_TRACE(interp ? "interpreter" : "model tier");
        const ExecOutcome inl = runExec(p, interp, true);
        const ExecOutcome comp = runExec(p, interp, false);
        EXPECT_FALSE(inl.onCompanionBefore);
        if (companionsPossible()) {
            EXPECT_TRUE(comp.onCompanionBefore);
            EXPECT_TRUE(comp.onCompanionAfter);
        }
        EXPECT_GT(inl.instructions, 0u);
        EXPECT_EQ(comp.cycles, inl.cycles);
        EXPECT_EQ(comp.instructions, inl.instructions);
        EXPECT_EQ(comp.result, inl.result);
    }
}

TEST(ModelCompanionRules, ExecutorCallStartsNoCompanion)
{
    // A long call crosses the threshold inside the executor: the
    // model stays inline for it and nothing starts.
    const ExecProgram p = compileExecProgram(ir::kPtrChaseSource);
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    Runtime rt(cfg);
    FastExecutor::Config xcfg;
    xcfg.pool = rt.createPool("exec", 32 << 20);
    const LoweredModule lm = lowerModule(p.mod, p.plan, rt.version());
    FastExecutor ex(rt, lm, xcfg);
    Trace trace;
    rt.machine().setTrace(&trace);
    ex.call("main", {256, 200});
    rt.machine().setTrace(nullptr);
    EXPECT_GT(trace.size(), 2 * Runtime::kCompanionAfterEvents);
    EXPECT_EQ(rt.modelStages(), 0u);
}

TEST(ModelCompanionRules, TwoShardFleetStartsNoCompanion)
{
    const unsigned live = ModelCompanion::live();
    ShardedRuntime::Config cfg;
    cfg.shards = 2;
    cfg.poolSize = 1 << 20;
    ShardedRuntime fleet(cfg);
    fleet.runOnShards([&](unsigned s) {
        streamWork(fleet.runtime(s), Runtime::kCompanionAfterEvents);
        EXPECT_EQ(fleet.runtime(s).modelStages(), 0u);
        EXPECT_EQ(ModelCompanion::live(), live);
    });
    EXPECT_EQ(ModelCompanion::live(), live);
}

TEST(ModelCompanionRules, SingleShardFleetMatchesPlainRuntime)
{
    Runtime::Config rcfg;
    rcfg.version = Version::Hw;
    rcfg.seed = 16;
    const auto work = [](Runtime &rt, PoolId pool) {
        Tree tree(MemEnv::persistentEnv(rt, pool));
        for (std::uint64_t i = 0; i < 2000; ++i)
            tree.insert(i * 7 % 4096, i);
        return rt.modelStages();
    };

    ShardedRuntime::Config fcfg;
    fcfg.shards = 1;
    fcfg.runtime = rcfg;
    fcfg.poolSize = 4 << 20;
    ShardedRuntime fleet(fcfg);
    unsigned fleetOn = 0;
    fleet.runOnShards([&](unsigned s) {
        fleetOn = work(fleet.runtime(s), fleet.pool(s));
    });
    // Free the fleet's slots so the plain runtime gets as many.
    fleet.runtime(0).keepModelInline();

    Runtime plain(rcfg);
    unsigned plainOn = 0;
    {
        RuntimeScope scope(plain);
        plainOn = work(plain, plain.createPool(fcfg.poolName,
                                               fcfg.poolSize));
    }
    EXPECT_EQ(fleetOn, plainOn);
    EXPECT_EQ(plainOn, std::min(ModelCompanion::budget(), 2u));
    Machine &f = fleet.runtime(0).machine();
    Machine &m = plain.machine();
    EXPECT_EQ(f.now(), m.now());
    EXPECT_EQ(f.memAccesses(), m.memAccesses());
    EXPECT_EQ(f.storePCount(), m.storePCount());
    EXPECT_EQ(f.caches().l1().misses(), m.caches().l1().misses());
    EXPECT_EQ(f.bpred().mispredicts(), m.bpred().mispredicts());
    EXPECT_EQ(fleet.runtime(0).relToAbs(), plain.relToAbs());
}
