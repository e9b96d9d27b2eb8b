/**
 * @file
 * ir_exec: the seven compiler-path programs of bench/bench_ir.hh
 * (fig9, ptr_chase, sweep, publish, stream, scan, conflict), compiled
 * with check elision and run through the FastExecutor in the Model
 * tier and then the Native tier under Version::Sw.
 *
 * Almost all of the work is compiler dispatch and the software checks;
 * none of it touches containers, transactions or shards, so a change
 * there should leave this workload unchanged. Model minus Native time
 * on the same program estimates the arch timing model's host cost.
 *
 * An operation is one IR instruction; a request is one call of a
 * program's main in one tier (a "cell"). Cells differ in cost by two
 * orders of magnitude, so latency percentiles are taken per cell and
 * summarized by their geometric mean.
 */

#include <array>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "bench_ir.hh"
#include "compiler/interpreter.hh"

namespace perfbench
{

namespace
{

using namespace upr;
using upr::bench::ExecProgram;
using upr::bench::ExecWorkload;

/** bench_ir's workload divisor: 4 runs each program at 1/4 size. */
constexpr std::uint64_t kScale = 4;
constexpr Bytes kPoolBytes = 32ULL << 20;
constexpr ExecTier kTiers[2] = {ExecTier::Model, ExecTier::Native};

/**
 * The programs, each size argument grown by a seeded 0-2%: enough to
 * change every checksum, small enough to keep timings comparable.
 */
std::vector<ExecWorkload>
programs(std::uint64_t seed)
{
    std::vector<ExecWorkload> ws = upr::bench::execWorkloads(kScale);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        std::uint64_t &n = ws[i].args.back();
        n += mixSeed(seed, 100 + i) % (n / 50 + 1);
    }
    return ws;
}



Runtime::Config
runtimeConfig(ExecTier tier)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.seed = 0xB0;
    cfg.execTier = tier;
    return cfg;
}

/** What one call of one program in one tier returned. */
struct CellRun
{
    double callMs = 0;
    std::uint64_t result = 0;
    std::uint64_t instructions = 0;
    std::uint64_t dynamicChecks = 0;
    /** Machine clock after the call on a fresh runtime (Model). */
    Cycles cyclesTotal = 0;
    /** Modeled cycles of the call alone (Model). */
    Cycles cycles = 0;
};

/** What one repetition measured. */
struct Rep
{
    double setupS = 0;
    double runS = 0;
    /** [program][tier] */
    std::vector<std::array<CellRun, 2>> cells;
    std::vector<double> recoverMs;
    ExactCounts exact;
    LowerStats lowered;
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    double rssMb = 0;
};

/** One call as a window: its instruction rate and its latency. */
Window
windowOf(const CellRun &c)
{
    Window w;
    w.rate = static_cast<double>(c.instructions) / (c.callMs / 1e3);
    w.latNs.push_back({static_cast<float>(c.callMs * 1e6)});
    return w;
}

/**
 * One repetition: compile, then per cell create, lower and call. The
 * pool image of one program's Native run (@p restartProgram) is
 * reopened to time a restart.
 */
Rep
runRep(const std::vector<ExecWorkload> &ws, std::size_t restartProgram,
       SpanBuffer *buf)
{
    Rep rep;
    rep.cells.resize(ws.size());
    const auto t0 = Clock::now();
    std::vector<ExecProgram> progs(ws.size());
    for (std::size_t p = 0; p < ws.size(); ++p) {
        Span s(buf, "compiler.compile", p + 1);
        progs[p] = upr::bench::compileExecProgram(ws[p].source);
    }
    double setupS = secondsSince(t0);

    for (std::size_t p = 0; p < ws.size(); ++p) {
        for (int t = 0; t < 2; ++t) {
            const std::string cell =
                std::string(ws[p].name) + "." + execTierName(kTiers[t]);
            const auto s0 = Clock::now();
            std::unique_ptr<Runtime> rt;
            {
                Span s(buf, "core.runtime_create");
                rt = std::make_unique<Runtime>(runtimeConfig(kTiers[t]));
            }
            FastExecutor::Config xcfg;
            {
                Span s(buf, "nvm.pool_create");
                xcfg.pool = rt->createPool("exec", kPoolBytes);
            }
            xcfg.tier = kTiers[t];
            std::unique_ptr<LoweredModule> lm;
            std::unique_ptr<FastExecutor> ex;
            {
                Span s(buf, "compiler.lower");
                lm = std::make_unique<LoweredModule>(
                    lowerModule(progs[p].mod, progs[p].plan, rt->version()));
                ex = std::make_unique<FastExecutor>(*rt, *lm, xcfg);
            }
            setupS += secondsSince(s0);

            CellRun &r = rep.cells[p][t];
            const Cycles c0 = rt->machine().now();
            const auto r0 = Clock::now();
            try {
                Span s(buf, "compiler.exec", p * 2 + t + 1);
                r.result = ex->call("main", ws[p].args);
            } catch (const std::exception &) {
                ++rep.failed;
            }
            r.callMs = static_cast<double>(nsBetween(r0, Clock::now())) / 1e6;
            rep.runS += r.callMs / 1e3;
            ++rep.calls;
            r.instructions = ex->instructionCount();
            r.dynamicChecks = ex->dynamicCheckCount();
            r.cyclesTotal = rt->machine().now();
            r.cycles = r.cyclesTotal - c0;
            rep.exact[cell + ".result"] = r.result;
            rep.exact[cell + ".instructions"] = r.instructions;
            rep.exact[cell + ".dynamicChecks"] = r.dynamicChecks;
            if (kTiers[t] == ExecTier::Model) {
                rep.exact[cell + ".cycles"] = r.cycles;
                rep.exact["cycles"] += r.cycles;
                rep.exact["instructions"] += r.instructions;
                rep.exact["dynamicChecks"] += r.dynamicChecks;
                addModelCounts(rep.exact, *rt);
                rep.lowered.sites += lm->stats.sites;
                rep.lowered.retainedGuards += lm->stats.retainedGuards;
                rep.lowered.fusedPairs += lm->stats.fusedPairs;
                continue;
            }
            const Pool &pool = rt->pools().pool(xcfg.pool);
            rep.exact["arenaUsed"] += pool.header().usedBytes;
            if (p != restartProgram)
                continue;
            // Restart of the program's persistent heap: adopt its pool
            // image after the run.
            Backing image;
            {
                Span s(buf, "mem.crash_image");
                image.assign(pool.backing().crashImage(
                    CrashMode::DiscardUnfenced));
            }
            ex.reset();
            rt.reset();
            Runtime fresh(runtimeConfig(ExecTier::Native));
            const auto a = Clock::now();
            {
                Span s(buf, "nvm.adopt_image");
                fresh.pools().adoptImage(std::move(image), "exec");
            }
            rep.recoverMs.push_back(
                static_cast<double>(nsBetween(a, Clock::now())) / 1e6);
        }
    }
    rep.setupS = setupS;
    rep.rssMb = peakRssMb();
    return rep;
}

/**
 * The oracle: each program through the Interpreter on a fresh runtime
 * must give both tiers' checksum, instruction count and dynamic-check
 * count, and the Model tier's exact cycle count.
 */
void
checkAgainstInterpreter(const std::vector<ExecWorkload> &ws,
                        const Rep &rep, Result &res)
{
    for (std::size_t p = 0; p < ws.size(); ++p) {
        const ExecProgram prog = upr::bench::compileExecProgram(ws[p].source);
        Runtime rt(runtimeConfig(ExecTier::Model));
        Interpreter::Config icfg;
        icfg.pool = rt.createPool("exec", kPoolBytes);
        Interpreter in(rt, prog.mod, prog.plan, icfg);
        std::uint64_t result = 0;
        bool threw = false;
        try {
            result = in.call("main", ws[p].args);
        } catch (const std::exception &) {
            threw = true;
        }
        const CellRun &model = rep.cells[p][0];
        const CellRun &native = rep.cells[p][1];
        bool ok = !threw && model.cyclesTotal == rt.machine().now();
        for (const CellRun *c : {&model, &native}) {
            ok = ok && c->result == result &&
                 c->instructions == in.instructionCount() &&
                 c->dynamicChecks == in.dynamicCheckCount();
        }
        if (!ok)
            ++res.failed;
        res.check(ok, std::string(ws[p].name) +
                          ": Model and Native match the Interpreter "
                          "(checksum " +
                          std::to_string(result) + ", " +
                          std::to_string(in.instructionCount()) +
                          " insts, " +
                          std::to_string(in.dynamicCheckCount()) +
                          " checks; Model cycles exact)");
    }
}

} // namespace

Result
runIrExec(const Options &opt)
{
    Result res;
    const std::vector<ExecWorkload> ws = programs(opt.seed);
    const std::size_t n = ws.size();
    if (n != std::size(kIrPrograms))
        throw std::logic_error("bench_ir.hh program list changed");

    std::vector<double> setupS, recoverMs;
    // [program][tier]: each call as one window.
    std::vector<std::array<std::vector<Window>, 2>> calls(n);
    ExactCounts ref;
    bool haveRef = false;
    Rep first;
    double runS = 0;
    std::size_t reps = 0;
    while (moreReps(runS, reps, opt.seconds)) {
        Rep r = runRep(ws, reps % n, nullptr);
        checkExact(res, ref, haveRef, r.exact,
                   "repetition " + std::to_string(reps));
        setupS.push_back(r.setupS);
        for (std::size_t p = 0; p < n; ++p) {
            for (int t = 0; t < 2; ++t)
                calls[p][t].push_back(windowOf(r.cells[p][t]));
        }
        recoverMs.insert(recoverMs.end(), r.recoverMs.begin(),
                         r.recoverMs.end());
        runS += r.runS;
        res.attempted += r.calls;
        res.failed += r.failed;
        if (reps == 0)
            first = std::move(r);
        ++reps;
    }
    res.check(haveRef, "exact counters repeat bit for bit over " +
                           std::to_string(reps) + " repetitions");
    checkAgainstInterpreter(ws, first, res);

    // Each program-tier cell is a request class of its own; its
    // figures come from the fastest tenth of its calls, and the
    // end-to-end figures are geometric means over the cells.
    std::vector<double> rates, p50, p99, mips[2];
    double modelMinusNative = 0;
    for (std::size_t p = 0; p < n; ++p) {
        for (int t = 0; t < 2; ++t) {
            const WindowFigures f = fastestDecile(calls[p][t]);
            const double ms = f.p50[0] / 1e6;
            rates.push_back(f.rate);
            p50.push_back(f.p50[0]);
            p99.push_back(f.p99[0]);
            mips[t].push_back(f.rate / 1e6);
            res.layer(std::string(t == 0 ? "compiler.model_ms."
                                         : "compiler.native_ms.") +
                          ws[p].name,
                      ms);
            modelMinusNative += t == 0 ? ms : -ms;
        }
    }
    const double insts = static_cast<double>(ref["instructions"]);
    res.e2e("setup_s", lowDecile(setupS));
    res.e2e("throughput_ops_s", geomean(rates));
    res.e2e("op_p50_us", geomean(p50) / 1e3);
    res.e2e("op_p99_us", geomean(p99) / 1e3);
    res.e2e("sim_cycles_per_op", static_cast<double>(ref["cycles"]) / insts);
    res.e2e("recover_ms", lowDecile(recoverMs));
    res.e2e("peak_rss_mb", first.rssMb);

    setModelMetrics(res, ref, insts);
    res.layer("arch.model_ms", modelMinusNative);
    res.layer("nvm.arena_used_bytes", static_cast<double>(ref["arenaUsed"]));
    res.layer("compiler.retained_guard_ratio",
              static_cast<double>(first.lowered.retainedGuards) /
                  static_cast<double>(first.lowered.sites));
    res.layer("compiler.fused_pairs",
              static_cast<double>(first.lowered.fusedPairs));
    res.layer("compiler.model_minst_s", geomean(mips[0]));
    res.layer("compiler.native_minst_s", geomean(mips[1]));

    if (opt.trace) {
        SpanBuffer buf(0, Clock::now());
        Rep r = runRep(ws, reps % n, &buf);
        checkExact(res, ref, haveRef, r.exact, "traced repetition");
        res.attempted += r.calls;
        res.failed += r.failed;
        const LayerTimes t = reportTrace(res, opt, "ir_exec", buf.spans());
        res.layer("core.runtime_create_ms",
                  spanTotalMs(t, "core.runtime_create"));
        res.layer("nvm.pool_create_ms", spanTotalMs(t, "nvm.pool_create"));
        res.layer("compiler.compile_ms", spanTotalMs(t, "compiler.compile"));
        res.layer("compiler.lower_ms", spanTotalMs(t, "compiler.lower"));
        // Untraced over traced rate, per cell.
        std::vector<double> slowdown;
        for (std::size_t p = 0; p < n; ++p) {
            for (int tier = 0; tier < 2; ++tier) {
                std::vector<double> untraced;
                for (const Window &w : calls[p][tier])
                    untraced.push_back(w.rate);
                slowdown.push_back(median(untraced) /
                                   windowOf(r.cells[p][tier]).rate);
            }
        }
        res.layer("obs.trace_overhead_pct", (geomean(slowdown) - 1) * 100);
    }
    return res;
}

} // namespace perfbench
