/**
 * @file
 * Execution-tier IR workloads and runner glue, shared by the bench
 * harness (`--only exec`, BENCH_exec.json) and the exec-tier tests
 * so both drive exactly the same programs with the same check plans.
 *
 * Each workload compiles once (parse, open-world inference, flow
 * analysis, check insertion, elision) and then runs through the
 * FastExecutor in a chosen tier on a fresh SW runtime. The contract
 * across tiers — and against the Interpreter — is byte-identical
 * results, instruction counts and dynamicCheckCount().
 */

#ifndef UPR_BENCH_BENCH_IR_HH
#define UPR_BENCH_BENCH_IR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compiler/analysis/abstract_interp.hh"
#include "compiler/analysis/elision.hh"
#include "compiler/demo_programs.hh"
#include "compiler/exec_fast.hh"
#include "compiler/exec_lower.hh"
#include "compiler/ir_parser.hh"
#include "compiler/type_inference.hh"
#include "core/runtime.hh"

namespace upr::bench
{

/** One compiler-path workload of the exec grid. */
struct ExecWorkload
{
    const char *name;
    const char *source;
    std::vector<std::uint64_t> args;
};

/**
 * The exec grid's workloads, sized for @p scale (1 = full,
 * bench --quick passes 100). fig9 mixes proved and dynamic sites,
 * ptr_chase keeps its chase guards (loaded pointers are Unknown),
 * sweep is fully static — the unchecked Native fast path — and
 * publish is storep-dense, where the tier gap is widest.
 */
inline std::vector<ExecWorkload>
execWorkloads(std::uint64_t scale)
{
    const auto shrink = [scale](std::uint64_t n) {
        return std::max<std::uint64_t>(1, n / scale);
    };
    return {
        {"fig9", ir::kFig9Source, {shrink(20'000)}},
        {"ptr_chase", ir::kPtrChaseSource, {256, shrink(8'192)}},
        {"sweep", ir::kSweepSource, {shrink(200'000)}},
        {"publish", ir::kPublishSource, {shrink(200'000)}},
        {"stream", ir::kStreamSource, {shrink(16)}},
        {"scan", ir::kScanSource, {shrink(60'000)}},
        {"conflict", ir::kConflictSource, {shrink(20'000)}},
    };
}

/** A workload compiled to its final (elided) check plan. */
struct ExecProgram
{
    ir::Module mod;
    CheckPlan plan;
    std::uint64_t elidedSites = 0;
};

inline ExecProgram
compileExecProgram(const char *source)
{
    ExecProgram p;
    p.mod = ir::parseModule(source);
    const InferenceResult inf = inferPointerKinds(p.mod, true);
    FlowAnalysis flow(p.mod, inf);
    p.plan = insertChecks(p.mod, &inf);
    p.elidedSites = elideChecks(p.mod, flow, p.plan).elidedSites;
    return p;
}

/** One tier's run of one workload. */
struct ExecRun
{
    std::uint64_t result = 0;
    std::uint64_t instructions = 0;
    std::uint64_t dynamicChecks = 0;
    LowerStats lowered;
};

/**
 * Lower @p p for a fresh SW runtime and run @main through the
 * FastExecutor at @p tier.
 */
inline ExecRun
runExecTier(const ExecProgram &p, ExecTier tier,
            const std::vector<std::uint64_t> &args)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.seed = 0xB0;
    cfg.execTier = tier;
    Runtime rt(cfg);

    const LoweredModule lm = lowerModule(p.mod, p.plan, rt.version());
    FastExecutor::Config xcfg;
    xcfg.pool = rt.createPool("exec", 32 << 20);
    xcfg.tier = tier;
    FastExecutor ex(rt, lm, xcfg);

    ExecRun r;
    r.result = ex.call("main", args);
    r.instructions = ex.instructionCount();
    r.dynamicChecks = ex.dynamicCheckCount();
    r.lowered = lm.stats;
    return r;
}

} // namespace upr::bench

#endif // UPR_BENCH_BENCH_IR_HH
