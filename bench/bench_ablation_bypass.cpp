/**
 * @file
 * Ablation: the MMU-front probe delay and the non-PMO bypass
 * predictor — implementing and evaluating the paper's future-work
 * sentence ("predict non-PMO accesses that bypass the POLB/VALB").
 *
 * Three design points per benchmark, HW version:
 *   none      — probe delay not charged (the paper's simulations
 *               model a small delay; ours defaults it off)
 *   always    — every access pays the 1-cycle POLB/VALB probe
 *   predicted — the bypass predictor skips it for non-PMO accesses
 */

#include <cinttypes>
#include <cstdio>

#include "bench_common.hh"

using namespace upr;
using namespace upr::bench;

namespace
{

RunStats
runWithFront(Workload w, MmuFrontModel model)
{
    // Mirror bench_common's run() but with the front model set.
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 0xB0;
    cfg.machine.mmuFront = model;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("bench", 512 << 20);

    if (w == Workload::LL) {
        struct Value16
        {
            std::uint64_t lo = 0;
            std::uint64_t hi = 0;
        };
        LinkedList<Value16> list(MemEnv::persistentEnv(rt, pool));
        Rng rng(7);
        for (std::uint64_t i = 0; i < 10'000 / benchScale(); ++i)
            list.pushBack({rng.next(), rng.next()});
        rt.machine().resetAllStats();
        rt.resetCounters();
        const Cycles start = rt.machine().now();
        std::uint64_t sum = 0;
        list.forEach([&](const Value16 &v) { sum += v.lo + v.hi; });
        RunStats st;
        st.cycles = rt.machine().now() - start;
        st.checksum = sum;
        return st;
    }

    const YcsbWorkload workload(paperSpec());
    KvStore<RbTree<std::uint64_t, std::uint64_t>> store(
        MemEnv::persistentEnv(rt, pool));
    store.loadPhase(workload);
    rt.machine().resetAllStats();
    rt.resetCounters();
    const KvRunResult res = store.runPhase(workload);
    RunStats st;
    st.cycles = res.cycles;
    st.checksum = res.checksum;
    st.memAccesses = rt.machine().memAccesses();
    return st;
}

/**
 * Mixed traffic: a persistent KV store plus an equally hot volatile
 * cache in front of it (a realistic app shape) — about half the
 * accesses are non-PMO and can bypass.
 */
RunStats
runMixed(MmuFrontModel model)
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 0xB0;
    cfg.machine.mmuFront = model;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("bench", 256 << 20);

    using Tree = RbTree<std::uint64_t, std::uint64_t>;
    Tree pers(MemEnv::persistentEnv(rt, pool));
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
    RunStats st;
    st.cycles = rt.machine().now() - start;
    st.checksum = sum;
    return st;
}

} // namespace

int
main()
{
    printConfigBanner();
    std::printf("\nAblation: MMU-front probe delay + non-PMO bypass "
                "prediction (HW version)\n");
    std::printf("%-6s %14s %14s %14s %16s\n", "bench", "none",
                "always", "predicted", "recovered");

    auto emitRow = [](const char *name, const RunStats &none,
                      const RunStats &always, const RunStats &pred) {
        const double added = static_cast<double>(always.cycles) -
                             static_cast<double>(none.cycles);
        const double recovered =
            added <= 0 ? 0.0
                       : 100.0 * (static_cast<double>(always.cycles) -
                                  static_cast<double>(pred.cycles)) /
                             added;
        std::printf("%-8s %14" PRIu64 " %14" PRIu64 " %14" PRIu64
                    " %15.1f%%\n",
                    name, none.cycles, always.cycles, pred.cycles,
                    recovered);
    };

    for (Workload w : {Workload::LL, Workload::RB}) {
        const RunStats none = runWithFront(w, MmuFrontModel::None);
        const RunStats always =
            runWithFront(w, MmuFrontModel::Always);
        const RunStats pred =
            runWithFront(w, MmuFrontModel::Predicted);

        if (none.checksum != always.checksum ||
            none.checksum != pred.checksum) {
            std::fprintf(stderr, "OUTPUT MISMATCH\n");
            return 1;
        }

        emitRow(workloadName(w), none, always, pred);
    }
    {
        const RunStats none = runMixed(MmuFrontModel::None);
        const RunStats always = runMixed(MmuFrontModel::Always);
        const RunStats pred = runMixed(MmuFrontModel::Predicted);
        if (none.checksum != always.checksum ||
            none.checksum != pred.checksum) {
            std::fprintf(stderr, "OUTPUT MISMATCH (mixed)\n");
            return 1;
        }
        emitRow("mixed", none, always, pred);
    }
    std::printf("\ntakeaway: prediction recovers most of the probe "
                "delay for mixed workloads; a persistent-only "
                "workload cannot bypass (every access IS a PMO "
                "access), bounding the benefit.\n");
    return 0;
}
