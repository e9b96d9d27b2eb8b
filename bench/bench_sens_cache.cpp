/**
 * @file
 * Cache-geometry sensitivity via trace replay (Sniper-trace-mode
 * style): the RB workload is recorded once per version, then
 * re-simulated across cache configurations — dozens of design points
 * from a single workload execution.
 *
 * The question it answers for the paper's design: does the HW
 * version's near-zero overhead depend on generous caches? (It should
 * not — translations are the overhead, and they are served by the
 * POLB, not the data caches.) Exits non-zero when a geometry's
 * HW/Volatile ratio leaves the band EXPERIMENTS.md states.
 */

#include <cinttypes>
#include <cstdio>

#include "arch/trace.hh"
#include "bench_common.hh"

using namespace upr;
using namespace upr::bench;

namespace
{

/** Record the standard RB KV run-phase under @p version. */
Trace
recordRb(Version version)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.seed = 0xB0;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("bench", 512 << 20);

    const YcsbWorkload workload(paperSpec());
    KvStore<RbTree<std::uint64_t, std::uint64_t>> store(
        MemEnv::persistentEnv(rt, pool));
    store.loadPhase(workload);

    Trace trace;
    rt.setTrace(&trace);
    store.runPhase(workload);
    rt.setTrace(nullptr);
    return trace;
}

struct Config
{
    const char *name;
    Bytes l1, l2, l3;
};

/** The HW/Volatile band every geometry must stay in (EXPERIMENTS.md:
 * 1.080–1.095 measured). */
constexpr double kRatioLo = 1.07;
constexpr double kRatioHi = 1.11;

} // namespace

int
main()
{
    printConfigBanner();
    const Config configs[] = {
        {"tiny   (8K/64K/512K)", 8 << 10, 64 << 10, 512 << 10},
        {"paper  (32K/256K/2M)", 32 << 10, 256 << 10, 2 << 20},
        {"big    (64K/1M/8M)", 64 << 10, 1 << 20, 8 << 20},
        {"huge   (128K/4M/32M)", 128 << 10, 4 << 20, 32 << 20},
    };

    std::printf("\nCache sensitivity via trace replay (RB, run "
                "phase): HW/Volatile cycle ratio per geometry\n");
    std::printf("%-24s %12s %12s %10s %12s\n", "cache config",
                "Volatile", "HW", "HW/Vol", "HW L1-miss%");

    const Trace vol_trace = recordRb(Version::Volatile);
    const Trace hw_trace = recordRb(Version::Hw);
    std::printf("# traces: %zu events (Volatile), %zu events (HW)\n",
                vol_trace.size(), hw_trace.size());

    unsigned outside = 0;
    for (const Config &c : configs) {
        MachineParams p;
        p.l1Size = c.l1;
        p.l2Size = c.l2;
        p.l3Size = c.l3;
        const ReplayResult vol = replayTrace(vol_trace, p);
        const ReplayResult hw = replayTrace(hw_trace, p);
        const double ratio = static_cast<double>(hw.cycles) /
                             static_cast<double>(vol.cycles);
        std::printf("%-24s %12" PRIu64 " %12" PRIu64 " %10.3f %11.2f%%\n",
                    c.name, vol.cycles, hw.cycles, ratio,
                    100.0 * static_cast<double>(hw.l1Misses) /
                        static_cast<double>(hw.memAccesses));
        outside += ratio < kRatioLo || ratio > kRatioHi;
    }

    std::printf("\ntakeaway: the HW/Volatile ratio stays roughly "
                "constant across cache geometries — the HW overhead "
                "is translation work, not cache pressure.\n");
    std::printf("# shape: every HW/Vol ratio within [%.2f, %.2f]: %s\n",
                kRatioLo, kRatioHi, outside == 0 ? "PASS" : "FAIL");
    return outside == 0 ? 0 : 1;
}
