#include "crash/crash_sweep.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "nvm/engine.hh"
#include "nvm/txn.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

/**
 * Process-wide crash-sweep statistics, cumulative across sweeps.
 * Function-local so the group registers with the MetricsRegistry on
 * first use and stays registered for the process lifetime.
 */
struct CrashStats
{
    StatGroup group{"crash"};
    Counter crashPoints;
    Counter rollbacks;
    Counter cleanImages;
    obs::ScopedMetricsGroup reg{group};

    CrashStats()
    {
        group.registerCounter("crashPoints", crashPoints,
                              "crash points injected and recovered");
        group.registerCounter("rollbacks", rollbacks,
                              "recoveries that rolled a txn back");
        group.registerCounter("cleanImages", cleanImages,
                              "recoveries that found a clean image");
    }
};

CrashStats &
crashStats()
{
    static CrashStats stats;
    return stats;
}

} // namespace

std::uint64_t
parseCrashSeed(std::string_view text)
{
    const std::string_view original = text;
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        text.remove_prefix(2);
    } else if (text.size() > 1 && text[0] == '0') {
        base = 8;
        text.remove_prefix(1);
    }
    std::uint64_t seed = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, seed, base);
    if (ec != std::errc() || ptr != end) {
        throw Fault(FaultKind::BadUsage,
                    "crash seed '" + std::string(original) +
                        "' is not a 64-bit unsigned number");
    }
    return seed;
}

std::optional<std::uint64_t>
crashSeedOverride()
{
    const char *env = std::getenv("UPR_CRASH_SEED");
    if (env == nullptr || *env == '\0')
        return std::nullopt;
    return parseCrashSeed(env);
}

std::uint64_t
crashSweep(const CrashWorkload &workload, const CrashPointCheck &check,
           const CrashSweepConfig &config)
{
    // One-command replay of a failed sweep point: UPR_CRASH_SEED in
    // the environment overrides the configured retention seed, and a
    // failing check prints the seed/mode/point needed to set it.
    CrashInjector injector(config.mode,
                           crashSeedOverride().value_or(config.seed));
    std::exception_ptr failure;
    injector.visit([&](std::uint64_t n, unsigned backing) {
        try {
            check(injector, n, backing);
        } catch (...) {
            failure = std::current_exception();
            // Straight to stderr, not the log sink: sweeps routinely
            // run with warnings silenced, and this line is the whole
            // point of a reproducible failure.
            std::fprintf(stderr,
                         "crash sweep FAILED at point %llu "
                         "(mode %s, seed %llu)\n"
                         "replay with: UPR_CRASH_SEED=%llu "
                         "<this test>\n",
                         (unsigned long long)n,
                         crashModeName(config.mode),
                         (unsigned long long)injector.seed(),
                         (unsigned long long)injector.seed());
            throw;
        }
    });
    workload(injector);
    // A workload that swallowed the failure while unwinding still
    // fails the sweep.
    if (failure)
        std::rethrow_exception(failure);
    if (injector.events() == 0) {
        throw Fault(FaultKind::BadUsage,
                    "crash sweep workload generated no persistence "
                    "events (injector never attached?)");
    }
    return injector.events();
}

CrashSweepResult
crashSweep(const CrashWorkload &workload, const CrashValidator &validate,
           const CrashSweepConfig &config)
{
    CrashSweepResult result;
    const auto check = [&](const CrashInjector &injector,
                           std::uint64_t n, unsigned) {
        // Reopen the dead machine's media image and recover it.
        Backing media;
        media.assign(injector.image());
        Pool pool("crash@" + std::to_string(n), std::move(media));
        const bool rolled_back = TxnEngine::recover(pool);
        obs::traceEvent(obs::EventKind::CrashPoint, n, rolled_back);
        if (rolled_back) {
            ++result.rollbacks;
            ++crashStats().rollbacks;
        } else {
            ++result.cleanImages;
            ++crashStats().cleanImages;
        }
        // Recovery must be idempotent: a crash *during* recovery is
        // just another recovery on the next boot.
        if (TxnEngine::recover(pool)) {
            throw Fault(FaultKind::CorruptPool,
                        "recovery of crash point " + std::to_string(n) +
                            " is not idempotent");
        }
        validate(pool, n, rolled_back);
    };
    result.crashPoints = crashSweep(workload, check, config);
    crashStats().crashPoints.add(result.crashPoints);
    return result;
}

} // namespace upr
