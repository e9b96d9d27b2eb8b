/**
 * @file
 * Exhaustive crash-schedule sweep over a persistent workload.
 *
 * The engine runs a workload exactly once and, at *every* persistence
 * event 1..N, hands a caller-supplied check the durable images a power
 * failure at that event would leave — before the event applies, so
 * each image is the one a crash there captures. The workload then
 * carries on as if nothing happened: the check only reads copies.
 * crashSweep() over a CrashValidator is the standard check: each image
 * is reopened as a pool, put through hardened crash recovery
 * (Txn::recover — including a second, must-be-no-op recovery to prove
 * idempotence), and handed to the validator. mtCrashSweep() and
 * faultSweep() are the other checks built on the same engine.
 *
 * This is the simulator-scale version of the exhaustive failure
 * schedules that Agamotto and XFDetector explore on real PM stacks:
 * because our persistence domain is deterministic, "every crash point"
 * is literally every point, not a sample.
 */

#ifndef UPR_CRASH_CRASH_SWEEP_HH
#define UPR_CRASH_CRASH_SWEEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "crash/crash_injector.hh"
#include "nvm/pool.hh"

namespace upr
{

/** Parameters of one sweep. */
struct CrashSweepConfig
{
    /** Fate of unfenced lines in each captured image. */
    CrashMode mode = CrashMode::DiscardUnfenced;
    /** Base seed for the retention RNG (varied per crash point). */
    std::uint64_t seed = 1;
};

/** What an exhaustive sweep observed. */
struct CrashSweepResult
{
    /** Persistence events in one workload run == crash points swept. */
    std::uint64_t crashPoints = 0;
    /** Images whose recovery found an active log and rolled back. */
    std::uint64_t rollbacks = 0;
    /** Images that were already consistent (no active log). */
    std::uint64_t cleanImages = 0;
};

/**
 * The workload under test. Called once; it must build its pool(s),
 * call injector.attach(...) on the pool backing(s) when the crash
 * window opens, and then run its operations. A deterministic workload
 * (fixed seeds, no wall clock) makes every reported crash point
 * replayable.
 */
using CrashWorkload = std::function<void(CrashInjector &injector)>;

/**
 * Per-point check of the sweep engine: called at persistence event
 * @p point of the one workload run, before it applies.
 * injector.image(b) / strictImage(b) are the durable images a crash
 * at @p point leaves; @p backing is the attached backing that raised
 * the event. Throw to stop the sweep.
 */
using CrashPointCheck = std::function<void(
    const CrashInjector &injector, std::uint64_t point,
    unsigned backing)>;

/**
 * Invariant check over one recovered image. @p pool has already been
 * through Txn::recover; @p rolledBack says whether that replayed an
 * undo log. Throw (or fail a test assertion) to flag a violation.
 */
using CrashValidator = std::function<void(
    Pool &pool, std::uint64_t crashPoint, bool rolledBack)>;

/**
 * The sweep engine: run @p workload once and @p check every one of
 * its persistence events. UPR_CRASH_SEED in the environment overrides
 * config.seed (the injector's seed() is the one in effect). If @p check
 * throws, the injector goes inert, a replay banner naming the point
 * is printed once, and the exception reaches the caller.
 *
 * @return the crash points visited (persistence events in the run)
 * @throws whatever @p check throws, plus Fault{BadUsage} if the
 *         workload raised no persistence event (never attached) or
 *         UPR_CRASH_SEED is not a number
 */
std::uint64_t crashSweep(const CrashWorkload &workload,
                         const CrashPointCheck &check,
                         const CrashSweepConfig &config = {});

/**
 * Run @p workload under every possible crash point and validate every
 * recovered image.
 *
 * @throws whatever @p validate throws, plus the engine's faults
 */
CrashSweepResult crashSweep(const CrashWorkload &workload,
                            const CrashValidator &validate,
                            const CrashSweepConfig &config = {});

/**
 * Parse a crash-seed replay value: decimal, 0x-hex or 0-octal, the
 * whole string and nothing else.
 *
 * @throws Fault{BadUsage} on no digits, trailing garbage or overflow
 */
std::uint64_t parseCrashSeed(std::string_view text);

/**
 * The UPR_CRASH_SEED replay override, parsed by parseCrashSeed();
 * nullopt when unset or empty.
 */
std::optional<std::uint64_t> crashSeedOverride();

} // namespace upr

#endif // UPR_CRASH_CRASH_SWEEP_HH
