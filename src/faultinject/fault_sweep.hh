/**
 * @file
 * Hostile-media corruption sweep: the crash-schedule sweep times the
 * media fault model.
 *
 * The driver samples crash points of a deterministic workload (the
 * same workload contract as crashSweep), and for every sampled point
 * injects each MediaFaultKind into each FaultRegion of the captured
 * crash image, then classifies what PoolManager::openResilient does
 * with the damaged image:
 *
 *   benign      — pool served, contents validate (recovery happened to
 *                 erase the damage, e.g. a corrupted byte was inside a
 *                 range the undo log rolled back);
 *   repaired    — check/repair fixed the damage, contents validate;
 *   quarantined — unrepairable, pool attached read-only, writes
 *                 refused with Fault{PoolQuarantined};
 *   rejected    — header unusable, image refused with a typed fault;
 *   silent      — pool served but its contents are wrong, OR a
 *                 quarantined pool accepted a write. The sweep's
 *                 entire point: this count MUST stay zero.
 *
 * Fleet containment is asserted on every classification: a sibling
 * pool in the same manager must keep allocating no matter what
 * happened to the damaged one.
 */

#ifndef UPR_FAULTINJECT_FAULT_SWEEP_HH
#define UPR_FAULTINJECT_FAULT_SWEEP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "crash/crash_sweep.hh"
#include "faultinject/media_fault.hh"

namespace upr
{

/** Parameters of one corruption sweep. */
struct FaultSweepConfig
{
    /** Retention schedule the crash images are captured under. */
    CrashMode mode = CrashMode::RetainRandom;
    /** Base seed for retention and fault RNGs (printed on failure). */
    std::uint64_t seed = 1;
    /**
     * Sample every Nth crash point. Each sampled point fans out into
     * kMediaFaultKinds x kFaultRegions classifications, so sampling
     * keeps the sweep minutes-scale while still covering the full
     * kind x region matrix many times over.
     */
    std::uint64_t pointStride = 53;
    /** Size of the fleet-containment sibling pool. */
    Bytes siblingSize = 1 << 20;
};

/** Outcome tally. injections == benign+repaired+quarantined+rejected+silent. */
struct FaultSweepResult
{
    std::uint64_t crashPointsSampled = 0;
    std::uint64_t injections = 0;  //!< corruptions that changed >= 1 byte
    std::uint64_t benign = 0;
    std::uint64_t repaired = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t rejected = 0;
    std::uint64_t noEffect = 0;    //!< fault changed nothing; skipped
    std::uint64_t silent = 0;      //!< MUST be zero (see file comment)
    std::uint64_t containment = 0; //!< sibling-pool failures; MUST be zero
};

/**
 * Deep content validation of a *served* pool: @p image is the raw
 * bytes of the pool openResilient decided to serve read-write, after
 * all recovery and repair. Return true iff the contents are one of
 * the states a pure crash could have left (the crash-sweep
 * before/after-commit contract). A false return is counted as silent
 * corruption.
 */
using FaultValidator = std::function<bool(
    const std::vector<std::uint8_t> &image, std::uint64_t crashPoint)>;

/**
 * Run the corruption sweep: one run of @p workload on the crash-sweep
 * engine, classifying at every pointStride-th persistence event.
 * @p workload follows the crashSweep contract (deterministic,
 * attaches the injector when the crash window opens). UPR_CRASH_SEED
 * in the environment overrides config.seed, and any silent/containment
 * failure prints the point/kind/region/seed needed to replay it.
 *
 * @throws the engine's faults, or Fault{CorruptPool} if an
 *         UNcorrupted sampled image fails to open cleanly (the
 *         sweep's control leg)
 */
FaultSweepResult faultSweep(const CrashWorkload &workload,
                            const FaultValidator &contentValid,
                            const FaultSweepConfig &config = {});

} // namespace upr

#endif // UPR_FAULTINJECT_FAULT_SWEEP_HH
