/**
 * @file
 * Durable-linearizability crash sweep over a sharded, multi-threaded
 * store (the multi-threaded extension of crash_sweep.hh).
 *
 * The workload is the sharded persistent hash map over a
 * ShardedRuntime fleet: per shard, a deterministic list of
 * insert/overwrite/erase operations on that shard's own keys, each in
 * its own transaction. The per-shard operation streams are interleaved
 * into one total order by a seeded scheduler at *transaction-step*
 * granularity (begin / apply / commit), so transactions genuinely
 * overlap across shards while the global persistence-event order stays
 * deterministic, so every reported crash point replays. (The real
 * thread scheduler is exercised by the concurrent bench and TSan
 * tests; the sweep deliberately replaces it with a seeded one, because
 * a replay line only means something when the rerun agrees on what
 * event N is.)
 *
 * The workload runs once, on the crash-sweep engine (crash_sweep.hh)
 * with every shard backing attached to one CrashInjector. At every
 * index N of that total order the sweep simulates power failure: the
 * durable image of EVERY shard pool is read at the same instant (per
 * the configured retention mode), every shard is recovered
 * independently through its engine, and the recovered store is
 * checked against the set of linearizations the logged operation
 * history admits. Because each key belongs to exactly one shard, that
 * set factorizes: each shard must recover to its committed prefix,
 * plus-or-minus its single in-flight operation — atomically, never
 * torn. A recovered state outside the set is a *silent* violation; an
 * exception escaping recovery/validation is a *containment* violation.
 * Durable linearizability holds iff both counts are zero.
 */

#ifndef UPR_CRASH_MT_CRASH_SWEEP_HH
#define UPR_CRASH_MT_CRASH_SWEEP_HH

#include <cstdint>

#include "mem/backing.hh"
#include "nvm/pool.hh"

namespace upr
{

/** Parameters of one multi-threaded sweep. */
struct MtCrashSweepConfig
{
    /** Shard count == worker-thread count being modeled. */
    unsigned shards = 2;
    /** Transaction engine on every shard pool. */
    EngineKind engine = EngineKind::Undo;
    /** Fate of unfenced lines in each captured image. */
    CrashMode mode = CrashMode::DiscardUnfenced;
    /** Base seed for the retention RNG (varied per point and shard). */
    std::uint64_t seed = 99;
    /** Seed of the deterministic cross-shard step scheduler. */
    std::uint64_t scheduleSeed = 1234;
    /** Transactional operations per shard (after the setup phase). */
    std::size_t opsPerShard = 6;
    /** Redo group-commit batch size (1 = flush every commit). */
    unsigned groupCommitSize = 1;
};

/** What an exhaustive multi-threaded sweep observed. */
struct MtCrashSweepResult
{
    /** Persistence events in the total order == crash points swept. */
    std::uint64_t crashPoints = 0;
    /** Adjacent event pairs owned by different shards (interleaving
     * really happened; a degenerate schedule would make the sweep a
     * sequential one in disguise). */
    std::uint64_t crossShardEvents = 0;
    /** Shard recoveries that found an active log and rolled back. */
    std::uint64_t rollbacks = 0;
    /** Shard recoveries that found an already-consistent image. */
    std::uint64_t cleanImages = 0;
    /** Recovered shard states outside the admissible linearizations —
     * wrong data with no error raised. Must be zero. */
    std::uint64_t silent = 0;
    /** Recoveries/validations an exception escaped from. Must be
     * zero. */
    std::uint64_t containment = 0;
};

/**
 * Crash the sharded workload at every persistence event in its total
 * order and durable-linearizability-check every recovered image.
 *
 * Unlike crashSweep(), violations are *counted*, not thrown: the
 * result's silent/containment fields are the verdict, and every
 * violation prints a replay line to stderr as it is found.
 * UPR_CRASH_SEED overrides config.seed, as for crashSweep().
 *
 * @throws Fault{BadUsage} if UPR_CRASH_SEED is not a number
 */
MtCrashSweepResult mtCrashSweep(const MtCrashSweepConfig &config = {});

} // namespace upr

#endif // UPR_CRASH_MT_CRASH_SWEEP_HH
