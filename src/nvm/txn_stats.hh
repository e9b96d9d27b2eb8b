/**
 * @file
 * The process-wide "txn" metrics group: every flush and fence either
 * transaction engine issues is tallied per engine, and the metrics
 * registry exports them ("txn.undoFences", "txn.redoFences", ...)
 * next to the machine, crash, and fault groups.
 *
 * These are the counters the fence-accounting model in
 * docs/CRASH_CONSISTENCY.md is tested against: an undo transaction
 * with k recorded writes pays k+3 fences; a solo redo commit with r
 * coalesced runs pays 4; a group-commit batch of B transactions pays
 * 4 for the whole batch.
 *
 * Emitters live in upr_nvm (txn.cc, redo_log.cc) and consumers in
 * tests and bench. The singleton is built lazily, which keeps the
 * group out of the metrics registry — and out of every existing
 * golden — until a transaction actually runs.
 */

#ifndef UPR_NVM_TXN_STATS_HH
#define UPR_NVM_TXN_STATS_HH

#include "common/stats.hh"
#include "obs/metrics.hh"

namespace upr
{

class TxnStats;

namespace detail
{
/** The calling thread's bound TxnStats (nullptr = process-wide). */
inline TxnStats *&
boundTxnStatsSlot()
{
    thread_local TxnStats *bound = nullptr;
    return bound;
}
} // namespace detail

/** Counters of the transaction engines. */
class TxnStats
{
  public:
    static TxnStats &
    instance()
    {
        static TxnStats s{ProcessWide{}};
        return s;
    }

    /**
     * The TxnStats the engines on this thread tally into: the
     * thread-bound instance if one is bound (a shard's own stats,
     * see ScopedTxnStatsBinding), else the process-wide singleton.
     * Single-threaded code never binds, so its accounting — and
     * every existing golden — is unchanged.
     */
    static TxnStats &
    current()
    {
        TxnStats *bound = detail::boundTxnStatsSlot();
        return bound != nullptr ? *bound : instance();
    }

    /**
     * Construct a non-singleton instance (a shard's local tally).
     * The "txn" group registers under the thread's current metrics
     * registration prefix, so a shard constructing one inside
     * ScopedRegistrationPrefix("shardN.") exports "shardN.txn.*".
     */
    TxnStats() : TxnStats(PrivateTag{}) {}

    Counter undoCommits;  //!< undo transactions committed
    Counter undoFlushes;  //!< flush() calls issued by the undo engine
    Counter undoFences;   //!< fence() calls issued by the undo engine
    Counter redoCommits;  //!< redo transactions committed
    Counter redoFlushes;  //!< flush() calls issued by the redo engine
    Counter redoFences;   //!< fence() calls issued by the redo engine
    Counter groupBatches; //!< group-commit batches flushed to media
    Counter groupTxns;    //!< transactions committed via group commit
    /** Undo writes whose pre-image logging the analysis elided. */
    Counter undoElidedWrites;
    /** Journal entries the redo engine actually wrote. */
    Counter redoJournalEntries;
    /** Payload bytes those entries carried (the log-traffic measure
     * fresh-alloc elision thins: elided runs bypass the journal even
     * when they coalesce into the same number of entries). */
    Counter redoJournalBytes;
    /** Coalesced runs applied journal-free (redo fresh-alloc proof). */
    Counter redoElidedRuns;

    StatGroup &group() { return group_; }

    /** Zero everything (bench sections, test isolation). */
    void resetAll() { group_.resetAll(); }

  private:
    struct PrivateTag
    {
    };

    struct ProcessWide
    {
    };

    /**
     * The process-wide instance is never a shard's: its group
     * registers as "txn" even when the first instance() call comes
     * from inside a shard's ScopedRegistrationPrefix (a fleet's
     * createPool formats each log through it). Out of line (txn.cc)
     * so instance() stays small enough to inline.
     */
    explicit TxnStats(ProcessWide);

    TxnStats(const obs::ScopedRegistrationPrefix & /*unprefixed*/,
             PrivateTag tag)
        : TxnStats(tag)
    {
    }

    explicit TxnStats(PrivateTag) : group_("txn"), registration_(group_)
    {
        group_.registerCounter("undoCommits", undoCommits,
                               "undo transactions committed");
        group_.registerCounter("undoFlushes", undoFlushes,
                               "flushes issued by the undo engine");
        group_.registerCounter("undoFences", undoFences,
                               "fences issued by the undo engine");
        group_.registerCounter("redoCommits", redoCommits,
                               "redo transactions committed");
        group_.registerCounter("redoFlushes", redoFlushes,
                               "flushes issued by the redo engine");
        group_.registerCounter("redoFences", redoFences,
                               "fences issued by the redo engine");
        group_.registerCounter("groupBatches", groupBatches,
                               "group-commit batches flushed");
        group_.registerCounter("groupTxns", groupTxns,
                               "transactions committed via group commit");
        group_.registerCounter("undoElidedWrites", undoElidedWrites,
                               "undo pre-image log entries elided");
        group_.registerCounter("redoJournalEntries", redoJournalEntries,
                               "journal entries written by the redo "
                               "engine");
        group_.registerCounter("redoJournalBytes", redoJournalBytes,
                               "payload bytes journaled by the redo "
                               "engine");
        group_.registerCounter("redoElidedRuns", redoElidedRuns,
                               "staged runs applied journal-free");
    }

    StatGroup group_;
    obs::ScopedMetricsGroup registration_;
};

/**
 * RAII: route this thread's transaction-engine accounting into
 * @p stats for the enclosing scope (restores the previous binding on
 * exit). A shard worker binds its shard's TxnStats alongside its
 * Runtime so concurrent commits never race on the shared singleton's
 * plain counters.
 */
class ScopedTxnStatsBinding
{
  public:
    explicit ScopedTxnStatsBinding(TxnStats &stats)
        : previous_(detail::boundTxnStatsSlot())
    {
        detail::boundTxnStatsSlot() = &stats;
    }

    ~ScopedTxnStatsBinding() { detail::boundTxnStatsSlot() = previous_; }

    ScopedTxnStatsBinding(const ScopedTxnStatsBinding &) = delete;
    ScopedTxnStatsBinding &
    operator=(const ScopedTxnStatsBinding &) = delete;

  private:
    TxnStats *previous_;
};

} // namespace upr

#endif // UPR_NVM_TXN_STATS_HH
