/**
 * @file
 * ModelCompanion: the timing model on other cores — the split Sniper
 * makes between its Pin frontend and its interval simulator.
 *
 * The owner of a Runtime (the producer) pushes each model event it
 * emits, a 16-byte TraceEvent, into a bounded single-producer/
 * single-consumer ring. A Tick is held back and carried in the next
 * MemAccess/PtrLoad/Branch record when one comes first
 * (TraceEvent::carriedTick); any other record or a drain sends it on
 * as a Tick record of its own.
 *
 * The companion applies every record, in order, to the one Machine,
 * so the simulated clock, every counter and both span histograms come
 * out exactly as if the owner had applied the events itself. Nothing
 * it applies can throw (Machine::apply and its stages are noexcept),
 * so there is no failure to hand back. It runs as a pipeline of one
 * or two threads over the ring:
 *  - two stages: the memory stage (Machine::applyMemoryStage: MMU
 *    front, TLBs, caches, whose state never reads the clock) writes
 *    each access's latency into its record, and the clock stage
 *    (Machine::applyClockStage: clock, branch predictor, storeP unit
 *    and pending-storeP table, spans, core counters) charges them in
 *    record order, behind the memory stage's cursor;
 *  - one stage: one thread calls Machine::apply on each record.
 *
 * Ring shape (measured starting points, docs/PERFORMANCE.md):
 *  - kRecords = 32,768 slots (512 KiB), allocated when the companion
 *    starts; the producer publishes its index once per kBatch = 128
 *    records and each stage reports progress as often, so a burst
 *    never waits for a whole ring to drain;
 *  - the producer's private cursor and each stage's published cursor
 *    sit on cache lines of their own;
 *  - a side that runs dry spins briefly, then blocks with
 *    std::atomic::wait; the side ahead of it notifies only when it
 *    sees the sleeper's flag, so a busy pipeline makes no system
 *    calls and an idle companion burns no core.
 *
 * Threads come from a process-wide budget of budget() =
 * hardware_concurrency()/2 slots, one per stage. start() takes two
 * stages when two slots are free, one when one is, and otherwise
 * returns nullptr so the caller keeps calling its Machine inline.
 * Only the Runtime's owner pushes; drain() is the sync point after
 * which the owner may read or call the Machine directly
 * (docs/CONCURRENCY.md).
 */

#ifndef UPR_ARCH_MODEL_COMPANION_HH
#define UPR_ARCH_MODEL_COMPANION_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "arch/trace.hh"

namespace upr
{

class Machine;

/** The companion threads draining one Machine's event ring. */
class ModelCompanion
{
  public:
    static constexpr std::size_t kRecords = 32768;
    static constexpr std::size_t kBatch = 128;

    /**
     * Start a companion applying records to @p machine: two stages
     * when two budget slots are free (and the Machine's latencies fit
     * a record), one when one is. Returns nullptr when none is free
     * (or the thread cannot be created): the caller stays inline.
     */
    static std::unique_ptr<ModelCompanion> start(Machine &machine);

    /** Drains, stops and joins the threads; frees their slots. */
    ~ModelCompanion();

    ModelCompanion(const ModelCompanion &) = delete;
    ModelCompanion &operator=(const ModelCompanion &) = delete;

    /**
     * Append one record (the owner only); waits while the ring is
     * full. A Tick is held to ride on the next carrier when it can.
     * Forced inline: with the kind a constant only one path is left.
     */
    [[gnu::always_inline]] void
    push(TraceEvent e)
    {
        if (e.kind() == TraceEvent::Kind::Tick) {
            holdTick(e.a);
            return;
        }
        if (carried_ != 0) {
            if (TraceEvent::carries(e.kind()))
                e.kb |= carried_ << TraceEvent::kCarryShift;
            else
                append({TraceEvent::Kind::Tick, carried_});
            carried_ = 0;
        }
        append(e);
    }

    /**
     * Return once every pushed record has been applied. Afterwards
     * the caller may use the Machine directly until its next push.
     */
    void drain() noexcept;

    /** Threads in the pipeline: 1 or 2. */
    unsigned stages() const { return stages_; }

    /** Budget slots in use in this process (one per stage). */
    static unsigned live();

    /** The most slots that may be in use at once. */
    static unsigned budget();

    /** Budget slots held for this object's lifetime. */
    class Slots
    {
      public:
        /** Take min(@p want, free) slots. */
        explicit Slots(unsigned want);
        Slots(Slots &&o) noexcept : n_(o.n_) { o.n_ = 0; }
        ~Slots();
        Slots &operator=(const Slots &) = delete;

        unsigned count() const { return n_; }
        /** Give back all but @p keep of them. */
        void shrink(unsigned keep);

      private:
        unsigned n_;
    };

  private:
    explicit ModelCompanion(Slots slots);

    /** One stage's (or the producer's) progress through the ring. */
    struct alignas(64) Cursor
    {
        /** Records handed on to the next side. */
        std::atomic<std::uint64_t> pos{0};
        /** Bumped to wake the side that reads pos. */
        std::atomic<std::uint32_t> bell{0};
        /** Set by that reading side before it sleeps. */
        std::atomic<bool> readerWaiting{false};
    };

    /** Hold a tick of @p n cycles for the next carrier. */
    void
    holdTick(Cycles n)
    {
        if (carried_ != 0)
            append({TraceEvent::Kind::Tick, carried_});
        carried_ = n;
        if (n > TraceEvent::kCarryMax) {
            append({TraceEvent::Kind::Tick, n});
            carried_ = 0;
        }
    }

    /** Store one record in the ring. */
    void
    append(const TraceEvent &e)
    {
        slots_[head_ & (kRecords - 1)] = e;
        if ((++head_ & (kBatch - 1)) == 0)
            publish();
    }

    /** Hand the filled records over; make room for the next batch. */
    void publish();
    /** Store @p pos in @p c and wake its reader if it sleeps. */
    static void advance(Cursor &c, std::uint64_t pos);
    /** Producer side: wait until @p target records are applied. */
    void waitConsumed(std::uint64_t target);
    /** Stage side: wait for @p in to pass @p tail, or a stop. */
    void waitPublished(Cursor &in, std::uint64_t tail);
    /**
     * One stage's loop: @p apply each record between its cursor and
     * @p in, handing each batch on through @p out.
     */
    template <class Apply>
    void runStage(Cursor &in, Cursor &out, Apply apply);

    // Producer-private: the owner writes these on every push.
    alignas(64) std::uint64_t head_ = 0;
    /** head_ may not pass this without a fresh look at consumed_. */
    std::uint64_t limit_ = kRecords;
    /** A tick waiting for a record to carry it (0: none). */
    Cycles carried_ = 0;
    TraceEvent *slots_;

    /** Producer-written: records pushed; stop_ ends the threads. */
    Cursor published_;
    std::atomic<bool> stop_{false};
    /** Written by the memory stage of a two-stage pipeline. */
    Cursor staged_;
    /** Written by the last stage: records fully applied. */
    Cursor consumed_;

    // Set up once, before the threads start.
    alignas(64) std::unique_ptr<TraceEvent[]> storage_;
    Slots held_;
    const unsigned stages_;
    std::thread threads_[2];
};

} // namespace upr

#endif // UPR_ARCH_MODEL_COMPANION_HH
