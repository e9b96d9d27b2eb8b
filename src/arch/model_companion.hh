/**
 * @file
 * ModelCompanion: the timing model on a second core — the split
 * Sniper makes between its Pin frontend and its interval simulator.
 *
 * The owner of a Runtime (the producer) turns each Machine call of
 * its hot path into a 16-byte TraceEvent and pushes it into a
 * bounded single-producer/single-consumer ring; the companion thread
 * (the consumer) applies every record, in order, to the one Machine
 * through Machine::apply, so the simulated clock, every counter, both
 * span histograms and a recorded Trace come out exactly as if the
 * owner had made the calls itself.
 *
 * Ring shape (measured starting points, docs/PERFORMANCE.md):
 *  - kRecords = 32,768 slots (512 KiB), allocated when the companion
 *    starts; the producer publishes its index once per kBatch = 128
 *    records and the consumer reports progress as often, so a burst
 *    never waits for a whole ring to drain;
 *  - producer-written and consumer-written words sit on separate
 *    cache lines, and the producer's private cursor on a third;
 *  - either side that runs dry spins briefly, then blocks with
 *    std::atomic::wait; the other side notifies only when it sees the
 *    sleeper's flag, so a busy pipeline makes no system calls and an
 *    idle companion burns no core.
 *
 * At most budget() = hardware_concurrency()/2 companions are live in
 * a process; start() returns nullptr past it and the caller keeps
 * calling its Machine inline. Only the Runtime's owner pushes; drain()
 * is the sync point after which the owner may read or call the
 * Machine directly (docs/CONCURRENCY.md).
 */

#ifndef UPR_ARCH_MODEL_COMPANION_HH
#define UPR_ARCH_MODEL_COMPANION_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>

#include "arch/trace.hh"

namespace upr
{

class Machine;

/** A companion thread draining one Machine's event ring. */
class ModelCompanion
{
  public:
    static constexpr std::size_t kRecords = 32768;
    static constexpr std::size_t kBatch = 128;

    /**
     * Start a companion applying records to @p machine, or return
     * nullptr when budget() companions are already live (or the
     * thread cannot be created): the caller stays inline.
     */
    static std::unique_ptr<ModelCompanion> start(Machine &machine);

    /** Drains, stops and joins the thread; frees its budget slot. */
    ~ModelCompanion();

    ModelCompanion(const ModelCompanion &) = delete;
    ModelCompanion &operator=(const ModelCompanion &) = delete;

    /** Append one record (the owner only); waits while the ring is full. */
    void
    push(const TraceEvent &e)
    {
        slots_[head_ & (kRecords - 1)] = e;
        if ((++head_ & (kBatch - 1)) == 0)
            publish();
    }

    /**
     * Return once every pushed record has been applied. Afterwards
     * the caller may use the Machine directly until its next push.
     * Rethrows what applying a record threw since the last drain
     * (only an allocation can: a Trace append).
     */
    void drain();

    /** Companions live in this process. */
    static unsigned live();

    /** The most that may be live at once: hardware_concurrency()/2. */
    static unsigned budget();

  private:
    explicit ModelCompanion(Machine &machine);

    /** Hand the filled records over; make room for the next batch. */
    void publish();
    /** Store the producer index and wake a sleeping consumer. */
    void signalConsumer();
    /** drain() without the rethrow. */
    void catchUp();
    /** Producer side: wait until @p target records are applied. */
    void waitConsumed(std::uint64_t target);
    /** Consumer side: wait for records past @p tail, or a stop. */
    void waitPublished(std::uint64_t tail);
    /** The companion thread's loop. */
    void run();

    // Producer-private cursor: the owner writes it on every push.
    alignas(64) std::uint64_t head_ = 0;
    /** head_ may not pass this without a fresh look at consumed_. */
    std::uint64_t limit_ = kRecords;
    TraceEvent *slots_;

    // Producer-written, consumer-read.
    alignas(64) std::atomic<std::uint64_t> published_{0};
    std::atomic<std::uint32_t> producerBell_{0};
    std::atomic<bool> producerWaiting_{false};
    std::atomic<bool> stop_{false};

    // Consumer-written, producer-read.
    alignas(64) std::atomic<std::uint64_t> consumed_{0};
    std::atomic<std::uint32_t> consumerBell_{0};
    std::atomic<bool> consumerWaiting_{false};
    /** First failure since the last drain; published by consumed_. */
    std::exception_ptr error_;

    // Set up once, before the thread starts.
    alignas(64) std::unique_ptr<TraceEvent[]> storage_;
    Machine &machine_;
    std::thread thread_;
};

} // namespace upr

#endif // UPR_ARCH_MODEL_COMPANION_HH
