#include "arch/model_companion.hh"

#include <algorithm>
#include <exception>
#include <utility>

#include "arch/machine.hh"
#include "common/logging.hh"

namespace upr
{

namespace
{

/** Polls (about 50 us) before a side that waits in vain blocks. */
constexpr int kSpins = 2048;

std::atomic<unsigned> gLive{0};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Bump @p bell and wake the one thread that may sleep on it. */
inline void
ring(std::atomic<std::uint32_t> &bell)
{
    bell.fetch_add(1, std::memory_order_release);
    bell.notify_one();
}

} // namespace

unsigned
ModelCompanion::budget()
{
    return std::thread::hardware_concurrency() / 2;
}

unsigned
ModelCompanion::live()
{
    return gLive.load(std::memory_order_relaxed);
}

std::unique_ptr<ModelCompanion>
ModelCompanion::start(Machine &machine)
{
    const unsigned cap = budget();
    unsigned n = gLive.load(std::memory_order_relaxed);
    do {
        if (n >= cap)
            return nullptr;
    } while (!gLive.compare_exchange_weak(n, n + 1,
                                          std::memory_order_relaxed));
    try {
        std::unique_ptr<ModelCompanion> c(new ModelCompanion(machine));
        c->thread_ = std::thread([p = c.get()] { p->run(); });
        return c;
    } catch (const std::exception &) {
        // No memory for the ring or no thread: the model stays inline.
        gLive.fetch_sub(1, std::memory_order_relaxed);
        return nullptr;
    }
}

ModelCompanion::ModelCompanion(Machine &machine)
    : storage_(new TraceEvent[kRecords]), machine_(machine)
{
    slots_ = storage_.get();
}

ModelCompanion::~ModelCompanion()
{
    if (!thread_.joinable())
        return; // start() failed before the thread ran
    catchUp();
    if (error_)
        upr_warn("a model event failed on the companion thread after "
                 "the last sync; the model missed it");
    stop_.store(true, std::memory_order_seq_cst);
    ring(producerBell_);
    thread_.join();
    gLive.fetch_sub(1, std::memory_order_relaxed);
}

void
ModelCompanion::signalConsumer()
{
    published_.store(head_, std::memory_order_seq_cst);
    if (consumerWaiting_.load(std::memory_order_seq_cst))
        ring(producerBell_);
}

void
ModelCompanion::publish()
{
    signalConsumer();
    // Pushes between two publishes never exceed one batch, so room
    // for a batch past head_ is all the next publish needs.
    if (head_ + kBatch > limit_) {
        waitConsumed(head_ + kBatch - kRecords);
        limit_ = consumed_.load(std::memory_order_acquire) + kRecords;
    }
}

void
ModelCompanion::drain()
{
    catchUp();
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
ModelCompanion::catchUp()
{
    if (consumed_.load(std::memory_order_acquire) == head_)
        return;
    signalConsumer();
    waitConsumed(head_);
    limit_ = head_ + kRecords;
}

void
ModelCompanion::waitConsumed(std::uint64_t target)
{
    // Spin while the consumer makes progress (it reports once per
    // batch); block only after it stalls for a whole spin. A sleeping
    // thread can take hundreds of microseconds to wake on a loaded
    // host, more than the companion needs to drain the ring.
    std::uint64_t seen = consumed_.load(std::memory_order_acquire);
    for (int i = 0; i < kSpins; ++i) {
        if (seen >= target)
            return;
        cpuRelax();
        const std::uint64_t c = consumed_.load(std::memory_order_acquire);
        if (c != seen) {
            seen = c;
            i = 0;
        }
    }
    // Flag, then re-check: the consumer stores consumed_ before it
    // reads the flag (both seq_cst), so one of us sees the other.
    for (;;) {
        const std::uint32_t bell =
            consumerBell_.load(std::memory_order_acquire);
        producerWaiting_.store(true, std::memory_order_seq_cst);
        if (consumed_.load(std::memory_order_seq_cst) >= target)
            break;
        consumerBell_.wait(bell, std::memory_order_acquire);
    }
    producerWaiting_.store(false, std::memory_order_relaxed);
}

void
ModelCompanion::waitPublished(std::uint64_t tail)
{
    for (int i = 0; i < kSpins; ++i) {
        if (published_.load(std::memory_order_acquire) != tail ||
            stop_.load(std::memory_order_acquire)) {
            return;
        }
        cpuRelax();
    }
    for (;;) {
        const std::uint32_t bell =
            producerBell_.load(std::memory_order_acquire);
        consumerWaiting_.store(true, std::memory_order_seq_cst);
        if (published_.load(std::memory_order_seq_cst) != tail ||
            stop_.load(std::memory_order_seq_cst)) {
            break;
        }
        producerBell_.wait(bell, std::memory_order_acquire);
    }
    consumerWaiting_.store(false, std::memory_order_relaxed);
}

void
ModelCompanion::run()
{
    const TraceEvent *slots = storage_.get();
    std::uint64_t tail = 0;
    for (;;) {
        const std::uint64_t avail =
            published_.load(std::memory_order_acquire);
        if (avail == tail) {
            // The destructor drains before it stops us: nothing is
            // left behind.
            if (stop_.load(std::memory_order_acquire))
                return;
            waitPublished(tail);
            continue;
        }
        while (tail != avail) {
            // Report progress once per batch so a producer waiting
            // for room resumes early.
            const std::uint64_t end =
                std::min(avail, (tail | (kBatch - 1)) + 1);
            try {
                for (; tail != end; ++tail)
                    machine_.apply(slots[tail & (kRecords - 1)]);
            } catch (...) {
                // Keep the first failure for drain() and go on: the
                // owner must still be able to catch up.
                if (!error_)
                    error_ = std::current_exception();
                tail = end;
            }
            consumed_.store(tail, std::memory_order_seq_cst);
            if (producerWaiting_.load(std::memory_order_seq_cst))
                ring(consumerBell_);
        }
    }
}

} // namespace upr
