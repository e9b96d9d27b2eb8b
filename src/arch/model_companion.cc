#include "arch/model_companion.hh"

#include <algorithm>
#include <exception>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "arch/machine.hh"

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

/** Name the calling thread (shown by ps, top and /proc/.../comm). */
inline void
nameThisThread(const char *name)
{
#if defined(__linux__)
    pthread_setname_np(pthread_self(), name);
#else
    (void)name;
#endif
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

ModelCompanion::Slots::Slots(unsigned want)
{
    const unsigned cap = budget();
    unsigned n = gLive.load(std::memory_order_relaxed);
    do {
        n_ = std::min(want, cap > n ? cap - n : 0u);
        if (n_ == 0)
            return;
    } while (!gLive.compare_exchange_weak(n, n + n_,
                                          std::memory_order_relaxed));
}

ModelCompanion::Slots::~Slots()
{
    shrink(0);
}

void
ModelCompanion::Slots::shrink(unsigned keep)
{
    if (n_ > keep) {
        gLive.fetch_sub(n_ - keep, std::memory_order_relaxed);
        n_ = keep;
    }
}

std::unique_ptr<ModelCompanion>
ModelCompanion::start(Machine &machine)
{
    Slots slots(2);
    if (slots.count() == 0)
        return nullptr;
    if (!machine.latenciesFitRecord())
        slots.shrink(1);
    try {
        std::unique_ptr<ModelCompanion> c(
            new ModelCompanion(std::move(slots)));
        ModelCompanion *p = c.get();
        Machine *m = &machine;
        if (p->stages_ == 2) {
            p->threads_[0] = std::thread([p, m] {
                nameThisThread("upr-model-mem");
                p->runStage(p->published_, p->staged_,
                            [m](TraceEvent &e) { m->applyMemoryStage(e); });
            });
            p->threads_[1] = std::thread([p, m] {
                nameThisThread("upr-model-clk");
                p->runStage(p->staged_, p->consumed_,
                            [m](TraceEvent &e) { m->applyClockStage(e); });
            });
        } else {
            p->threads_[0] = std::thread([p, m] {
                nameThisThread("upr-model");
                p->runStage(p->published_, p->consumed_,
                            [m](TraceEvent &e) { m->apply(e); });
            });
        }
        return c;
    } catch (const std::exception &) {
        // No memory for the ring or no thread: the model stays inline
        // (a half-started pipeline is stopped by the destructor).
        return nullptr;
    }
}

ModelCompanion::ModelCompanion(Slots slots)
    : storage_(new TraceEvent[kRecords]), held_(std::move(slots)),
      stages_(held_.count())
{
    slots_ = storage_.get();
}

ModelCompanion::~ModelCompanion()
{
    if (!threads_[0].joinable())
        return; // start() failed before a thread ran
    drain();
    stop_.store(true, std::memory_order_seq_cst);
    ring(published_.bell);
    ring(staged_.bell);
    for (std::thread &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

void
ModelCompanion::advance(Cursor &c, std::uint64_t pos)
{
    // Store, then read the flag (both seq_cst): a reader that set the
    // flag and re-checked pos either sees the store or gets rung.
    c.pos.store(pos, std::memory_order_seq_cst);
    if (c.readerWaiting.load(std::memory_order_seq_cst))
        ring(c.bell);
}

void
ModelCompanion::publish()
{
    advance(published_, head_);
    // Pushes between two publishes never exceed one batch, so room
    // for a batch past head_ is all the next publish needs.
    if (head_ + kBatch > limit_) {
        waitConsumed(head_ + kBatch - kRecords);
        limit_ = consumed_.pos.load(std::memory_order_acquire) + kRecords;
    }
}

void
ModelCompanion::drain() noexcept
{
    if (carried_ != 0) {
        append({TraceEvent::Kind::Tick, carried_});
        carried_ = 0;
    }
    if (consumed_.pos.load(std::memory_order_acquire) == head_)
        return;
    advance(published_, head_);
    waitConsumed(head_);
    limit_ = head_ + kRecords;
}

void
ModelCompanion::waitConsumed(std::uint64_t target)
{
    // Spin while the last stage makes progress (it reports once per
    // batch); block only after it stalls for a whole spin. A sleeping
    // thread can take hundreds of microseconds to wake on a loaded
    // host, more than the companion needs to drain the ring.
    std::uint64_t seen = consumed_.pos.load(std::memory_order_acquire);
    for (int i = 0; i < kSpins; ++i) {
        if (seen >= target)
            return;
        cpuRelax();
        const std::uint64_t c =
            consumed_.pos.load(std::memory_order_acquire);
        if (c != seen) {
            seen = c;
            i = 0;
        }
    }
    for (;;) {
        const std::uint32_t bell =
            consumed_.bell.load(std::memory_order_acquire);
        consumed_.readerWaiting.store(true, std::memory_order_seq_cst);
        if (consumed_.pos.load(std::memory_order_seq_cst) >= target)
            break;
        consumed_.bell.wait(bell, std::memory_order_acquire);
    }
    consumed_.readerWaiting.store(false, std::memory_order_relaxed);
}

void
ModelCompanion::waitPublished(Cursor &c, std::uint64_t tail)
{
    for (int i = 0; i < kSpins; ++i) {
        if (c.pos.load(std::memory_order_acquire) != tail ||
            stop_.load(std::memory_order_acquire)) {
            return;
        }
        cpuRelax();
    }
    for (;;) {
        const std::uint32_t bell = c.bell.load(std::memory_order_acquire);
        c.readerWaiting.store(true, std::memory_order_seq_cst);
        if (c.pos.load(std::memory_order_seq_cst) != tail ||
            stop_.load(std::memory_order_seq_cst)) {
            break;
        }
        c.bell.wait(bell, std::memory_order_acquire);
    }
    c.readerWaiting.store(false, std::memory_order_relaxed);
}

template <class Apply>
void
ModelCompanion::runStage(Cursor &in, Cursor &out, Apply apply)
{
    // A copy of the ring pointer: slots_ shares a line with the
    // producer's cursor.
    TraceEvent *const ring = storage_.get();
    std::uint64_t tail = 0;
    for (;;) {
        const std::uint64_t avail = in.pos.load(std::memory_order_acquire);
        if (avail == tail) {
            // The destructor drains before it stops us: nothing is
            // left behind.
            if (stop_.load(std::memory_order_acquire))
                return;
            waitPublished(in, tail);
            continue;
        }
        while (tail != avail) {
            // Hand on once per batch so the side behind resumes early.
            const std::uint64_t end =
                std::min(avail, (tail | (kBatch - 1)) + 1);
            for (; tail != end; ++tail)
                apply(ring[tail & (kRecords - 1)]);
            advance(out, tail);
        }
    }
}

} // namespace upr
