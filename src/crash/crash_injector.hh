/**
 * @file
 * CrashInjector: systematic crash-point injection for the simulated
 * persistence domain.
 *
 * The injector attaches to the persistence-event stream (writes,
 * flushes, fences) of one pool Backing, or of several backings that
 * share one event counter, and counts events. It then works in one of
 * two ways:
 *
 *   - armed with a crash point N, it simulates power failure *at* the
 *     Nth event: the event never takes effect, the durable image of
 *     every attached backing is captured exactly as the media would
 *     have kept it (per CrashMode), and a SimulatedCrash unwinds the
 *     workload;
 *   - given a visitor, it calls it at *every* event before that event
 *     applies, with the images readable from inside the call — so one
 *     workload run visits every crash point (the sweep engine,
 *     crash_sweep.hh), the in-simulation analogue of the
 *     Agamotto/XFDetector exhaustive failure schedules.
 *
 * Both see the same bytes: the image the visitor reads at event N is
 * the one arm(N) captures, because nothing on the media changes
 * between "the observer was called for N" and "N would apply".
 */

#ifndef UPR_CRASH_CRASH_INJECTOR_HH
#define UPR_CRASH_CRASH_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/backing.hh"

namespace upr
{

/**
 * Thrown when an armed CrashInjector reaches its crash point.
 * Deliberately NOT a Fault: workload code that catches Fault for
 * error handling must not accidentally swallow a power failure.
 */
class SimulatedCrash : public std::runtime_error
{
  public:
    explicit SimulatedCrash(std::uint64_t at)
        : std::runtime_error("simulated crash at persistence event " +
                             std::to_string(at)),
          at_(at)
    {}

    /** The 1-based persistence-event index the crash fired at. */
    std::uint64_t at() const { return at_; }

  private:
    std::uint64_t at_;
};

/**
 * Counts persistence events on one or more Backings; crashes at event
 * N, or visits every event.
 */
class CrashInjector
{
  public:
    /**
     * Called at persistence event @p point (1-based) before it
     * applies; @p backing indexes the attached backing that raised it.
     */
    using Visitor =
        std::function<void(std::uint64_t point, unsigned backing)>;

    /**
     * @param mode fate of unfenced lines in the captured image
     * @param seed retention RNG seed (CrashMode::RetainRandom)
     */
    explicit CrashInjector(CrashMode mode = CrashMode::DiscardUnfenced,
                           std::uint64_t seed = 1)
        : mode_(mode), seed_(seed)
    {}

    ~CrashInjector() { detach(); }

    CrashInjector(const CrashInjector &) = delete;
    CrashInjector &operator=(const CrashInjector &) = delete;

    /**
     * Set the crash point *before* the workload runs (the driver's
     * half of the handshake). 0 = never crash, only count.
     */
    void arm(std::uint64_t crashAt) { crashAt_ = crashAt; }

    /**
     * Call @p visitor at every persistence event, before it applies.
     * Inside the call, image()/strictImage() are what a crash at that
     * event leaves on media. If the visitor throws, the injector goes
     * inert first (like a fired crash: the unwinding workload's
     * writes never call back again) and the exception propagates out
     * of the event into the workload.
     */
    void visit(Visitor visitor) { visitor_ = std::move(visitor); }

    /**
     * Start observing @p backing (the workload's half: called once
     * its pool exists and the crash window opens). Enables the
     * backing's persistence domain (the current content becomes
     * durable) and resets the event counter.
     *
     * Lifetime: the observer closure holds only a shared hook that
     * detach() (or destruction) nulls out, so the backing may outlive
     * the injector or vice versa — a workload's Runtime (and its pool
     * backings) is routinely destroyed while the sweep driver still
     * holds the injector.
     */
    void attach(Backing &backing) { attachAll({&backing}, false); }

    /**
     * Observe every backing in @p backings through one event counter:
     * event N is a position in the *total order* across them, and a
     * crash at N captures every backing's image at the same instant.
     * Each backing gets its own retention-RNG stream, so torn lines
     * differ across backings like they would on independent DIMMs.
     */
    void
    attach(std::vector<Backing *> backings)
    {
        attachAll(std::move(backings), true);
    }

    /**
     * Stop observing. Never touches the backings (they may already be
     * gone): the installed observers go inert and die with them.
     */
    void
    detach()
    {
        if (hook_ != nullptr) {
            hook_->owner = nullptr;
            hook_.reset();
        }
        backings_.clear();
    }

    /** Persistence events seen since attach(). */
    std::uint64_t events() const { return events_; }

    /** True once the crash point fired. */
    bool fired() const { return fired_; }

    /** The retention RNG seed (replay diagnostics). */
    std::uint64_t seed() const { return seed_; }

    /** The retention mode images are captured under. */
    CrashMode mode() const { return mode_; }

    /**
     * Backing @p b's durable image at the crash instant. Valid after
     * fired(), or inside the visitor, where each call reads the media
     * afresh (the reference stays valid until the next call for
     * @p b).
     */
    const std::vector<std::uint8_t> &
    image(unsigned b = 0) const
    {
        return capture(b, images_, mode_, imageSeed(b));
    }

    /**
     * Backing @p b's strict (DiscardUnfenced) image at the same
     * instant: exactly the lines that were *certainly* on media. The
     * fault model uses it as the revert-to baseline for torn-line and
     * dropped-flush faults. Valid when image() is.
     */
    const std::vector<std::uint8_t> &
    strictImage(unsigned b = 0) const
    {
        return capture(b, strict_, CrashMode::DiscardUnfenced, 0);
    }

  private:
    /** Shared with the observer closures; nulled when we go away. */
    struct Hook
    {
        CrashInjector *owner;
    };

    void
    attachAll(std::vector<Backing *> backings, bool multi)
    {
        detach();
        backings_ = std::move(backings);
        multi_ = multi;
        events_ = 0;
        fired_ = false;
        images_.resize(backings_.size());
        strict_.resize(backings_.size());
        hook_ = std::make_shared<Hook>(Hook{this});
        for (unsigned b = 0; b < backings_.size(); ++b) {
            backings_[b]->enablePersistenceDomain();
            backings_[b]->setPersistObserver(
                [hook = hook_, b](PersistEvent, Bytes, Bytes) {
                    if (hook->owner != nullptr)
                        hook->owner->onEvent(b);
                });
        }
    }

    /** Retention-RNG seed of backing @p b at the current event. */
    std::uint64_t
    imageSeed(unsigned b) const
    {
        return multi_ ? seed_ ^ (events_ * 0x9e3779b9ULL + b)
                      : seed_ ^ events_;
    }

    const std::vector<std::uint8_t> &
    capture(unsigned b, std::vector<std::vector<std::uint8_t>> &slots,
            CrashMode mode, std::uint64_t seed) const
    {
        upr_assert_msg(fired_ || visiting_,
                       "crash image requested outside a crash");
        if (!fired_)
            slots.at(b) = backings_.at(b)->crashImage(mode, seed);
        return slots.at(b);
    }

    void
    onEvent(unsigned b)
    {
        ++events_;
        if (visitor_) {
            visiting_ = true;
            try {
                visitor_(events_, b);
            } catch (...) {
                visiting_ = false;
                detach();
                throw;
            }
            visiting_ = false;
        }
        if (crashAt_ != 0 && events_ == crashAt_) {
            // Capture the media state *before* this event applies,
            // then go inert: unwinding destructors (e.g. Txn::~Txn
            // rolling back) still touch the backings, but the machine
            // is already off — their writes must not count or crash
            // again. The observer stays installed (we are executing
            // inside it right now) but its hook no longer points here.
            for (unsigned i = 0; i < backings_.size(); ++i) {
                images_[i] = backings_[i]->crashImage(mode_, imageSeed(i));
                strict_[i] =
                    backings_[i]->crashImage(CrashMode::DiscardUnfenced);
            }
            fired_ = true;
            detach();
            throw SimulatedCrash(crashAt_);
        }
    }

    CrashMode mode_;
    std::uint64_t seed_;
    Visitor visitor_;
    std::shared_ptr<Hook> hook_;
    std::vector<Backing *> backings_;
    /** Attached as a set (per-backing seed streams), not alone. */
    bool multi_ = false;
    std::uint64_t crashAt_ = 0;
    std::uint64_t events_ = 0;
    bool fired_ = false;
    /** Inside the visitor: images are read live from the media. */
    bool visiting_ = false;
    mutable std::vector<std::vector<std::uint8_t>> images_;
    mutable std::vector<std::vector<std::uint8_t>> strict_;
};

} // namespace upr

#endif // UPR_CRASH_CRASH_INJECTOR_HH
