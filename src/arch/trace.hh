/**
 * @file
 * The 16-byte model event, and trace record/replay — the Sniper
 * "trace mode" analogue.
 *
 * A TraceEvent is one call of the Runtime (the Pin-style frontend) on
 * its timing model: a memory access, a pointer load, a storeP with
 * its address and translation latency, a branch with its outcome,
 * fixed-latency work, or a histogram span mark. The Runtime builds
 * every event in one place and either applies it inline through
 * Machine::apply or pushes it into the companion's ring
 * (arch/model_companion.hh). While a Trace is attached to the Runtime
 * it also appends each event there first: a trace is the frontend's
 * own event stream, nothing the Machine writes.
 *
 * Replay feeds the stream to a fresh Machine through the same
 * Machine::apply, so every timing component is re-simulated under a
 * *different* MachineParams without re-running the workload: TLBs,
 * caches, memory latencies, the branch predictor, the MMU-front
 * bypass predictor and probe delay, the storeP FSM buffer and the
 * wait of a pointer load on an in-flight storeP. Replaying under the
 * original parameters reproduces the original counters exactly
 * (tested). Only the POLB/VALB lookup latencies are fixed Ticks: the
 * frontend probes those structures itself, because a lookup returns
 * an address and may fault, so sweeps over them still need a live
 * run (bench_harness's sweep section does that). A trace lives in
 * memory only; there is no file format.
 *
 * In the ring, a record of a carrier kind (MemAccess, PtrLoad,
 * Branch) may also hold a tick the model charges just before the
 * event, and a two-stage companion's memory stage writes an access's
 * latency into its record for the clock stage; both sit above the
 * kind's own payload, where a recorded trace keeps zeros.
 */

#ifndef UPR_ARCH_TRACE_HH
#define UPR_ARCH_TRACE_HH

#include <deque>

#include "arch/params.hh"
#include "common/types.hh"

namespace upr
{

/** One machine-level event: two words, the kind in b's top byte. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        MemAccess, //!< a = va; b = (write<<8)|accessKind
        Branch,    //!< a = site; b = taken
        Tick,      //!< a = cycles of fixed-latency work
        PtrLoad,   //!< a = va
        StoreP,    //!< a = va; b = rs translation latency
        SpanBegin, //!< a = Machine::Span
        SpanEnd,   //!< a = Machine::Span
    };

    static constexpr unsigned kKindShift = 56;
    static constexpr std::uint64_t kPayloadMask =
        (std::uint64_t{1} << kKindShift) - 1;

    // Ring-only fields of b, above the 9 bits a MemAccess uses:
    // [9, 26) a carried tick and [26, 56) the access latency the
    // memory stage found (MMU front + TLB + caches + memory).
    static constexpr unsigned kCarryShift = 9;
    static constexpr unsigned kLatencyShift = 26;
    static constexpr Cycles kCarryMax =
        (Cycles{1} << (kLatencyShift - kCarryShift)) - 1;
    static constexpr Cycles kLatencyMax =
        (Cycles{1} << (kKindShift - kLatencyShift)) - 1;

    TraceEvent() = default;
    /** @p b_ is masked to the payload, so kind() of an event built
     * from a constant kind is a compile-time constant. */
    constexpr TraceEvent(Kind k, std::uint64_t a_, std::uint64_t b_ = 0)
        : a(a_), kb((std::uint64_t(k) << kKindShift) | (b_ & kPayloadMask))
    {}

    Kind kind() const { return static_cast<Kind>(kb >> kKindShift); }
    std::uint64_t b() const { return kb & kPayloadMask; }

    /** True for the kinds that can carry a tick. */
    static constexpr bool
    carries(Kind k)
    {
        return k == Kind::MemAccess || k == Kind::PtrLoad ||
               k == Kind::Branch;
    }
    /** The tick charged before this event (0: none). */
    Cycles carriedTick() const { return (kb >> kCarryShift) & kCarryMax; }
    Cycles latency() const { return (kb >> kLatencyShift) & kLatencyMax; }

    bool
    operator==(const TraceEvent &o) const
    {
        return a == o.a && kb == o.kb;
    }

    std::uint64_t a = 0;
    /** Kind (top byte) and the 56-bit payload b. */
    std::uint64_t kb = 0;
};
static_assert(sizeof(TraceEvent) == 16, "two words per event");

/**
 * A recorded event stream. Stored in chunks, so an append never
 * copies the events already recorded: a trace's peak memory is its
 * own size, not twice it.
 */
class Trace
{
  public:
    /**
     * Append one event (called by the Runtime's emit path). Out of
     * line, to keep that path small where nothing records; by value,
     * so the caller's record stays in registers and its kind a
     * constant.
     */
    void append(TraceEvent e);

    const std::deque<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

  private:
    std::deque<TraceEvent> events_;
};

/** The replaying Machine's counters. */
struct ReplayResult
{
    Cycles cycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t storePs = 0;
};

/**
 * Re-simulate a trace under @p params (fresh, cold machine state).
 */
ReplayResult replayTrace(const Trace &trace,
                         const MachineParams &params);

} // namespace upr

#endif // UPR_ARCH_TRACE_HH
