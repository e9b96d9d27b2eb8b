/**
 * @file
 * Trace record/replay — the Sniper "trace mode" analogue — and the
 * 16-byte model event both ride on.
 *
 * A Trace captures the machine-level event stream of one run: memory
 * accesses, branches with outcomes, storeP issues, and fixed-latency
 * work. Replay feeds the stream to a fresh Machine through the same
 * entry point the live run's model events take (Machine::apply), so
 * the re-parameterizable components (TLBs, caches, memory latencies,
 * branch predictor, storeP FSM buffer) are re-simulated under a
 * *different* MachineParams without re-running the workload — and
 * replaying under the original parameters reproduces the original
 * counters exactly (tested).
 *
 * Translation latencies (POLB/VALB lookups), MMU-front probe delays
 * and the wait of a pointer load on an in-flight storeP are carried
 * as fixed events: parameter sweeps over those structures still need
 * a live run (bench_sens_memory does that); sweeps over cache
 * geometry, memory latency, TLBs, and the predictor work from the
 * trace alone. A trace lives in memory only; there is no file format.
 *
 * TraceEvent is also the record of the runtime's model-event ring
 * (arch/model_companion.hh): the frontend-only kinds below carry the
 * Machine calls a trace records in expanded form (a pointer load, a
 * storeP with its address) and the histogram span marks. A ring
 * record of a carrier kind (MemAccess, PtrLoad, Branch) may also hold
 * a tick the model charges just before the event, and a two-stage
 * companion's memory stage writes an access's latencies into its
 * record for the clock stage; both sit above the kind's own payload,
 * where a recorded trace keeps zeros.
 */

#ifndef UPR_ARCH_TRACE_HH
#define UPR_ARCH_TRACE_HH

#include <vector>

#include "arch/params.hh"
#include "common/types.hh"

namespace upr
{

/** One machine-level event: two words, the kind in b's top byte. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        MemAccess,   //!< a = va; b = (write<<8)|accessKind
        Branch,      //!< a = site; b = taken
        Tick,        //!< a = cycles of fixed-latency work
        StorePIssue, //!< a = rs translation latency; b = rd latency
        // Model-event ring only; a Trace never holds these.
        PtrLoad,     //!< a = va
        StoreP,      //!< a = va; b = rs latency | rd latency << 28
        SpanBegin,   //!< a = Machine::Span
        SpanEnd,     //!< a = Machine::Span
    };

    static constexpr unsigned kKindShift = 56;
    static constexpr std::uint64_t kPayloadMask =
        (std::uint64_t{1} << kKindShift) - 1;

    // Ring-only fields of b, above the 9 bits a MemAccess uses:
    // [9, 26) a carried tick, [26, 36) the MMU-front latency and
    // [36, 56) the TLB + cache latency.
    static constexpr unsigned kCarryShift = 9;
    static constexpr unsigned kFrontShift = 26;
    static constexpr unsigned kAccessShift = 36;
    static constexpr Cycles kCarryMax =
        (Cycles{1} << (kFrontShift - kCarryShift)) - 1;
    static constexpr Cycles kFrontMax =
        (Cycles{1} << (kAccessShift - kFrontShift)) - 1;
    static constexpr Cycles kAccessMax =
        (Cycles{1} << (kKindShift - kAccessShift)) - 1;

    TraceEvent() = default;
    constexpr TraceEvent(Kind k, std::uint64_t a_, std::uint64_t b_ = 0)
        : a(a_), kb((std::uint64_t(k) << kKindShift) | b_)
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
    Cycles frontLatency() const { return (kb >> kFrontShift) & kFrontMax; }
    Cycles accessLatency() const
    {
        return (kb >> kAccessShift) & kAccessMax;
    }

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

/** A recorded event stream. */
class Trace
{
  public:
    /** Append one event (called by the Machine's trace hook). */
    void append(const TraceEvent &e) { events_.push_back(e); }

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
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
