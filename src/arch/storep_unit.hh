/**
 * @file
 * storeP functional-unit timing model (paper Fig 6).
 *
 * The unit owns a buffer of FSM entries (Table II: 32 entries x 16 B).
 * Each in-flight storeP occupies one entry while its Rs (va2ra via
 * VALB) and Rd (ra2va via POLB) translations proceed concurrently;
 * the entry frees when both complete and the store issues to the TLB.
 *
 * Because the unit has its own reservation stations, a storeP's
 * translation latency is *off* the critical path of other
 * instructions: the visible cost at issue is one cycle plus any stall
 * for a free FSM entry. That is exactly why the paper's Fig 14 finds
 * VALB latency to have marginal impact — the latency only shows up as
 * buffer occupancy.
 */

#ifndef UPR_ARCH_STOREP_UNIT_HH
#define UPR_ARCH_STOREP_UNIT_HH

#include <algorithm>
#include <vector>

#include "arch/params.hh"
#include "common/stats.hh"

namespace upr
{

/** FSM-buffer occupancy model for storeP instructions. */
class StorePUnit
{
  public:
    explicit StorePUnit(const MachineParams &params)
        : params_(params),
          completions_(params.storePFsmEntries, 0),
          stats_("storep")
    {
        stats_.registerCounter("issued", issued_,
                               "storeP instructions issued");
        stats_.registerCounter("stallCycles", stallCycles_,
                               "cycles stalled waiting for an FSM entry");
    }

    /**
     * Issue one storeP at cycle @p now.
     *
     * @param now current cycle
     * @param rs_latency Rs translation latency (0 if no conversion)
     * @param rd_latency Rd translation latency (0 if no conversion)
     * @return visible pipeline cost in cycles (issue + entry stall)
     */
    Cycles
    issue(Cycles now, Cycles rs_latency, Cycles rd_latency)
    {
        ++issued_;

        // Find a free entry; if all are busy, stall to the earliest
        // completion time.
        auto it = std::min_element(completions_.begin(),
                                   completions_.end());
        Cycles stall = 0;
        if (*it > now) {
            stall = *it - now;
            stallCycles_.add(stall);
            now = *it;
        }

        // Rs and Rd translate simultaneously (Fig 6); the entry frees
        // when the slower one completes plus the TLB handoff.
        const Cycles xlat = std::max(rs_latency, rd_latency);
        *it = now + params_.storePIssueLatency + xlat;

        return params_.storePIssueLatency + stall;
    }

    /** Zero the counters. */
    void resetStats() { stats_.resetAll(); }

    std::uint64_t issuedCount() const { return issued_.value(); }
    std::uint64_t stallCycles() const { return stallCycles_.value(); }
    const StatGroup &stats() const { return stats_; }

  private:
    const MachineParams &params_;
    /** Completion cycle of the storeP occupying each FSM entry. */
    std::vector<Cycles> completions_;

    StatGroup stats_;
    Counter issued_;
    Counter stallCycles_;
};

} // namespace upr

#endif // UPR_ARCH_STOREP_UNIT_HH
