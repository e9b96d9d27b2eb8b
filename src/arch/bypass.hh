/**
 * @file
 * Non-PMO bypass predictor — the paper's stated future work:
 *
 *   "The POLB and VALB are accessed prior to the TLB hence they add
 *    small delay to the critical path of address translation in the
 *    MMU ... Some prediction mechanisms can be deployed to
 *    accelerate this, to predict non-PMO accesses that bypass the
 *    POLB/VALB, but we leave this out for future work."
 *
 * This implements that mechanism: a table of 2-bit counters indexed
 * by a hash of the page number predicts whether an access targets a
 * persistent memory object (NVM half). A confident "non-PMO"
 * prediction skips the POLB/VALB front delay; a misprediction pays
 * the delay twice (the pipeline replays the translation).
 */

#ifndef UPR_ARCH_BYPASS_HH
#define UPR_ARCH_BYPASS_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_space.hh"

namespace upr
{

/** Page-granular PMO/non-PMO predictor (2-bit counters). */
class BypassPredictor
{
  public:
    explicit BypassPredictor(std::uint32_t entries = 1024)
        : mask_(entries - 1), table_(entries, 1 /* weak non-PMO */),
          stats_("bypass")
    {
        stats_.registerCounter("predictions", predictions_,
                               "bypass predictions made");
        stats_.registerCounter("mispredicts", mispredicts_,
                               "PMO-ness mispredictions");
        stats_.registerCounter("bypassed", bypassed_,
                               "accesses that skipped the MMU front");
    }

    /**
     * Predict-and-update for one access.
     *
     * @param va the access address (truth = bit 47)
     * @param front_delay the POLB/VALB probe delay
     * @return extra cycles this access pays at the MMU front
     */
    Cycles
    access(SimAddr va, Cycles front_delay)
    {
        ++predictions_;
        // Strong avalanche so the NVM-half bit (bit 35 of the page
        // number) influences the index — DRAM/NVM twins must not
        // alias into one counter.
        std::uint64_t h = va / Layout::kPageSize;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 29;
        const std::size_t idx = static_cast<std::size_t>(h & mask_);
        std::uint8_t &ctr = table_[idx];
        const bool predict_pmo = ctr >= 2;
        const bool is_pmo = Layout::isNvm(va);

        if (is_pmo && ctr < 3)
            ++ctr;
        else if (!is_pmo && ctr > 0)
            --ctr;

        if (predict_pmo == is_pmo) {
            if (!is_pmo) {
                ++bypassed_;
                return 0; // correctly bypassed the front
            }
            return front_delay; // PMO access: probe is needed
        }
        ++mispredicts_;
        // Wrong either way: the pipeline replays the translation.
        return 2 * front_delay;
    }

    /** Zero the counters (table stays trained). */
    void resetStats() { stats_.resetAll(); }

    std::uint64_t bypassed() const { return bypassed_.value(); }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    const StatGroup &stats() const { return stats_; }

  private:
    std::uint64_t mask_;
    std::vector<std::uint8_t> table_;

    StatGroup stats_;
    Counter predictions_;
    Counter mispredicts_;
    Counter bypassed_;
};

} // namespace upr

#endif // UPR_ARCH_BYPASS_HH
