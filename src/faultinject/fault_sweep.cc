#include "faultinject/fault_sweep.hh"

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "faultinject/fault_stats.hh"
#include "mem/address_space.hh"
#include "nvm/pool_manager.hh"
#include "nvm/engine.hh"
#include "nvm/txn.hh"

namespace upr
{

namespace
{

/** One sweep coordinate, printed whenever an invariant fails. */
struct Coord
{
    std::uint64_t point;
    CrashMode mode;
    MediaFaultKind kind;
    FaultRegion region;
    std::uint64_t seed;
};

/**
 * Straight to stderr, not the log sink: fault sweeps run with
 * warnings silenced (every classification spews torn-log warnings),
 * and this line is the whole point of a reproducible failure.
 */
void
banner(const Coord &c, const char *why)
{
    std::fprintf(stderr,
                 "fault sweep FAILED at point %llu (mode %s, "
                 "fault %s, region %s, seed %llu): %s\n"
                 "replay with: UPR_CRASH_SEED=%llu <this test>\n",
                 (unsigned long long)c.point, crashModeName(c.mode),
                 mediaFaultKindName(c.kind), faultRegionName(c.region),
                 (unsigned long long)c.seed, why,
                 (unsigned long long)c.seed);
}

} // namespace

FaultSweepResult
faultSweep(const CrashWorkload &workload,
           const FaultValidator &contentValid,
           const FaultSweepConfig &config)
{
    const std::uint64_t stride = config.pointStride ? config.pointStride
                                                    : 1;
    FaultSweepResult result;
    // Reused across every classification: the live workload holds the
    // heap top, so a pool-sized vector allocated and freed per
    // classification would be returned to (and refetched from) the
    // OS every time.
    std::vector<std::uint8_t> recovered, damaged, served;

    const auto check = [&](const CrashInjector &injector,
                           std::uint64_t n, unsigned) {
        if ((n - 1) % stride != 0)
            return;
        const std::uint64_t seed = injector.seed();
        const std::vector<std::uint8_t> &image = injector.image();
        const std::vector<std::uint8_t> &strict = injector.strictImage();
        ++result.crashPointsSampled;

        // Control leg: the UNcorrupted image must open clean — any
        // other outcome means the sweep would blame the checker for
        // damage it never injected.
        {
            AddressSpace space;
            PoolManager mgr(space, Placement::Sequential, seed);
            Backing fb;
            fb.assign(image);
            const ResilientOpenReport rep =
                mgr.openResilient(std::move(fb), "control");
            if (rep.outcome != OpenOutcome::Clean &&
                rep.outcome != OpenOutcome::Recovered) {
                throw Fault(FaultKind::CorruptPool,
                            "fault sweep control image at point " +
                            std::to_string(n) + " opened as '" +
                            openOutcomeName(rep.outcome) + "'");
            }
        }

        // Header and arena targets come from a *recovered* copy: the
        // crash image is legitimately mid-transaction, and a tag walk
        // over it would aim faults at payload bytes that recovery is
        // about to overwrite — silently weakening the sweep. Undo-log
        // targets come from the crash image itself (recovery
        // truncates the log).
        {
            Backing rb;
            rb.assign(image);
            Pool ref("ref", std::move(rb));
            TxnEngine::recover(ref);
            const ByteStore &raw = ref.backing().raw();
            recovered.assign(raw.data(), raw.data() + raw.size());
        }

        for (std::size_t k = 0; k < kMediaFaultKinds; ++k) {
            for (std::size_t r = 0; r < kFaultRegions; ++r) {
                MediaFaultSpec spec;
                spec.kind = static_cast<MediaFaultKind>(k);
                spec.region = static_cast<FaultRegion>(r);
                spec.seed = seed ^ (n * 0x9E37'79B9'7F4A'7C15ULL) ^
                            (k * 0x0000'0100'0000'01B3ULL) ^
                            (r * 0x1000'0193ULL);
                const Coord coord{n, config.mode, spec.kind,
                                  spec.region, seed};

                const std::vector<Bytes> targets =
                    MediaFaultModel::targets(
                        spec.region == FaultRegion::UndoLog ? image
                                                            : recovered,
                        spec.region);

                damaged = image;
                const MediaFaultModel model(spec);
                if (model.corrupt(damaged, strict, targets).empty()) {
                    ++result.noEffect;
                    continue;
                }
                ++result.injections;

                // Fresh fleet per classification. The damaged image
                // adopts first (its header claims a pool ID; a
                // sibling created before it would race for the same
                // one), then a sibling pool joins the fleet and must
                // keep serving regardless of what the image did.
                AddressSpace space;
                PoolManager mgr(space, Placement::Sequential, seed);

                Backing fb;
                fb.assign(damaged);
                const ResilientOpenReport rep =
                    mgr.openResilient(std::move(fb), "uut");
                const PoolId sibling =
                    mgr.createPool("sibling", config.siblingSize);

                switch (rep.outcome) {
                  case OpenOutcome::Rejected:
                    ++result.rejected;
                    break;
                  case OpenOutcome::Quarantined: {
                    bool refused = false;
                    try {
                        mgr.pmalloc(rep.id, 16);
                    } catch (const Fault &f) {
                        refused =
                            f.kind() == FaultKind::PoolQuarantined;
                    }
                    if (refused) {
                        ++result.quarantined;
                    } else {
                        ++result.silent;
                        banner(coord,
                               "quarantined pool accepted a write");
                    }
                    break;
                  }
                  case OpenOutcome::Clean:
                  case OpenOutcome::Recovered:
                  case OpenOutcome::Repaired: {
                    // Served read-write: the contents must be a state
                    // a pure crash could have produced. Anything else
                    // is the one unforgivable outcome.
                    const ByteStore &raw = mgr.pool(rep.id).backing().raw();
                    served.assign(raw.data(), raw.data() + raw.size());
                    if (!contentValid(served, n)) {
                        ++result.silent;
                        banner(coord, "served pool fails content "
                                      "validation");
                    } else if (rep.outcome == OpenOutcome::Repaired) {
                        ++result.repaired;
                    } else {
                        ++result.benign;
                        FaultStats::instance().benign.add(1);
                    }
                    break;
                  }
                }

                // Fleet containment: the sibling keeps serving.
                try {
                    mgr.pmalloc(sibling, 64);
                } catch (const Fault &) {
                    ++result.containment;
                    banner(coord, "sibling pool stopped serving");
                }
            }
        }
    };

    crashSweep(workload, check, {config.mode, config.seed});
    return result;
}

} // namespace upr
