/**
 * @file
 * Machine parameters of the simulated processor (paper Table IV).
 *
 * All latencies are in core cycles at 2.66 GHz. The model is a
 * blocking, in-order timing model (gem5 SimpleCPU-like): each event's
 * latency accumulates into the cycle counter. The paper used an
 * interval simulator; because every compared version executes the same
 * functional access stream and differs only in translation/check
 * events, normalized ratios are preserved under this substitution
 * (see DESIGN.md).
 */

#ifndef UPR_ARCH_PARAMS_HH
#define UPR_ARCH_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace upr
{

/** How the MMU front (POLB/VALB before the TLB) is modeled. */
enum class MmuFrontModel
{
    /** Probe delay not modeled (the calibrated default). */
    None,
    /** Every access pays the probe delay (no prediction). */
    Always,
    /** The bypass predictor skips the delay for non-PMO accesses. */
    Predicted,
};

/** Tunable machine configuration; defaults follow paper Table IV. */
struct MachineParams
{
    // Core ----------------------------------------------------------
    double coreGhz = 2.66;
    Bytes cacheLineBytes = 64;

    /** Branch misprediction penalty (Pentium-M style predictor). */
    Cycles branchMissPenalty = 8;
    /** gshare predictor table entries (power of two). */
    std::uint32_t branchTableEntries = 4096;
    /** gshare global-history bits. */
    unsigned branchHistoryBits = 12;

    // TLBs -----------------------------------------------------------
    std::uint32_t l1TlbEntries = 64;
    std::uint32_t l1TlbWays = 4;
    Cycles l1TlbLatency = 1;

    std::uint32_t l2TlbEntries = 1536;
    std::uint32_t l2TlbWays = 4;
    Cycles l2TlbHitLatency = 7;
    /** Page-table walk cost on full TLB miss. */
    Cycles pageWalkLatency = 30;

    // Caches ---------------------------------------------------------
    Bytes l1Size = 32 * 1024;
    std::uint32_t l1Ways = 8;
    Cycles l1Latency = 4;

    Bytes l2Size = 256 * 1024;
    std::uint32_t l2Ways = 8;
    Cycles l2Latency = 12;

    Bytes l3Size = 2 * 1024 * 1024;
    std::uint32_t l3Ways = 8;
    Cycles l3Latency = 40;

    // Memory ---------------------------------------------------------
    Cycles dramLatency = 120;   //!< 45 ns at 2.66 GHz
    Cycles nvmLatency = 240;

    // UPR hardware structures (paper Table II / Sec V-A) -------------
    std::uint32_t polbEntries = 32;
    Cycles polbHitLatency = 1;
    /** Persistent-object walker (POTB walk) latency. */
    Cycles powLatency = 30;

    std::uint32_t valbEntries = 32;
    Cycles valbHitLatency = 1;
    /** Virtual-address walker (VATB walk) latency. */
    Cycles vawLatency = 30;

    /** storeP FSM buffer entries (Table II). */
    std::uint32_t storePFsmEntries = 32;

    /**
     * MMU-front modeling: the POLB/VALB probe ahead of the TLB,
     * optionally hidden by the non-PMO bypass predictor (the paper's
     * future work; see arch/bypass.hh). None keeps the calibrated
     * behaviour; the Runtime forces None for the Volatile and Sw
     * versions, which have no POLB/VALB.
     */
    MmuFrontModel mmuFront = MmuFrontModel::None;
    /**
     * POLB/VALB probe delay in front of the TLB (Sec V-A notes the
     * structures "add small delay to the critical path"); applied
     * per access when mmuFront is Always or Predicted.
     */
    Cycles mmuFrontDelay = 1;
    /** Bypass-predictor table entries (power of two). */
    std::uint32_t bypassEntries = 1024;
    /** storeP issue overhead beyond its translations. */
    Cycles storePIssueLatency = 1;

    // Software-check cost model (SW version, Sec V-B) ----------------
    /** ALU work of one determineX/determineY bit test. */
    Cycles swCheckAluLatency = 2;
    /** Straight-line overhead of a software ra2va/va2ra call. */
    Cycles swConvertLatency = 14;
    /**
     * Data-dependent branches inside the software conversion's pool
     * lookup (hash probe / binary search over pool ranges). Their
     * outcomes follow address bits, making them hard to predict —
     * the source of the SW version's misprediction blow-up (Fig 13).
     */
    unsigned swConvertBranches = 2;
    /** Explicit-API per-access software overhead [26] baseline. */
    Cycles explicitApiLatency = 2;

    /** Modeled cost of one allocator call (identical all versions). */
    Cycles allocatorLatency = 100;

    /** Modeled cost of one undo-log append inside a transaction. */
    Cycles txnLogLatency = 20;

    /**
     * Entries in the HW version's conversion-reuse model: converted
     * ra2va results parked in registers/compiler temporaries and
     * reused instead of re-translated (paper Fig 12). Power of two.
     */
    std::uint32_t reuseBufferEntries = 64;
};

} // namespace upr

#endif // UPR_ARCH_PARAMS_HH
