/**
 * @file
 * The user-transparent persistent pointer representation (paper Fig 2).
 *
 * A pointer is 64 bits — the same width as a conventional pointer, the
 * property that makes user transparency possible:
 *
 *   bit 63 = 0:  virtual address (48 significant bits)
 *                bit 47 = 0 -> object lives on DRAM
 *                bit 47 = 1 -> object lives on NVM
 *   bit 63 = 1:  relative address
 *                bits 62..32 -> 31-bit pool ID
 *                bits 31..0  -> 32-bit intra-pool offset
 *
 * determineY (what format is a pointer *value*) checks bit 63;
 * determineX (where does a *location* live) checks bit 47 of the
 * location's virtual address — never a physical translation.
 */

#ifndef UPR_CORE_POINTER_REPR_HH
#define UPR_CORE_POINTER_REPR_HH

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/address_space.hh"

namespace upr
{

/** determineY result: how the 64 pointer bits must be interpreted. */
enum class PtrForm
{
    /** bit63=0, bit47=0: virtual address of a DRAM object. */
    VirtualDram,
    /** bit63=0, bit47=1: virtual address of an NVM object. */
    VirtualNvm,
    /** bit63=1: relative address {pool ID, offset}. */
    Relative,
};

/** determineX result: which medium a memory *location* is on. */
enum class LocKind
{
    Dram,
    Nvm,
};

/** Static encode/decode helpers over raw pointer bits. */
struct PtrRepr
{
    static constexpr unsigned kFormBit = 63;
    static constexpr unsigned kPoolIdHi = 62;
    static constexpr unsigned kPoolIdLo = 32;
    static constexpr unsigned kOffsetHi = 31;
    static_assert(kMaxPoolId == (1ULL << (kPoolIdHi - kPoolIdLo + 1)) - 1,
                  "kMaxPoolId must fill the pool-ID field exactly");

    /** determineY: classify the 64 bits of a pointer value. */
    static PtrForm
    determineY(PtrBits p)
    {
        if (bit(p, kFormBit))
            return PtrForm::Relative;
        return bit(p, Layout::kNvmBit) ? PtrForm::VirtualNvm
                                       : PtrForm::VirtualDram;
    }

    /** determineX: classify the location at virtual address @p va. */
    static LocKind
    determineX(SimAddr va)
    {
        return Layout::isNvm(va) ? LocKind::Nvm : LocKind::Dram;
    }

    /** True if @p p is in relative-address form. */
    static bool isRelative(PtrBits p) { return bit(p, kFormBit); }

    /** True if @p p is the null pointer (all zero bits). */
    static bool isNull(PtrBits p) { return p == 0; }

    /** Compose a relative address from pool ID and offset. */
    static PtrBits
    makeRelative(PoolId id, PoolOffset off)
    {
        upr_assert_msg(id != 0 && id <= kMaxPoolId,
                       "pool id %u not encodable", id);
        PtrBits p = 0;
        p = setBit(p, kFormBit, true);
        p = insertBits(p, kPoolIdHi, kPoolIdLo, id);
        p = insertBits(p, kOffsetHi, 0, off);
        return p;
    }

    /** Pool ID of a relative address. */
    static PoolId
    poolOf(PtrBits p)
    {
        upr_assert(isRelative(p));
        return static_cast<PoolId>(bitsOf(p, kPoolIdHi, kPoolIdLo));
    }

    /** Intra-pool offset of a relative address. */
    static PoolOffset
    offsetOf(PtrBits p)
    {
        upr_assert(isRelative(p));
        return static_cast<PoolOffset>(bitsOf(p, kOffsetHi, 0));
    }

    /** A virtual address used as a pointer value (bit 63 clear). */
    static PtrBits
    fromVa(SimAddr va)
    {
        upr_assert_msg(va < Layout::kVaEnd,
                       "va 0x%llx exceeds 48 bits",
                       (unsigned long long)va);
        return va;
    }

    /** The virtual address carried by a non-relative pointer. */
    static SimAddr
    toVa(PtrBits p)
    {
        upr_assert(!isRelative(p));
        return p;
    }

    /**
     * Pointer arithmetic on the raw representation: a relative
     * address adjusts its offset field (staying relative, per the
     * Fig 4 additive rows); a virtual address adjusts directly.
     */
    static PtrBits
    addBytes(PtrBits p, std::int64_t delta)
    {
        if (isRelative(p)) {
            const std::int64_t off =
                static_cast<std::int64_t>(offsetOf(p)) + delta;
            upr_assert_msg(off >= 0 && off <= 0xffffffffLL,
                           "relative-pointer arithmetic overflows the "
                           "32-bit offset field");
            return makeRelative(poolOf(p),
                                static_cast<PoolOffset>(off));
        }
        return static_cast<PtrBits>(static_cast<std::int64_t>(p) +
                                    delta);
    }
};

} // namespace upr

#endif // UPR_CORE_POINTER_REPR_HH
