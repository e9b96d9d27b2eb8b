/**
 * @file
 * Fundamental scalar types shared across all uprlib modules.
 *
 * The whole library operates on a *simulated* 48-bit virtual address
 * space (see src/mem/address_space.hh); SimAddr values are addresses in
 * that space, never host pointers.
 */

#ifndef UPR_COMMON_TYPES_HH
#define UPR_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace upr
{

/** An address in the simulated 48-bit virtual address space. */
using SimAddr = std::uint64_t;

/** A raw 64-bit pointer value (may be a virtual or a relative address). */
using PtrBits = std::uint64_t;

/** Identifier of a persistent memory object pool (31 bits used). */
using PoolId = std::uint32_t;

/**
 * Largest pool ID: a relative pointer stores the ID in 31 bits. Valid
 * IDs are 1..kMaxPoolId; 0 is reserved.
 */
constexpr PoolId kMaxPoolId = (1U << 31) - 1;

/** Byte offset within a persistent pool (32 bits used). */
using PoolOffset = std::uint32_t;

/** Simulated processor cycles. */
using Cycles = std::uint64_t;

/** Number of bytes. */
using Bytes = std::uint64_t;

/** The null simulated address; also the null pointer value. */
constexpr SimAddr kNullAddr = 0;

} // namespace upr

#endif // UPR_COMMON_TYPES_HH
