/**
 * @file
 * A persistent memory object pool (PMOP).
 *
 * A pool is the unit of persistence and relocation: it owns a Backing
 * whose first kHeaderSize bytes are a persistent header, followed by an
 * allocation arena managed by PoolAllocator. Everything the pool needs
 * to be reopened — allocator free list, root object offset, undo log —
 * lives *inside* the backing, expressed as pool-relative offsets, so a
 * saved pool image is a complete, relocatable object graph.
 */

#ifndef UPR_NVM_POOL_HH
#define UPR_NVM_POOL_HH

#include <string>

#include "common/fault.hh"
#include "common/types.hh"
#include "mem/backing.hh"

namespace upr
{

/**
 * Which transaction engine a pool's log region speaks. Persisted in
 * the pool header (PoolHeader::engine) so an image always knows how
 * its log must be parsed; recovery, check/repair, and the crash
 * sweeps dispatch on it (see nvm/engine.hh).
 */
enum class EngineKind : std::uint32_t
{
    /** Write-ahead undo log: pre-images logged, rollback on crash. */
    Undo = 0,
    /**
     * Redo journal: new-values staged in DRAM, journaled at commit,
     * replayed forward on crash (supports group commit).
     */
    Redo = 1,
};

/** Stable printable name of an engine kind. */
inline const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Undo: return "undo";
      case EngineKind::Redo: return "redo";
    }
    return "unknown";
}

/**
 * Persistent pool header, stored at offset 0 of the pool backing.
 * All members are fixed-width and offset-based (no virtual addresses).
 */
struct PoolHeader
{
    static constexpr std::uint64_t kMagic = 0x5550'525f'504f'4f4cULL;
    /**
     * Image format version. v2 dropped the dead logTail/logActive
     * fields (log state lives in the log area's control block; see
     * Txn); v3 added identCrc over the immutable identity fields.
     * Older images are rejected on open.
     */
    static constexpr std::uint32_t kVersion = 3;

    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t poolId;
    std::uint64_t size;          //!< total pool size in bytes
    std::uint64_t rootOff;       //!< user root object offset (0 = none)
    std::uint64_t freeHead;      //!< allocator free-list head offset
    std::uint64_t usedBytes;     //!< live payload bytes
    std::uint64_t arenaStart;    //!< first allocatable offset
    std::uint64_t logStart;      //!< undo-log area offset
    std::uint64_t logSize;       //!< undo-log area size in bytes
    /**
     * CRC32 over the *immutable* identity fields only (magic,
     * version, poolId, size, arenaStart, logStart, logSize) — never
     * over rootOff/freeHead/usedBytes, which are rewritten on every
     * commit point: the header spans two cache lines, so a crash
     * under a relaxed retention model can legitimately mix an old and
     * a new header write, and a whole-header CRC would flag those
     * recoverable images as media damage. The identity fields are
     * written once at format time; any later mismatch *is* media
     * damage, localized to the header.
     */
    std::uint32_t identCrc;
    /**
     * Transaction engine of the log region (EngineKind value; was a
     * reserved pad, so every pre-engine image reads back as Undo).
     * Folded into identCrc only when non-zero: undo images stay
     * bit-identical to the pre-engine format, while a redo pool's
     * engine field is CRC-protected — a flip in either direction
     * breaks the identity checksum.
     */
    std::uint32_t engine;
};

static_assert(sizeof(PoolHeader) == 80);

/** CRC32 over the immutable identity fields of @p h (see identCrc). */
std::uint32_t poolIdentCrc(const PoolHeader &h);

/**
 * Why the identity and geometry fields of @p h cannot describe a pool
 * image of @p image_size bytes, or "" when they can: magic, version,
 * size, pool ID (1..kMaxPoolId), log/arena geometry and engine. The
 * one header check behind both the adopt constructor and checkPool.
 */
std::string poolHeaderProblem(const PoolHeader &h, Bytes image_size);

/**
 * The in-memory handle for one pool. Attachment state (the virtual
 * address it is currently mapped at, if any) is tracked by PoolManager,
 * not here: a Pool object persists across detach/attach cycles.
 */
class Pool
{
  public:
    /** Byte size reserved for the header (arena starts here). */
    static constexpr Bytes kHeaderSize = 128;
    /** Default undo-log area size. */
    static constexpr Bytes kDefaultLogSize = 512 * 1024;
    /** Pools are offset-addressed with 32 bits: hard size cap. */
    static constexpr Bytes kMaxSize = 1ULL << 32;

    /**
     * Create and format a new pool.
     *
     * @param id pool ID assigned by the manager (non-zero)
     * @param name user-visible pool name
     * @param size total size in bytes (header + log + arena)
     * @param engine transaction engine the pool's log region speaks
     */
    Pool(PoolId id, std::string name, Bytes size,
         EngineKind engine = EngineKind::Undo);

    /**
     * Adopt an existing image (reopen path). The header is fully
     * validated: poolHeaderProblem, the mutable fields' ranges and
     * the identity CRC.
     * @throws Fault{CorruptPool} if any header field is implausible
     */
    Pool(std::string name, Backing image);

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;
    Pool(Pool &&) = default;
    Pool &operator=(Pool &&) = default;

    /** Pool ID (stable across reopen). */
    PoolId id() const { return header().poolId; }

    /** User-visible name. */
    const std::string &name() const { return name_; }

    /** Total pool size in bytes. */
    Bytes size() const { return header().size; }

    /** Root object offset (0 if unset). */
    PoolOffset rootOff() const
    {
        return static_cast<PoolOffset>(header().rootOff);
    }

    /** Transaction engine of the pool's log region. */
    EngineKind engineKind() const
    {
        return static_cast<EngineKind>(header().engine);
    }

    /** Set the root object offset. */
    void setRootOff(PoolOffset off);

    /** The pool's byte storage. */
    Backing &backing() { return backing_; }
    const Backing &backing() const { return backing_; }

    /** Read the header out of the backing. */
    PoolHeader header() const;

    /** Write the header back to the backing. */
    void setHeader(const PoolHeader &h);

  private:
    std::string name_;
    Backing backing_;
};

} // namespace upr

#endif // UPR_NVM_POOL_HH
