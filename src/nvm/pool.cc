#include "nvm/pool.hh"

#include "common/bits.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "nvm/txn.hh"

namespace upr
{

std::uint32_t
poolIdentCrc(const PoolHeader &h)
{
    std::uint32_t crc = crc32(&h.magic, sizeof(h.magic));
    crc = crc32Update(crc, &h.version, sizeof(h.version));
    crc = crc32Update(crc, &h.poolId, sizeof(h.poolId));
    crc = crc32Update(crc, &h.size, sizeof(h.size));
    crc = crc32Update(crc, &h.arenaStart, sizeof(h.arenaStart));
    crc = crc32Update(crc, &h.logStart, sizeof(h.logStart));
    crc = crc32Update(crc, &h.logSize, sizeof(h.logSize));
    // The engine field joined the identity late; folding it only when
    // non-zero keeps every undo (engine = 0) image bit-identical to
    // the pre-engine format while still CRC-protecting redo pools:
    // a 0 -> nonzero flip changes the input set, a nonzero -> 0 flip
    // removes it, and both break the checksum.
    if (h.engine != 0)
        crc = crc32Update(crc, &h.engine, sizeof(h.engine));
    return crc;
}

std::string
poolHeaderProblem(const PoolHeader &h, Bytes image_size)
{
    if (h.magic != PoolHeader::kMagic)
        return "bad magic";
    if (h.version != PoolHeader::kVersion)
        return "unsupported version " + std::to_string(h.version) +
               ", expected " + std::to_string(PoolHeader::kVersion);
    if (h.size != image_size)
        return "size field disagrees with image length";
    if (h.size > Pool::kMaxSize)
        return "impossible size";
    // 0 is reserved, and a relative pointer holds only 31 bits of ID:
    // a larger one could never be stored into the pool's own objects.
    if (h.poolId == 0 || h.poolId > kMaxPoolId)
        return "impossible pool id " + std::to_string(h.poolId);
    // Geometry: header, then log area, then 16-byte-aligned arena,
    // all strictly inside the pool. Every later module (allocator,
    // undo log) trusts these bounds, so garbage here would otherwise
    // turn into wild offset arithmetic.
    if (h.logStart < sizeof(PoolHeader) || h.logSize < 64 ||
        h.logStart + h.logSize < h.logStart ||
        h.logStart + h.logSize > h.arenaStart ||
        h.arenaStart % 16 != 0 || h.arenaStart >= h.size)
        return "corrupt log/arena geometry";
    if (h.engine > static_cast<std::uint32_t>(EngineKind::Redo))
        return "unknown transaction engine " + std::to_string(h.engine);
    return "";
}

Pool::Pool(PoolId id, std::string name, Bytes size, EngineKind engine)
    : name_(std::move(name)), backing_(size)
{
    upr_assert_msg(id != 0 && id <= kMaxPoolId,
                   "pool id %u: 0 is reserved, IDs end at kMaxPoolId",
                   id);
    if (size > kMaxSize) {
        throw Fault(FaultKind::BadUsage,
                    "pool size exceeds 32-bit offset range");
    }
    // Undo-log area scales with the pool: 1/16th of the pool,
    // clamped to [8 KiB, kDefaultLogSize].
    Bytes log_size = size / 16;
    if (log_size < 8 * 1024)
        log_size = 8 * 1024;
    if (log_size > kDefaultLogSize)
        log_size = kDefaultLogSize;
    if (size < kHeaderSize + log_size + 4096) {
        throw Fault(FaultKind::BadUsage, "pool size too small");
    }

    PoolHeader h = {};
    h.magic = PoolHeader::kMagic;
    h.version = PoolHeader::kVersion;
    h.poolId = id;
    h.size = size;
    h.rootOff = 0;
    h.freeHead = 0;
    h.usedBytes = 0;
    h.logStart = kHeaderSize;
    h.logSize = log_size;
    h.arenaStart = roundUp(kHeaderSize + log_size, 16);
    h.engine = static_cast<std::uint32_t>(engine);
    h.identCrc = poolIdentCrc(h);
    setHeader(h);
    // The log control block carries its own checksum; a fresh pool
    // must be sealed as "no transaction pending" or recovery would
    // read the zeroed area as media damage. The sealed empty control
    // block is engine-independent (both engines share the wire
    // format), so the undo formatter serves redo pools too.
    Txn::formatLog(*this);
}

Pool::Pool(std::string name, Backing image)
    : name_(std::move(name)), backing_(std::move(image))
{
    if (backing_.size() < sizeof(PoolHeader)) {
        throw Fault(FaultKind::CorruptPool,
                    "image '" + name_ + "' smaller than a pool header");
    }
    const PoolHeader h = header();
    const std::string problem = poolHeaderProblem(h, backing_.size());
    if (!problem.empty()) {
        throw Fault(FaultKind::CorruptPool,
                    "image '" + name_ + "': " + problem);
    }
    if (h.rootOff >= h.size || h.freeHead >= h.size ||
        h.usedBytes > h.size) {
        throw Fault(FaultKind::CorruptPool,
                    "image '" + name_ + "' has out-of-range root, "
                    "free-list, or usage fields");
    }
    if (h.identCrc != poolIdentCrc(h)) {
        throw Fault(FaultKind::CorruptPool,
                    "image '" + name_ + "' fails the header identity "
                    "checksum (media damage in the header block)");
    }
}

void
Pool::setRootOff(PoolOffset off)
{
    PoolHeader h = header();
    h.rootOff = off;
    setHeader(h);
}

PoolHeader
Pool::header() const
{
    PoolHeader h;
    backing_.read(0, &h, sizeof(h));
    return h;
}

void
Pool::setHeader(const PoolHeader &h)
{
    // The header is a durability commit point: allocator free-list
    // and root-object publication must survive a crash that follows.
    backing_.write(0, &h, sizeof(h));
    backing_.flush(0, sizeof(h));
    backing_.fence();
}

} // namespace upr
