/**
 * @file
 * A formatted pool image whose header names an arbitrary pool ID,
 * resealed so the identity CRC is valid: the image passes every
 * check except, perhaps, the pool-ID range check itself.
 */

#ifndef UPR_TESTS_POOL_IMAGE_HH
#define UPR_TESTS_POOL_IMAGE_HH

#include "mem/address_space.hh"
#include "nvm/pool_manager.hh"

namespace upr::test
{

/** A 1 MiB formatted pool image carrying pool ID @p id. */
inline Backing
imageWithPoolId(PoolId id)
{
    AddressSpace space;
    PoolManager mgr(space, Placement::Sequential, 1);
    Pool &pool = mgr.pool(mgr.createPool("image", 1 << 20));
    PoolHeader h = pool.header();
    h.poolId = id;
    h.identCrc = poolIdentCrc(h);
    pool.setHeader(h);
    Backing image;
    image.assign(pool.backing().raw().toVector());
    return image;
}

} // namespace upr::test

#endif // UPR_TESTS_POOL_IMAGE_HH
