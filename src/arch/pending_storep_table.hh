/**
 * @file
 * In-flight storeP completions by cache line (HW version): the map a
 * pointer load consults to see whether it depends on a storeP whose
 * translation is still in the FSM buffer (paper Table I).
 */

#ifndef UPR_ARCH_PENDING_STOREP_TABLE_HH
#define UPR_ARCH_PENDING_STOREP_TABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace upr
{

/**
 * Fixed-capacity open-addressing map from cache line to storeP
 * completion cycle. It holds the same contents at every step as the
 * std::unordered_map it replaces: put inserts or overwrites, take
 * erases, and an insert that leaves more than kMaxLive entries drops
 * them all (they are stale, long since done). Dependent-load timing
 * therefore depends only on those contents and is bit-exact with the
 * map.
 *
 * Collisions probe linearly and an erase shifts the rest of its
 * cluster back (no tombstones), so a cluster only ever holds live
 * entries. A one-bit-per-slot occupancy bitmap answers the common
 * case, a line that is absent from the table, with one word.
 */
class PendingStorePTable
{
  public:
    /** Slots; a power of two, twice kMaxLive, so probes stay short. */
    static constexpr std::size_t kCapacity = 8192;
    /** Live entries past which put() clears the table. */
    static constexpr std::size_t kMaxLive = 4096;

    PendingStorePTable() : slots_(kCapacity) {}

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /** Insert or overwrite the completion cycle for @p line. */
    void
    put(SimAddr line, Cycles deadline)
    {
        std::size_t i = homeOf(line);
        for (; occupied(i); i = next(i)) {
            if (slots_[i].line == line) {
                slots_[i].deadline = deadline;
                return;
            }
        }
        slots_[i] = Slot{line, deadline};
        occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
        if (++live_ > kMaxLive)
            clear();
    }

    /** Remove @p line if present; its deadline goes to @p out. */
    bool
    take(SimAddr line, Cycles &out)
    {
        for (std::size_t i = homeOf(line); occupied(i); i = next(i)) {
            if (slots_[i].line == line) {
                out = slots_[i].deadline;
                erase(i);
                return true;
            }
        }
        return false;
    }

    void
    clear()
    {
        occupied_.fill(0);
        live_ = 0;
    }

    /** Slot @p line hashes to, where its probe starts. */
    static std::size_t
    homeOf(SimAddr line)
    {
        static_assert(kCapacity == std::size_t{1} << 13);
        return (line * 0x9E3779B97F4A7C15ULL) >> (64 - 13);
    }

  private:
    struct Slot
    {
        SimAddr line = 0;
        Cycles deadline = 0;
    };

    static std::size_t
    next(std::size_t i)
    {
        return (i + 1) & (kCapacity - 1);
    }

    bool
    occupied(std::size_t i) const
    {
        return (occupied_[i / 64] >> (i % 64)) & 1;
    }

    /**
     * Backward-shift deletion: walk the cluster after the hole and
     * move back every entry whose home slot does not lie after the
     * hole (cyclically), so each entry stays reachable from its home
     * by an unbroken run of occupied slots.
     */
    void
    erase(std::size_t hole)
    {
        for (std::size_t j = next(hole); occupied(j); j = next(j)) {
            const std::size_t home = homeOf(slots_[j].line);
            if (((j - home) & (kCapacity - 1)) >=
                ((j - hole) & (kCapacity - 1))) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        occupied_[hole / 64] &= ~(std::uint64_t{1} << (hole % 64));
        --live_;
    }

    std::vector<Slot> slots_;
    std::array<std::uint64_t, kCapacity / 64> occupied_{};
    std::size_t live_ = 0;
};

} // namespace upr

#endif // UPR_ARCH_PENDING_STOREP_TABLE_HH
