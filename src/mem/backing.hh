/**
 * @file
 * Byte storage backing a mapped region of the simulated address space.
 *
 * Backings are the "physical" storage of the simulation. A Backing can
 * outlive its mapping: persistent pools keep their Backing alive while
 * detached, and map it again (possibly at a different virtual address)
 * on reopen — that is what makes pool relocation real in this codebase.
 *
 * ## Persistence domain
 *
 * By default every write is instantly durable — fine for volatile
 * heaps and for functional tests, but it hides the failure modes real
 * NVM has: a cache line that never left the CPU caches is *gone* after
 * a crash, and write-back order is not program order. Enabling the
 * persistence domain (enablePersistenceDomain()) distinguishes
 *
 *   - the *live* bytes: what reads and writes see (CPU caches);
 *   - the *media* bytes: what survives a crash (the NVM).
 *
 * Only lines written since their last fence can differ, so only those
 * carry state: when a write first dirties a clean line, the line's
 * current (= media) bytes are saved in its pending record, and the
 * live bytes take the write. flush(off, len) stages the covered lines
 * for write-back (CLWB); fence() completes all staged write-backs
 * (SFENCE) by dropping their records — their media now equals their
 * live bytes. A line with no record has identical media and live
 * bytes, so enabling the domain and fencing copy nothing. crashImage()
 * materializes what a crash at this instant would leave on media: the
 * live bytes, with every pending line the retention mode does not
 * keep rolled back to its saved media bytes:
 *
 *   - CrashMode::DiscardUnfenced — only fenced lines survive (the
 *     strictest schedule: nothing in flight makes it out);
 *   - CrashMode::RetainRandom — each unfenced line *independently*
 *     survives with probability 1/2, modeling write-back reordering
 *     and torn multi-line stores;
 *   - CrashMode::RetainEpoch — epoch persistency (Wang/Tuck PDRM):
 *     lines written before the most recent fence survive even when
 *     never flushed;
 *   - CrashMode::RetainBoundedStale — the media lags program order by
 *     at most kStaleBound epochs: older pending lines are guaranteed
 *     durable, younger ones flip a per-line coin.
 *
 * Lines are the atomicity unit of the model (real NVM guarantees
 * 8-byte atomic writes; we use the coarser line so torn stores are
 * *more* hostile, not less).
 */

#ifndef UPR_MEM_BACKING_HH
#define UPR_MEM_BACKING_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/mman.h>
#define UPR_BYTESTORE_MMAP 1
#endif

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace upr
{

/**
 * Zero-on-demand byte buffer backing the simulated "physical" storage.
 *
 * Pools are created at their full size (hundreds of MB) but benchmarks
 * touch only a sliver of them; an eagerly zeroed std::vector pays a
 * full memset plus page faults per pool. ByteStore instead maps
 * anonymous pages, so untouched bytes are shared zero pages that cost
 * nothing until first write — identical observable content (reads of
 * never-written bytes return 0, exactly like the zeroed vector), much
 * cheaper construction. Falls back to a heap allocation when mmap is
 * unavailable.
 */
class ByteStore
{
  public:
    ByteStore() = default;

    explicit ByteStore(Bytes size) { allocate(size); }

    ByteStore(const ByteStore &other)
    {
        allocate(other.size_);
        copyNonZeroPages(other.data_, size_);
    }

    ByteStore &
    operator=(const ByteStore &other)
    {
        if (this != &other) {
            ByteStore copy(other);
            swap(copy);
        }
        return *this;
    }

    ByteStore(ByteStore &&other) noexcept { swap(other); }

    ByteStore &
    operator=(ByteStore &&other) noexcept
    {
        if (this != &other) {
            release();
            swap(other);
        }
        return *this;
    }

    ~ByteStore() { release(); }

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    Bytes size() const { return size_; }

    std::uint8_t &operator[](Bytes i) { return data_[i]; }
    const std::uint8_t &operator[](Bytes i) const { return data_[i]; }

    /**
     * Grow to @p new_size, preserving content, zero-filling the tail.
     * Growth touches no page that was never written, so a mostly
     * empty store grows at no resident cost: on Linux the mapping is
     * moved and extended by mremap, elsewhere only non-zero pages are
     * copied.
     */
    void
    resize(Bytes new_size)
    {
        if (new_size <= size_) {
            size_ = new_size;
            return;
        }
#if defined(__linux__)
        if (mapBytes_ > 0) {
            const Bytes mapped = std::min(mapBytes_, new_size);
            if (new_size > mapBytes_) {
                void *p = ::mremap(data_, mapBytes_, new_size,
                                   MREMAP_MAYMOVE);
                if (p == MAP_FAILED) {
                    throw Fault(FaultKind::BadUsage,
                                "cannot grow backing storage");
                }
                data_ = static_cast<std::uint8_t *>(p);
                mapBytes_ = new_size;
            }
            // Bytes an earlier shrink left in the mapping read as zero
            // again; the extension is zero already.
            std::memset(data_ + size_, 0, mapped - size_);
            size_ = new_size;
            return;
        }
#endif
        ByteStore grown(new_size);
        grown.copyNonZeroPages(data_, size_);
        swap(grown);
    }

    /** Copy out as a plain vector (serialization, crash images). */
    std::vector<std::uint8_t>
    toVector() const
    {
        return std::vector<std::uint8_t>(data_, data_ + size_);
    }

    void
    swap(ByteStore &other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        std::swap(mapBytes_, other.mapBytes_);
    }

    /**
     * Copy @p n bytes of @p src to the start of this freshly
     * allocated (all-zero) store, skipping every 4 KiB page of @p src
     * that is all zero: those already read as zero here and stay
     * unmapped, so copying a mostly empty pool image costs resident
     * memory only for its written pages. The content is identical to
     * a plain memcpy.
     */
    void
    copyNonZeroPages(const std::uint8_t *src, Bytes n)
    {
        constexpr Bytes kPage = 4096;
        for (Bytes off = 0; off < n; off += kPage) {
            const std::uint8_t *p = src + off;
            const Bytes len = std::min(kPage, n - off);
            if (p[0] != 0 || std::memcmp(p, p + 1, len - 1) != 0)
                std::memcpy(data_ + off, p, len);
        }
    }

  private:
    void
    allocate(Bytes size)
    {
        size_ = size;
        if (size == 0) {
            data_ = nullptr;
            mapBytes_ = 0;
            return;
        }
#ifdef UPR_BYTESTORE_MMAP
        mapBytes_ = size;
        void *p = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            throw Fault(FaultKind::BadUsage,
                        "cannot map backing storage");
        }
        data_ = static_cast<std::uint8_t *>(p);
#else
        mapBytes_ = 0;
        data_ = static_cast<std::uint8_t *>(std::calloc(size, 1));
        if (!data_) {
            throw Fault(FaultKind::BadUsage,
                        "cannot allocate backing storage");
        }
#endif
    }

    void
    release() noexcept
    {
        if (!data_)
            return;
#ifdef UPR_BYTESTORE_MMAP
        ::munmap(data_, mapBytes_);
#else
        std::free(data_);
#endif
        data_ = nullptr;
        size_ = 0;
        mapBytes_ = 0;
    }

    std::uint8_t *data_ = nullptr;
    Bytes size_ = 0;
    /** Bytes actually mapped (may exceed size_ after a shrink). */
    Bytes mapBytes_ = 0;
};

/**
 * What a crash leaves of the unfenced lines — the persistent data
 * retention model of the media (Wang/Tuck PDRM). Epochs are delimited
 * by fence(): every fence closes the current epoch and opens the next.
 */
enum class CrashMode
{
    /** Unfenced lines are lost; only fenced data survives. */
    DiscardUnfenced,
    /**
     * Each unfenced line independently survives with p = 1/2:
     * write-back reordering and torn multi-line stores.
     */
    RetainRandom,
    /**
     * Epoch persistency: lines written before the most recent fence
     * survive even when never flushed (completed epochs drain to
     * media on their own); only current-epoch writes are lost.
     */
    RetainEpoch,
    /**
     * Bounded staleness: the media lags program order by at most
     * Backing::kStaleBound epochs. Pending lines older than the bound
     * are guaranteed durable; younger ones survive with p = 1/2.
     */
    RetainBoundedStale,
};

/** Stable printable name of a crash/retention mode. */
inline const char *
crashModeName(CrashMode mode)
{
    switch (mode) {
      case CrashMode::DiscardUnfenced:    return "discard-unfenced";
      case CrashMode::RetainRandom:       return "retain-random";
      case CrashMode::RetainEpoch:        return "retain-epoch";
      case CrashMode::RetainBoundedStale: return "retain-bounded-stale";
    }
    return "unknown";
}

/** One persistence event, as seen by a CrashInjector. */
enum class PersistEvent
{
    Write, //!< a store into the backing
    Flush, //!< flush(): lines staged for write-back
    Fence, //!< fence(): staged lines reached the durable image
};

/**
 * A DRAM staging buffer for redo-style transactions: while installed
 * on a Backing (setWriteStage), every write is captured here instead
 * of reaching the backing bytes, and reads overlay the staged bytes
 * on top of the backing content. Staged bytes are *volatile by
 * construction* — they are not part of the persistence domain, emit
 * no persistence events, and vanish at a crash — which is exactly the
 * durability contract of an uncommitted redo transaction.
 *
 * Stages nest one level via @c under (a transaction stage layered
 * over a group-commit batch stage): reads see the top stage over the
 * under stage over the media.
 */
struct WriteStage
{
    /** Absolute byte offset -> staged value (sparse, ordered). */
    std::map<Bytes, std::uint8_t> bytes;
    /** Older stage this one shadows (read-through), or nullptr. */
    const WriteStage *under = nullptr;
};

/** A contiguous, resizable byte store. */
class Backing
{
  public:
    /** Cache-line granularity of the persistence domain. */
    static constexpr Bytes kLineBytes = 64;

    /**
     * Staleness bound of CrashMode::RetainBoundedStale, in epochs: a
     * pending line at least this many fences old is guaranteed on
     * media at a crash.
     */
    static constexpr std::uint64_t kStaleBound = 2;

    /** Create a backing of @p size zeroed bytes. */
    explicit Backing(Bytes size = 0) : bytes_(size) {}

    /**
     * Copy: duplicates the bytes and the persistence-domain state
     * (pending lines with their media bytes, epoch, read-only flag)
     * but NOT the observers or an installed write stage — a copy is
     * a fresh view of the same media (crash images, scratch
     * check/repair trials), never a second endpoint of the
     * original's instrumentation.
     */
    Backing(const Backing &other)
        : bytes_(other.bytes_), domainEnabled_(other.domainEnabled_),
          readOnly_(other.readOnly_), fenceEpoch_(other.fenceEpoch_),
          pending_(other.pending_)
    {
    }

    Backing &
    operator=(const Backing &other)
    {
        if (this != &other) {
            Backing copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    /** Moves transfer the whole identity, observers and stage included. */
    Backing(Backing &&) = default;
    Backing &operator=(Backing &&) = default;

    /** Size in bytes. */
    Bytes size() const { return bytes_.size(); }

    /**
     * True while a read is a plain memcpy of the live bytes: no
     * write stage is installed to overlay. Fast-path gate for
     * callers (the Native execution tier) that bypass read() —
     * reads have no observers, so nothing else can differ.
     */
    bool plainRead() const { return stage_ == nullptr; }

    /**
     * True while a write is a plain memcpy into the live bytes:
     * no stage to capture it, no observers to notify, not
     * quarantined, and no persistence domain tracking dirty lines.
     */
    bool
    plainWrite() const
    {
        return stage_ == nullptr && !writeObserver_ &&
               !persistObserver_ && !readOnly_ && !domainEnabled_;
    }

    /**
     * Raw live bytes, for fast-path callers that checked
     * plainRead()/plainWrite() first. The pointer is invalidated by
     * grow() and assign().
     */
    std::uint8_t *rawData() { return bytes_.data(); }

    /**
     * Grow to @p new_size bytes (never shrinks). The new bytes are
     * zero on media and live alike.
     */
    void
    grow(Bytes new_size)
    {
        if (new_size > bytes_.size())
            bytes_.resize(new_size);
    }

    /** Copy @p n bytes at byte offset @p off into @p dst. */
    void
    read(Bytes off, void *dst, Bytes n) const
    {
        checkRange(off, n, "read");
        std::memcpy(dst, bytes_.data() + off, n);
        if (stage_)
            overlayStage(*stage_, off,
                         static_cast<std::uint8_t *>(dst), n);
    }

    /** Copy @p n bytes from @p src to byte offset @p off. */
    void
    write(Bytes off, const void *src, Bytes n)
    {
        checkRange(off, n, "write");
        if (readOnly_) {
            throw Fault(FaultKind::PoolQuarantined,
                        "write to quarantined (read-only) backing");
        }
        if (stage_) {
            // Staged (redo) path: the bytes land in DRAM only. No
            // persistence event fires — nothing touched the media, so
            // there is nothing a crash schedule could tear.
            if (writeObserver_)
                writeObserver_(off, n);
            const auto *p = static_cast<const std::uint8_t *>(src);
            for (Bytes i = 0; i < n; ++i)
                stage_->bytes[off + i] = p[i];
            return;
        }
        if (persistObserver_)
            persistObserver_(PersistEvent::Write, off, n);
        if (writeObserver_)
            writeObserver_(off, n);
        // After the observers (a crash injected at this Write sees the
        // pre-write state), before the bytes change (a newly dirty
        // line saves what its media still holds).
        if (domainEnabled_)
            markDirty(off, n);
        std::memcpy(bytes_.data() + off, src, n);
    }

    /**
     * Install (or, with nullptr, remove) a write stage. At most one
     * stage can be installed — the engine layers transaction-over-
     * batch stages itself via WriteStage::under and installs only the
     * top one here.
     */
    void
    setWriteStage(WriteStage *stage)
    {
        if (stage && stage_) {
            throw Fault(FaultKind::BadUsage,
                        "write stage already installed on backing");
        }
        stage_ = stage;
    }

    /** The installed write stage, or nullptr. */
    const WriteStage *writeStage() const { return stage_; }

    /**
     * Write that bypasses an installed stage and lands directly on
     * the (simulated) media — the redo engine's journal-append and
     * in-place-apply path, which must remain governed by the
     * persistence domain even while user writes are being staged.
     */
    void
    writeThrough(Bytes off, const void *src, Bytes n)
    {
        WriteStage *saved = stage_;
        stage_ = nullptr;
        try {
            write(off, src, n);
        } catch (...) {
            stage_ = saved;
            throw;
        }
        stage_ = saved;
    }

    /**
     * Install a pre-write observer invoked with (offset, length)
     * before every write — the undo-log hook: it sees *all* writes,
     * including allocator-metadata updates, so transactions roll the
     * whole pool state back consistently. Pass nullptr to remove.
     */
    void
    setWriteObserver(std::function<void(Bytes, Bytes)> observer)
    {
        writeObserver_ = std::move(observer);
    }

    /**
     * Install a persistence-event observer, invoked *before* each
     * event takes effect (a crash "at" event N means event N never
     * happened). The crash-injection hook; pass nullptr to remove.
     * For Fence events the (offset, length) arguments are (0, 0).
     */
    void
    setPersistObserver(
        std::function<void(PersistEvent, Bytes, Bytes)> observer)
    {
        persistObserver_ = std::move(observer);
    }

    // ------------------------------------------------------------------
    // Persistence domain
    // ------------------------------------------------------------------

    /**
     * Start distinguishing live from media bytes. Everything written
     * so far is considered on media. O(1); idempotent.
     */
    void
    enablePersistenceDomain()
    {
        if (domainEnabled_)
            return;
        domainEnabled_ = true;
        pending_.clear();
    }

    /** True once enablePersistenceDomain() has run. */
    bool persistenceDomainEnabled() const { return domainEnabled_; }

    /**
     * Stage the lines covering [off, off+len) for write-back (CLWB).
     * Durable only after the next fence(). The range is checked
     * whether or not the domain is enabled (an empty range is a
     * no-op); otherwise a no-op when the domain is disabled. Flushing
     * clean lines is allowed and has no effect.
     */
    void
    flush(Bytes off, Bytes len)
    {
        if (len == 0)
            return;
        checkRange(off, len, "flush");
        if (!domainEnabled_)
            return;
        if (persistObserver_)
            persistObserver_(PersistEvent::Flush, off, len);
        const Bytes first = off / kLineBytes;
        const Bytes last = (off + len - 1) / kLineBytes;
        for (Bytes line = first; line <= last; ++line) {
            if (PendingLine *p = pending_.find(line))
                p->state = LineState::Flushed;
        }
    }

    /**
     * Complete all staged write-backs (SFENCE): every Flushed line's
     * media now equals its live bytes, so its record is dropped.
     * Dirty-but-unflushed lines stay volatile. No-op when the domain
     * is disabled.
     */
    void
    fence()
    {
        if (!domainEnabled_)
            return;
        if (persistObserver_)
            persistObserver_(PersistEvent::Fence, 0, 0);
        pending_.dropFlushed();
        ++fenceEpoch_; // close the epoch the surviving writes live in
    }

    /**
     * The bytes a crash right now would leave on media. With the
     * domain disabled this is simply the current content.
     *
     * @param mode  fate of unfenced lines (the media retention model)
     * @param seed  RNG seed for the probabilistic modes (deterministic
     *              per crash point)
     */
    std::vector<std::uint8_t>
    crashImage(CrashMode mode, std::uint64_t seed = 0) const
    {
        std::vector<std::uint8_t> image = bytes_.toVector();
        if (!domainEnabled_)
            return image;
        for (const PendingLine &p : pending_) {
            if (!survives(p, mode, seed)) {
                const Bytes off = p.line * kLineBytes;
                std::memcpy(image.data() + off, p.media,
                            std::min<Bytes>(kLineBytes, image.size() - off));
            }
        }
        return image;
    }

    /** Number of lines that are dirty or flushed-but-unfenced. */
    std::size_t pendingLines() const { return pending_.size(); }

    /** Fences completed so far (the current epoch number). */
    std::uint64_t fenceEpoch() const { return fenceEpoch_; }

    // ------------------------------------------------------------------
    // Quarantine (read-only attach)
    // ------------------------------------------------------------------

    /**
     * Toggle read-only mode: writes throw Fault{PoolQuarantined};
     * reads, flush, and fence remain allowed (they cannot damage the
     * media further). Used to keep a damaged pool inspectable while
     * the rest of the fleet keeps serving.
     */
    void setReadOnly(bool ro) { readOnly_ = ro; }

    /** True while writes are rejected. */
    bool readOnly() const { return readOnly_; }

    /** Raw byte access for serialization (pool images). */
    const ByteStore &raw() const { return bytes_; }

    /** Replace the whole content (pool image load); resets the domain. */
    void
    assign(std::vector<std::uint8_t> content)
    {
        ByteStore fresh(content.size());
        fresh.copyNonZeroPages(content.data(), content.size());
        bytes_ = std::move(fresh);
        domainEnabled_ = false;
        pending_.clear();
        fenceEpoch_ = 0;
    }

    /** Replace the whole content from another raw store. */
    void
    assign(const ByteStore &content)
    {
        bytes_ = content;
        domainEnabled_ = false;
        pending_.clear();
        fenceEpoch_ = 0;
    }

  private:
    enum class LineState : std::uint8_t
    {
        Dirty,   //!< written, not flushed
        Flushed, //!< flush issued, not yet fenced
    };

    /** One unfenced line: its volatile state and its media bytes. */
    struct PendingLine
    {
        Bytes line;
        /** fenceEpoch_ at the line's most recent write. */
        std::uint64_t writeEpoch;
        LineState state;
        /** What the media holds (zero past the end of the backing). */
        std::uint8_t media[kLineBytes];
    };

    /**
     * The unfenced lines: dense records plus a linear-probing index
     * over them (slot = record position + 1, 0 = empty) kept at most
     * half full. Lines leave only at a fence, which compacts the
     * records and rebuilds the index, so there are no tombstones and,
     * once the records reach their working size, no per-line
     * allocation. Iteration order is insertion order minus the
     * dropped lines.
     */
    class PendingTable
    {
      public:
        std::size_t size() const { return records_.size(); }
        const PendingLine *begin() const { return records_.data(); }
        const PendingLine *end() const
        {
            return records_.data() + records_.size();
        }

        /** The record of @p line, or nullptr. */
        PendingLine *
        find(Bytes line)
        {
            if (records_.empty())
                return nullptr;
            const std::size_t mask = slots_.size() - 1;
            for (std::size_t i = home(line);; i = (i + 1) & mask) {
                const std::uint32_t s = slots_[i];
                if (s == 0)
                    return nullptr;
                if (records_[s - 1].line == line)
                    return &records_[s - 1];
            }
        }

        /** Append a zeroed record for @p line, which must be absent. */
        PendingLine &
        add(Bytes line)
        {
            if (2 * (records_.size() + 1) > slots_.size())
                reindex(std::max(kMinSlots, 2 * slots_.size()));
            records_.emplace_back();
            records_.back().line = line;
            place(static_cast<std::uint32_t>(records_.size()));
            return records_.back();
        }

        /** Drop every Flushed record (the fence). */
        void
        dropFlushed()
        {
            const auto kept = std::remove_if(
                records_.begin(), records_.end(),
                [](const PendingLine &p) {
                    return p.state == LineState::Flushed;
                });
            if (kept == records_.end())
                return;
            records_.erase(kept, records_.end());
            std::size_t slots = kMinSlots;
            while (slots < 2 * records_.size())
                slots *= 2;
            reindex(slots);
        }

        void
        clear()
        {
            records_.clear();
            slots_.clear();
        }

      private:
        static constexpr std::size_t kMinSlots = 16;

        /** Fibonacci hash of @p line onto the index. */
        std::size_t
        home(Bytes line) const
        {
            return static_cast<std::size_t>(
                (line * 0x9E37'79B9'7F4A'7C15ULL) >> shift_);
        }

        /** Index record @p slot (position + 1) at its first free slot. */
        void
        place(std::uint32_t slot)
        {
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = home(records_[slot - 1].line);
            while (slots_[i] != 0)
                i = (i + 1) & mask;
            slots_[i] = slot;
        }

        /** Rebuild the index over the records with @p slots slots. */
        void
        reindex(std::size_t slots)
        {
            slots_.assign(slots, 0);
            shift_ = 64;
            for (std::size_t n = slots; n > 1; n /= 2)
                --shift_;
            for (std::size_t r = 0; r < records_.size(); ++r)
                place(static_cast<std::uint32_t>(r + 1));
        }

        std::vector<PendingLine> records_;
        /** Power-of-two index; empty until the first record. */
        std::vector<std::uint32_t> slots_;
        /** 64 - log2(slots_.size()), once slots_ is non-empty. */
        unsigned shift_ = 0;
    };

    /**
     * splitmix64 over (seed, line): the deterministic per-line
     * survival coin of the probabilistic retention modes. Independent
     * across lines, reproducible per crash point.
     */
    static bool
    lineCoin(Bytes line, std::uint64_t seed)
    {
        std::uint64_t x = seed + 0x9E37'79B9'7F4A'7C15ULL * (line + 1);
        x ^= x >> 30; x *= 0xBF58'476D'1CE4'E5B9ULL;
        x ^= x >> 27; x *= 0x94D0'49BB'1331'11EBULL;
        x ^= x >> 31;
        return (x & 1) != 0;
    }

    /**
     * Overflow-safe bounds check: rejects hostile offsets where
     * off + n wraps. Faults (catchable) instead of asserting, so
     * corrupt images degrade into typed errors in release builds too.
     */
    void
    checkRange(Bytes off, Bytes n, const char *op) const
    {
        if (n > bytes_.size() || off > bytes_.size() - n) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "backing %s [%llu,+%llu) outside size %llu",
                          op, (unsigned long long)off,
                          (unsigned long long)n,
                          (unsigned long long)bytes_.size());
            throw Fault(FaultKind::OffsetOutOfPool, buf);
        }
    }

    /**
     * Mark the lines covering [off, off+len) Dirty in the current
     * epoch. A line that was clean saves its bytes, which are still
     * its media bytes, so call this before the live bytes change.
     */
    void
    markDirty(Bytes off, Bytes len)
    {
        if (len == 0)
            return;
        const Bytes first = off / kLineBytes;
        const Bytes last = (off + len - 1) / kLineBytes;
        for (Bytes line = first; line <= last; ++line) {
            PendingLine *p = pending_.find(line);
            if (p == nullptr) {
                p = &pending_.add(line);
                const Bytes at = line * kLineBytes;
                std::memcpy(p->media, bytes_.data() + at,
                            std::min<Bytes>(kLineBytes, bytes_.size() - at));
            }
            p->state = LineState::Dirty;
            p->writeEpoch = fenceEpoch_;
        }
    }

    /** Whether pending line @p p reaches media in a crash now. */
    bool
    survives(const PendingLine &p, CrashMode mode,
             std::uint64_t seed) const
    {
        switch (mode) {
          case CrashMode::DiscardUnfenced:
            return false; // unfenced lines never survive
          case CrashMode::RetainRandom:
            return lineCoin(p.line, seed);
          case CrashMode::RetainEpoch:
            // Completed epochs drained to media by themselves.
            return p.writeEpoch < fenceEpoch_;
          case CrashMode::RetainBoundedStale:
            // Media lags by <= kStaleBound epochs: old pending lines
            // are guaranteed durable, younger ones race.
            return fenceEpoch_ - p.writeEpoch >= kStaleBound ||
                   lineCoin(p.line, seed);
        }
        return false;
    }

    /** Overlay staged bytes (under first, then top) onto @p dst. */
    static void
    overlayStage(const WriteStage &s, Bytes off, std::uint8_t *dst,
                 Bytes n)
    {
        if (s.under)
            overlayStage(*s.under, off, dst, n);
        if (n == 0)
            return;
        for (auto it = s.bytes.lower_bound(off);
             it != s.bytes.end() && it->first - off < n; ++it)
            dst[it->first - off] = it->second;
    }

    ByteStore bytes_;
    std::function<void(Bytes, Bytes)> writeObserver_;
    std::function<void(PersistEvent, Bytes, Bytes)> persistObserver_;
    /** Installed redo staging buffer (not owned), or nullptr. */
    WriteStage *stage_ = nullptr;

    bool domainEnabled_ = false;
    bool readOnly_ = false;
    /** Fences completed since the domain (or backing) came up. */
    std::uint64_t fenceEpoch_ = 0;
    /**
     * Every unfenced line. Invariant: a line with no record has
     * identical media and live bytes.
     */
    PendingTable pending_;
};

} // namespace upr

#endif // UPR_MEM_BACKING_HH
