/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * The benchmark opens a span around every call it makes into a
 * library layer. A span's name is "<layer>.<call>", where <layer> is
 * one of the repository's modules (kvstore, containers, core, arch,
 * mem, nvm, compiler, obs). Spans stay in memory while the workload
 * runs and are written out as a Chrome trace_event document after the
 * run, so writing costs nothing inside the timed phases.
 *
 * One SpanBuffer belongs to one thread. The untraced runs pass a null
 * buffer; then a Span costs one branch.
 */

#ifndef UPR_PERFBENCH_SPANS_HH
#define UPR_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** One recorded call into a layer. */
struct SpanRecord
{
    const char *name = "";   //!< "<layer>.<call>" (static storage)
    std::int64_t startNs = 0; //!< since the buffer's epoch
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the merged trace, or -1. */
    std::int64_t parent = -1;
    /** Operation id the span serves (0 = not one operation's). */
    std::uint64_t op = 0;
    std::uint32_t tid = 0;
};

/** The spans of one thread. */
class SpanBuffer
{
  public:
    /**
     * @param tid    thread id shown in the trace
     * @param epoch  common time origin of all buffers of one run
     * @param parent span (in the merged trace) that roots this thread's
     *               top-level spans, e.g. the fork that started it
     */
    SpanBuffer(std::uint32_t tid, Clock::time_point epoch,
               std::int64_t parent = -1)
        : tid_(tid), epoch_(epoch), rootParent_(parent)
    {
        spans_.reserve(1 << 16);
    }

    /** Open a span; returns its index for close(). */
    std::size_t
    open(const char *name, std::uint64_t op)
    {
        SpanRecord s;
        s.name = name;
        s.op = op;
        s.tid = tid_;
        // Top-level spans keep -1 until merge() links them to the
        // buffer's root parent.
        s.parent = stack_.empty() ? -1
                                  : static_cast<std::int64_t>(stack_.back());
        stack_.push_back(spans_.size());
        spans_.push_back(s);
        spans_.back().startNs = nsBetween(epoch_, Clock::now());
        return spans_.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        spans_[idx].endNs = nsBetween(epoch_, Clock::now());
        stack_.pop_back();
    }

    const std::vector<SpanRecord> &spans() const { return spans_; }
    Clock::time_point epoch() const { return epoch_; }

    /** Index the next span opened here will get (fork parents). */
    std::size_t nextIndex() const { return spans_.size(); }

    /**
     * Append @p other's spans, re-basing their parent links: in-buffer
     * links shift by this buffer's size, top-level spans link to the
     * root parent @p other was created with.
     */
    void merge(const SpanBuffer &other);

  private:
    std::uint32_t tid_;
    Clock::time_point epoch_;
    std::int64_t rootParent_;
    std::vector<SpanRecord> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a no-op when @p buf is null (the untraced runs). */
class Span
{
  public:
    Span(SpanBuffer *buf, const char *name, std::uint64_t op = 0)
        : buf_(buf)
    {
        if (buf_)
            idx_ = buf_->open(name, op);
    }

    ~Span()
    {
        if (buf_)
            buf_->close(idx_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanBuffer *buf_;
    std::size_t idx_ = 0;
};

/** Per-layer totals over a finished trace. */
struct LayerTimes
{
    /** layer -> self time in ns (duration minus child coverage). */
    std::map<std::string, std::int64_t> selfNs;
    /** span name -> durations in ns, in recording order. */
    std::map<std::string, std::vector<std::int64_t>> durations;
};

/** Self time per layer and durations per span name. */
LayerTimes analyzeSpans(const std::vector<SpanRecord> &spans);

/**
 * Write @p spans as a Chrome trace_event document (complete "X"
 * events, microsecond timestamps) that Perfetto and chrome://tracing
 * load. @return false if the file cannot be written
 */
bool writeChromeTrace(const std::vector<SpanRecord> &spans,
                      const std::string &path);

/**
 * Write per-layer self times as a metrics-snapshot document
 * ({"counters": {"layer.<name>.selfNs": ...}, "histograms": {}}),
 * the format `uprstat FILE` prints.
 */
bool writeLayerSnapshot(const LayerTimes &times, const std::string &path);

} // namespace perfbench

#endif // UPR_PERFBENCH_SPANS_HH
