#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench
{

void
SpanBuffer::merge(const SpanBuffer &other)
{
    const auto offset = static_cast<std::int64_t>(spans_.size());
    // Both buffers share one epoch, so timestamps need no re-basing.
    for (SpanRecord s : other.spans_) {
        s.parent = s.parent < 0 ? other.rootParent_ : s.parent + offset;
        spans_.push_back(s);
    }
}

namespace
{

/** The layer part of a span name ("nvm" for "nvm.commit"). */
std::string
layerOf(const char *name)
{
    const std::string n(name);
    return n.substr(0, n.find('.'));
}

} // namespace

LayerTimes
analyzeSpans(const std::vector<SpanRecord> &spans)
{
    // Children of each span, as [start, end) intervals. Children on
    // other threads (shard workers under a fork) overlap each other,
    // so coverage is the union of the intervals, not their sum.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    }

    LayerTimes out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.endNs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        const std::int64_t dur = s.endNs - s.startNs;
        out.selfNs[layerOf(s.name)] += dur - covered;
        out.durations[s.name].push_back(dur);
    }
    return out;
}

bool
writeChromeTrace(const std::vector<SpanRecord> &spans,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %lld, \"op\": %llu}}",
                     i == 0 ? "" : ",", s.name, layerOf(s.name).c_str(),
                     s.tid, static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.op));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

bool
writeLayerSnapshot(const LayerTimes &times, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"counters\": {";
    bool first = true;
    for (const auto &[layer, ns] : times.selfNs) {
        out << (first ? "\n" : ",\n") << "  \"layer." << layer
            << ".selfNs\": " << std::max<std::int64_t>(ns, 0);
        first = false;
    }
    out << "\n}, \"histograms\": {}}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
