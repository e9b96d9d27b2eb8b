/**
 * @file
 * Minimal JSON emitter for the bench harness: a stack of open
 * containers with automatic comma placement and string escaping.
 * Output is deterministic (keys appear in emission order, numbers are
 * integers or shortest-round-trip doubles), so two BENCH_*.json files
 * diff cleanly and scripts/bench_diff.py can parse them with the
 * stdlib parser.
 */

#ifndef UPR_BENCH_BENCH_JSON_HH
#define UPR_BENCH_BENCH_JSON_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace upr::bench
{

/** Streaming JSON writer. Misnesting trips an assertion, not output. */
class JsonWriter
{
  public:
    JsonWriter() { out_.reserve(4096); }

    JsonWriter &
    beginObject()
    {
        element();
        out_ += '{';
        stack_.push_back(Frame{'}', true});
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        element();
        out_ += '[';
        stack_.push_back(Frame{']', true});
        return *this;
    }

    JsonWriter &
    end()
    {
        upr_assert_msg(!stack_.empty(), "json: end() with nothing open");
        newlineIndent(stack_.size() - 1);
        out_ += stack_.back().closer;
        stack_.pop_back();
        return *this;
    }

    /** Key inside the innermost object; value call must follow. */
    JsonWriter &
    key(const std::string &k)
    {
        upr_assert_msg(!stack_.empty() && stack_.back().closer == '}',
                       "json: key outside an object");
        element();
        appendString(k);
        out_ += ": ";
        pendingValue_ = true;
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        element();
        appendString(v);
        return *this;
    }

    JsonWriter &
    value(const char *v)
    {
        return value(std::string(v));
    }

    JsonWriter &
    value(std::uint64_t v)
    {
        element();
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        out_ += buf;
        return *this;
    }

    JsonWriter &
    value(double v)
    {
        element();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
        return *this;
    }

    /** Convenience: key + value in one call. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** The finished document (all containers must be closed). */
    const std::string &
    str() const
    {
        upr_assert_msg(stack_.empty(), "json: unclosed container");
        return out_;
    }

    /** Write the document to @p path. @return false on I/O error. */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::string &s = str();
        const bool ok =
            std::fwrite(s.data(), 1, s.size(), f) == s.size() &&
            std::fputc('\n', f) != EOF;
        return std::fclose(f) == 0 && ok;
    }

  private:
    struct Frame
    {
        char closer;
        bool first;
    };

    /** Comma/indent bookkeeping before any element is emitted. */
    void
    element()
    {
        if (pendingValue_) {
            // Value directly after key(): no comma, no newline.
            pendingValue_ = false;
            return;
        }
        if (stack_.empty())
            return;
        if (!stack_.back().first)
            out_ += ',';
        stack_.back().first = false;
        newlineIndent(stack_.size());
    }

    void
    newlineIndent(std::size_t depth)
    {
        out_ += '\n';
        out_.append(2 * depth, ' ');
    }

    void
    appendString(const std::string &s)
    {
        out_ += '"';
        for (const char c : s) {
            switch (c) {
              case '"':  out_ += "\\\""; break;
              case '\\': out_ += "\\\\"; break;
              case '\n': out_ += "\\n";  break;
              case '\t': out_ += "\\t";  break;
              case '\r': out_ += "\\r";  break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out_ += buf;
                } else {
                    out_ += c;
                }
            }
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<Frame> stack_;
    bool pendingValue_ = false;
};

} // namespace upr::bench

#endif // UPR_BENCH_BENCH_JSON_HH
