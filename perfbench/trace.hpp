#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the library's public functions,
// from the benchmark's own code: name, start, end, the enclosing span and
// the workload item they belong to.  They stay in memory until the run
// ends; `self_seconds` then gives each span name's self time (duration
// minus the part its child spans cover) and `write_chrome_json` dumps the
// spans as Chrome trace-event JSON (chrome://tracing, Perfetto).

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// Span name ids are interned once, outside the timed region.
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return i;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::size_t open(std::uint32_t name, std::uint64_t item) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{name, parent, item, Clock::now(), {}});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end = Clock::now();
    stack_.pop_back();
  }

  /// Self seconds per span name, over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[names_[spans_[i].name]] += spans_[i].seconds() - child[i];
    return out;
  }

  /// Summed duration of the spans named `name`.
  [[nodiscard]] double total_seconds(std::uint32_t name) const {
    double total = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) total += s.seconds();
    return total;
  }

  void write_chrome_json(std::ostream& os) const {
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << names_[s.name]
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
         << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"item\":"
         << s.item << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    std::uint32_t name;
    std::int64_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint64_t item;
    Clock::time_point start;
    Clock::time_point end;

    [[nodiscard]] double seconds() const {
      return std::chrono::duration<double>(end - start).count();
    }
  };

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Records one span for its scope; a null tracer records nothing, so the
/// same replay code runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t item)
      : tracer_(tracer), index_(tracer ? tracer->open(name, item) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
