// In-memory span recorder of the traced benchmark run.
//
// The benchmark times calls into each layer from its own code: a span is
// recorded around every call (or derived from the timings a QueryResult
// carries) and kept in memory until the run ends, when the whole set is
// written out once as Chrome trace-event JSON.  Spans of one query share
// its id; `parent` names the span that caused it (0 = root).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const noexcept { return enabled_; }

  /// Records one span; returns its span id (0 when tracing is off).
  std::uint64_t add(const char* name, std::uint64_t query_id,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
    if (!enabled_) return 0;
    const std::scoped_lock lk(mu_);
    const std::uint64_t span_id = spans_.size() + 1;
    spans_.push_back(Span{name, span_id, query_id, parent, us(start), us(end)});
    return span_id;
  }

  std::size_t size() const {
    const std::scoped_lock lk(mu_);
    return spans_.size();
  }

  /// Writes every span as a Chrome trace-event "complete" event.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::scoped_lock lk(mu_);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.query_id
          << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
          << ",\"args\":{\"span\":" << s.span_id << ",\"query\":"
          << s.query_id << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t span_id;
    std::uint64_t query_id;
    std::uint64_t parent;
    double start_us;
    double end_us;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
