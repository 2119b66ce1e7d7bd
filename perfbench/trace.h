// Benchmark-side tracing: a span around every call the benchmark makes
// into an RPQd layer. Spans carry a name ("<layer>.<call>"), start, end,
// parent span and op id; they are kept in memory and written when the run
// ends as Chrome trace-event JSON plus a per-span-name self-time summary.
// A disabled tracer records nothing: span() returns an inert guard.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// RAII span; nests under the calling thread's innermost open span.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
    const char* name_;
    std::uint64_t op_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;
  };

  Span span(const char* name, std::uint64_t op = 0) {
    return Span(enabled_ ? this : nullptr, name, op);
  }

  struct NameStats {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time covered by child spans
  };
  /// Per span name.
  std::map<std::string, NameStats> summary() const;
  /// Mean duration of the spans called `name` (0 when there are none).
  double mean_ms(const std::string& name) const;
  std::size_t size() const;

  /// Writes <dir>/<stem>.trace.json and <dir>/<stem>.layers.json.
  void write(const std::string& dir, const std::string& stem) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;  // since process start
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t op;
    std::uint32_t tid;
  };

  const bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

}  // namespace perfbench
