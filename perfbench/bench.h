// Shared pieces of the RPQd repo benchmark: options, the report every
// workload fills in, timing helpers, and the stuck-operation watchdog.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced mode writes its Chrome trace and layer summary.
  std::string out_dir = ".bench_out";
  /// Watchdog limit override in ms (0 = the workload's default).
  double watchdog_ms = 0.0;
  /// Self-test hook: adds one to the first expected count, so a correct
  /// engine must be reported as incorrect.
  bool corrupt_oracle = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (logged to stderr).
  void mismatch(const std::string& what);
};

/// The instant main() started; setup_s is measured from it.
Clock::time_point process_start();
void mark_process_start();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Process high-water resident set size in MiB.
double peak_rss_mb();

/// Process CPU time and context switches so far (getrusage).
struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  static Usage now();
};

/// Cancels an operation that runs past a limit far above the slowest
/// healthy one. Each client thread owns one slot. The cancel action runs
/// under the slot's lock, so it can never reach the client's next
/// operation; a still-stuck operation is cancelled again every `limit`.
class Watchdog {
 public:
  Watchdog(double limit_ms, std::string workload, std::uint64_t seed,
           unsigned slots);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(unsigned slot, std::uint64_t op, std::string text,
           std::function<void()> cancel);
  /// Disarms the slot; true when the watchdog cancelled the operation.
  bool disarm(unsigned slot);
  std::uint64_t cancels() const { return cancels_.load(); }
  double limit_ms() const { return limit_ms_; }

 private:
  struct Slot {
    std::mutex mutex;
    bool armed = false;
    bool fired = false;
    Clock::time_point due;
    std::uint64_t op = 0;
    std::string text;
    std::function<void()> cancel;
  };
  void loop();

  const double limit_ms_;
  const std::string workload_;
  const std::uint64_t seed_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> cancels_{0};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by stop_mutex_
  std::thread thread_;  // last: joins before the members it uses go
};

}  // namespace perfbench
