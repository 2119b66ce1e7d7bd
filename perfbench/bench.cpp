#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

Clock::time_point g_process_start = Clock::now();

// Cancels beyond this many are counted but not logged one by one.
constexpr std::uint64_t kLoggedCancels = 20;

}  // namespace

void Report::mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
}

Clock::time_point process_start() { return g_process_start; }
void mark_process_start() { g_process_start = Clock::now(); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage u;
  u.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

Watchdog::Watchdog(double limit_ms, std::string workload, std::uint64_t seed,
                   unsigned slots)
    : limit_ms_(limit_ms), workload_(std::move(workload)), seed_(seed) {
  for (unsigned i = 0; i < slots; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(unsigned slot, std::uint64_t op, std::string text,
                   std::function<void()> cancel) {
  Slot& s = *slots_.at(slot);
  std::lock_guard lock(s.mutex);
  s.armed = true;
  s.fired = false;
  s.due = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 limit_ms_));
  s.op = op;
  s.text = std::move(text);
  s.cancel = std::move(cancel);
}

bool Watchdog::disarm(unsigned slot) {
  Slot& s = *slots_.at(slot);
  std::lock_guard lock(s.mutex);
  s.armed = false;
  s.cancel = nullptr;
  return s.fired;
}

void Watchdog::loop() {
  const auto limit = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(limit_ms_));
  const auto period = std::clamp<Clock::duration>(
      limit / 4, std::chrono::microseconds(250), std::chrono::milliseconds(20));
  std::unique_lock stop_lock(stop_mutex_);
  while (!stop_cv_.wait_for(stop_lock, period, [this] { return stop_; })) {
    const Clock::time_point now = Clock::now();
    for (const auto& slot : slots_) {
      std::lock_guard lock(slot->mutex);
      if (!slot->armed || now < slot->due) continue;
      if (cancels_.load() < kLoggedCancels) {
        std::fprintf(stderr,
                     "perfbench: watchdog cancelled a stuck operation: "
                     "workload=%s seed=%llu op=%llu limit_ms=%.1f text=%s\n",
                     workload_.c_str(),
                     static_cast<unsigned long long>(seed_),
                     static_cast<unsigned long long>(slot->op), limit_ms_,
                     slot->text.c_str());
      }
      slot->cancel();
      slot->fired = true;
      slot->due = now + limit;
      cancels_.fetch_add(1);
    }
  }
}

}  // namespace perfbench
