#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local std::uint32_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::int64_t since_start_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - process_start())
      .count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer), name_(name), op_(op) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id_.fetch_add(1);
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = parent_;
  const Record rec{name_,  since_start_ns(start_), since_start_ns(end), id_,
                   parent_, op_,                   thread_index()};
  std::lock_guard lock(tracer_->mutex_);
  tracer_->records_.push_back(rec);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

std::map<std::string, Tracer::NameStats> Tracer::summary() const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, NameStats> out;
  for (const Record& r : records_) {
    NameStats& s = out[r.name];
    const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    const auto it = child_ns.find(r.id);
    const double child_ms =
        it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    ++s.count;
    s.total_ms += ms;
    s.self_ms += ms - child_ms;
  }
  return out;
}

double Tracer::mean_ms(const std::string& name) const {
  const auto all = summary();
  const auto it = all.find(name);
  if (it == all.end() || it->second.count == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(it->second.count);
}

void Tracer::write(const std::string& dir, const std::string& stem) const {
  std::filesystem::create_directories(dir);
  {
    std::lock_guard lock(mutex_);
    std::ofstream out(dir + "/" + stem + ".trace.json");
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char line[512];
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                    "\"args\": {\"id\": %u, \"parent\": %u, \"op\": %llu}}%s\n",
                    r.name, layer_of(r.name).c_str(),
                    static_cast<double>(r.start_ns) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.tid,
                    r.id, r.parent, static_cast<unsigned long long>(r.op),
                    i + 1 == records_.size() ? "" : ",");
      out << line;
    }
    out << "]}\n";
  }
  const auto names = summary();
  std::map<std::string, NameStats> layers;
  for (const auto& [name, s] : names) {
    NameStats& l = layers[layer_of(name)];
    l.count += s.count;
    l.total_ms += s.total_ms;
    l.self_ms += s.self_ms;
  }
  std::ofstream out(dir + "/" + stem + ".layers.json");
  auto emit = [&out](const char* key,
                     const std::map<std::string, NameStats>& rows,
                     bool last) {
    out << "  \"" << key << "\": {\n";
    std::size_t i = 0;
    for (const auto& [name, s] : rows) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    \"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                    "\"self_ms\": %.3f}%s\n",
                    name.c_str(), static_cast<unsigned long long>(s.count),
                    s.total_ms, s.self_ms, ++i == rows.size() ? "" : ",");
      out << line;
    }
    out << "  }" << (last ? "\n" : ",\n");
  };
  out << "{\n";
  emit("spans", names, false);
  emit("layers", layers, true);
  out << "}\n";
}

}  // namespace perfbench
