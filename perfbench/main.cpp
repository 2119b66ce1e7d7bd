// RPQd repo benchmark program.
//
//   rpqd_perfbench --workload <bi9-4m|serve-rw-4m> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//                  [--watchdog-ms <ms>] [--corrupt-oracle]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// when every checked output was correct, 1 when one was not, 2 on a
// usage error (no JSON then).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json(const perfbench::Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: rpqd_perfbench --workload "
               "<bi9-4m|serve-rw-4m> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--watchdog-ms <ms>] "
               "[--corrupt-oracle]\n",
               why);
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0)) {
    usage(("bad value for " + flag + ": " + text).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_number(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = parse_number(flag, value);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      options.trace = t == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--watchdog-ms") {
      options.watchdog_ms = parse_number(flag, value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }

  perfbench::Report report;
  try {
    if (options.workload == "bi9-4m") {
      report = perfbench::run_bi9(options);
    } else if (options.workload == "serve-rw-4m") {
      report = perfbench::run_serve_rw(options);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 3;
  }
  std::printf("%s\n", json(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
