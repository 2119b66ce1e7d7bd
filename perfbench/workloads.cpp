#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/rng.h"
#include "ldbc/generator.h"
#include "oracle.h"
#include "pgql/parser.h"
#include "trace.h"
#include "workloads/queries.h"

namespace perfbench {
namespace {

using rpqd::Database;
using rpqd::QueryResult;
using rpqd::VertexId;

// The graphs are fixed datasets (the generator's default seed); --seed
// drives the operation streams run against them.
constexpr std::uint64_t kGraphSeed = 7;
// A read the watchdog cancelled is retried; it fails after this many
// cancelled attempts.
constexpr unsigned kMaxAttempts = 3;
// Open-loop single-edge writer: rate, and batches between merge_deltas().
constexpr double kWritesPerSecond = 50.0;
constexpr unsigned kMergeEvery = 32;
// Inserted edges the writer keeps alive before it deletes the oldest.
constexpr std::size_t kLiveInserts = 16;
// Idle-database write probe after the read window (bi9-4m),
// at the serving writer's rate: 5 s, so a short burst of host
// interference cannot move its median.
constexpr unsigned kProbeWrites = 250;
// Untimed, untraced warm-up before each window.
constexpr double kWarmUpSeconds = 1.0;
// Traced mode only, after the window: absent-start runs.
constexpr unsigned kFloorProbes = 16;
// Point-stream ops per round; a run attempts whole rounds.
constexpr unsigned kPointRound = 16;
// Epochs whose knows reads serve-rw-4m re-checks on a materialized
// snapshot.
constexpr std::size_t kCheckedEpochs = 12;

// --------------------------------------------------------------- setup --

struct Setup {
  std::unique_ptr<Database> db;
  double generate_s = 0.0;
  double ctor_s = 0.0;
};

Setup build_database(Tracer& tracer, double scale_factor, unsigned machines) {
  rpqd::ldbc::LdbcConfig config;
  config.scale_factor = scale_factor;
  config.seed = kGraphSeed;
  Setup s;
  const Clock::time_point t0 = Clock::now();
  rpqd::Graph graph = [&] {
    auto span = tracer.span("ldbc.generate");
    return rpqd::ldbc::generate_ldbc(config);
  }();
  const Clock::time_point t1 = Clock::now();
  {
    auto span = tracer.span("api.database_ctor");
    s.db = std::make_unique<Database>(std::move(graph), machines);
  }
  s.generate_s = ms_between(t0, t1) / 1e3;
  s.ctor_s = ms_between(t1, Clock::now()) / 1e3;
  return s;
}

double setup_seconds() {
  return ms_between(process_start(), Clock::now()) / 1e3;
}

// ------------------------------------------------------------- streams --

struct PointOp {
  bool knows = true;  // knows{1,2} from a Person; else replyOf* of a Post
  VertexId k = 0;
};

struct Pools {
  std::vector<VertexId> persons;
  std::vector<VertexId> posts;
};

Pools pools_of(const rpqd::Graph& graph, const Schema& schema) {
  Pools p;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!graph.alive(v)) continue;
    if (graph.label(v) == schema.person) p.persons.push_back(v);
    if (graph.label(v) == schema.post) p.posts.push_back(v);
  }
  return p;
}

PointOp draw(rpqd::Rng& rng, const Pools& pools) {
  PointOp op;
  op.knows = rng.next_below(2) == 0;
  const auto& pool = op.knows ? pools.persons : pools.posts;
  op.k = pool[rng.next_below(pool.size())];
  return op;
}

std::string knows_text(std::uint64_t k) {
  return "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person) "
         "WHERE ID(p1) = " +
         std::to_string(k);
}

std::string point_text(const PointOp& op) {
  if (op.knows) return knows_text(op.k);
  return "SELECT COUNT(*) FROM MATCH (p:Post) <-/:replyOf*/- (m) "
         "WHERE ID(p) = " +
         std::to_string(op.k);
}

// ------------------------------------------------------------ counters --

/// Engine-reported counters summed over the timed reads.
struct Counters {
  double reads = 0;
  double term_messages = 0;
  double data_messages = 0;
  double bytes = 0;
  double contexts_sent = 0;
  double flow_blocked = 0;
  double fast_path = 0;
  double credits = 0;
  double contexts = 0;
  double load_imbalance = 0;
  double index_probes = 0;
  double index_new = 0;
  double index_bytes = 0;
  double elapsed_ms = 0;
  double queue_ms = 0;

  void add(const rpqd::RuntimeStats& s) {
    reads += 1;
    term_messages += static_cast<double>(s.term_messages);
    data_messages += static_cast<double>(s.data_messages);
    bytes += static_cast<double>(s.bytes_sent);
    contexts_sent += static_cast<double>(s.contexts_sent);
    flow_blocked += static_cast<double>(s.flow_blocked);
    fast_path += static_cast<double>(s.flow_fast_path);
    credits += static_cast<double>(s.flow_fast_path + s.flow_overflow_used +
                                   s.flow_emergency);
    for (const auto c : s.machine_contexts) contexts += static_cast<double>(c);
    load_imbalance += s.load_imbalance;
    for (const auto& stage : s.rpq) {
      index_new += static_cast<double>(stage.total_matches());
      index_probes += static_cast<double>(stage.total_matches() +
                                          stage.total_eliminated() +
                                          stage.total_duplicated());
      index_bytes += static_cast<double>(stage.index_bytes);
    }
    elapsed_ms += s.elapsed_ms;
    queue_ms += s.queue_ms;
  }

  void add(const Counters& o) {
    reads += o.reads;
    term_messages += o.term_messages;
    data_messages += o.data_messages;
    bytes += o.bytes;
    contexts_sent += o.contexts_sent;
    flow_blocked += o.flow_blocked;
    fast_path += o.fast_path;
    credits += o.credits;
    contexts += o.contexts;
    load_imbalance += o.load_imbalance;
    index_probes += o.index_probes;
    index_new += o.index_new;
    index_bytes += o.index_bytes;
    elapsed_ms += o.elapsed_ms;
    queue_ms += o.queue_ms;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// -------------------------------------------------------------- reads --

struct ReadOutcome {
  bool ok = false;
  QueryResult result;
};

/// One client's guarded calls into the Database. Every attempt is armed
/// on the client's watchdog slot; an attempt the watchdog cancelled is
/// retried, up to kMaxAttempts.
class Client {
 public:
  Client(Database& db, Tracer& tracer, Watchdog& watchdog, unsigned slot)
      : db_(db), tracer_(tracer), watchdog_(watchdog), slot_(slot) {}

  /// The blocking path: Database::query untraced; traced, the same work
  /// split into Database::prepare and PreparedQuery::run (the result
  /// cache is off), plus one pgql::parse for its timing.
  ReadOutcome blocking(const std::string& text, std::uint64_t op) {
    auto root = tracer_.span("client.read", op);
    time_parse(text, op);
    return guarded(text, op, [&] {
      arm_cancel_all(text, op);
      if (!tracer_.enabled()) return db_.query(text);
      rpqd::PreparedQuery prepared = [&] {
        auto span = tracer_.span("api.prepare", op);
        return db_.prepare(text);
      }();
      auto span = tracer_.span("runtime.run", op);
      return prepared.run();
    });
  }

  /// The serving path: submit, then await. Traced, pgql::parse and
  /// Database::prepare are also called once each for their timings
  /// (submit compiles internally) when `time_compile` is set.
  ReadOutcome submitted(const std::string& text, std::uint64_t op,
                        bool time_compile) {
    auto root = tracer_.span("client.read", op);
    if (time_compile) {
      time_parse(text, op);
      if (tracer_.enabled()) {
        auto span = tracer_.span("api.prepare", op);
        db_.prepare(text);
      }
    }
    return guarded(text, op, [&] {
      rpqd::QueryTicket ticket;
      {
        auto span = tracer_.span("scheduler.submit", op);
        ticket = db_.submit(text);
      }
      watchdog_.arm(slot_, op, text, [this, ticket] { db_.cancel(ticket); });
      auto span = tracer_.span("scheduler.await", op);
      return db_.await(ticket);
    });
  }

  /// One run of an already-prepared query (the floor probe).
  ReadOutcome prepared(rpqd::PreparedQuery& query, const std::string& text,
                       std::uint64_t op) {
    return guarded(text, op, [&] {
      arm_cancel_all(text, op);
      auto span = tracer_.span("runtime.floor", op);
      return query.run();
    });
  }

 private:
  void time_parse(const std::string& text, std::uint64_t op) {
    if (!tracer_.enabled()) return;
    auto span = tracer_.span("pgql.parse", op);
    rpqd::pgql::parse(text);
  }

  // The single blocking client owns every live query on the database.
  void arm_cancel_all(const std::string& text, std::uint64_t op) {
    watchdog_.arm(slot_, op, text, [this] { db_.cancel_all(); });
  }

  template <typename Attempt>
  ReadOutcome guarded(const std::string& text, std::uint64_t op,
                      Attempt attempt) {
    for (unsigned a = 0; a < kMaxAttempts; ++a) {
      ReadOutcome out;
      bool cancelled = false;
      try {
        out.result = attempt();
        cancelled = watchdog_.disarm(slot_);
      } catch (const std::exception& e) {
        watchdog_.disarm(slot_);
        std::fprintf(stderr, "perfbench: op %llu threw: %s (%s)\n",
                     static_cast<unsigned long long>(op), e.what(),
                     text.c_str());
        return {};
      }
      if (!out.result.aborted) {
        out.ok = true;
        return out;
      }
      if (!cancelled) {
        std::fprintf(stderr, "perfbench: op %llu aborted (%s): %s\n",
                     static_cast<unsigned long long>(op),
                     rpqd::to_string(out.result.abort_reason), text.c_str());
        return {};
      }
    }
    std::fprintf(stderr,
                 "perfbench: op %llu failed: cancelled %u times: %s\n",
                 static_cast<unsigned long long>(op), kMaxAttempts,
                 text.c_str());
    return {};
  }

  Database& db_;
  Tracer& tracer_;
  Watchdog& watchdog_;
  const unsigned slot_;
};

/// Runs `op` untimed until kWarmUpSeconds have passed.
template <typename Op>
void warm_up(Op op) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmUpSeconds));
  while (Clock::now() < end) op();
}

// ------------------------------------------------------------- writes --

/// Single-edge knows churn. Inserts link two random Persons that share
/// no knows edge; once kLiveInserts are alive the oldest is deleted. So
/// each delete removes exactly one edge, and the final knows count is
/// seed + inserts - deletes.
class EdgeChurn {
 public:
  EdgeChurn(const rpqd::Graph& seed, const Schema& schema,
            const std::vector<VertexId>& persons, std::uint64_t rng_seed)
      : seed_(seed), knows_(schema.knows), persons_(persons), rng_(rng_seed) {}

  rpqd::UpdateBatch next() {
    rpqd::UpdateBatch batch;
    pending_delete_ = live_.size() >= kLiveInserts ||
                      (!live_.empty() && rng_.next_below(2) == 0);
    if (pending_delete_) {
      const auto [a, b] = live_.front();
      batch.edge_deletes.push_back({a, b, knows_});
      return batch;
    }
    while (true) {
      const VertexId a = persons_[rng_.next_below(persons_.size())];
      const VertexId b = persons_[rng_.next_below(persons_.size())];
      if (a == b || linked(a, b)) continue;
      pending_ = {a, b};
      batch.edge_inserts.push_back({a, b, knows_});
      return batch;
    }
  }

  /// Records the applied batch from next(); false when its receipt does
  /// not show exactly one edge inserted or deleted.
  bool commit(const rpqd::UpdateResult& receipt) {
    if (pending_delete_) {
      live_set_.erase(live_.front());
      live_.pop_front();
      ++deletes_;
      return receipt.edges_deleted == 1;
    }
    live_.push_back(pending_);
    live_set_.insert(pending_);
    ++inserts_;
    return receipt.new_edges.size() == 1;
  }

  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t deletes() const { return deletes_; }

 private:
  bool linked(VertexId a, VertexId b) const {
    return seed_.out().has_edge_to(a, b, knows_) ||
           seed_.out().has_edge_to(b, a, knows_) ||
           live_set_.count({a, b}) != 0 || live_set_.count({b, a}) != 0;
  }

  const rpqd::Graph& seed_;
  const rpqd::LabelId knows_;
  const std::vector<VertexId>& persons_;
  rpqd::Rng rng_;
  std::deque<std::pair<VertexId, VertexId>> live_;
  std::set<std::pair<VertexId, VertexId>> live_set_;
  std::pair<VertexId, VertexId> pending_;
  bool pending_delete_ = false;
  std::uint64_t inserts_ = 0;
  std::uint64_t deletes_ = 0;
};

struct WriteLog {
  std::vector<double> latency_ms;  // scheduled instant -> apply returned
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool receipts_ok = true;
  double delta_entries_peak = 0;
};

/// Applies the next churn batch, due at `due`, and merges the deltas
/// every kMergeEvery batches.
void write_once(Database& db, EdgeChurn& churn, Tracer& tracer,
                std::uint64_t op, Clock::time_point due, WriteLog& log) {
  const rpqd::UpdateBatch batch = churn.next();
  ++log.attempted;
  try {
    rpqd::UpdateResult receipt;
    {
      auto span = tracer.span("graph.apply_update", op);
      receipt = db.apply_update(batch);
    }
    log.latency_ms.push_back(ms_between(due, Clock::now()));
    if (!churn.commit(receipt)) log.receipts_ok = false;
    if (tracer.enabled()) {
      log.delta_entries_peak =
          std::max(log.delta_entries_peak,
                   static_cast<double>(db.update_stats().delta_entries));
    }
    if (log.attempted % kMergeEvery == 0) {
      auto span = tracer.span("graph.merge", op);
      db.merge_deltas();
    }
  } catch (const std::exception& e) {
    ++log.failed;
    std::fprintf(stderr, "perfbench: write %llu threw: %s\n",
                 static_cast<unsigned long long>(op), e.what());
  }
}

/// Sleeps until shortly before `due`, then spins: the OS timer's wake-up
/// jitter would otherwise dominate a sub-millisecond write latency.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

Clock::duration write_period(double per_second) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_second));
}

/// The idle-database write probe: kProbeWrites open-loop writes at
/// kWritesPerSecond after the read window.
void write_probe(Database& db, EdgeChurn& churn, Tracer& tracer,
                 std::uint64_t first_op, WriteLog& log) {
  const Clock::time_point start = Clock::now();
  for (unsigned i = 0; i < kProbeWrites; ++i) {
    const Clock::time_point due =
        start + i * write_period(kWritesPerSecond);
    wait_until(due);
    write_once(db, churn, tracer, first_op + i, due, log);
  }
}

// ------------------------------------------------------------- checks --

/// Compares answers with independently computed ones. With the self-test
/// hook set, the first expected value is off by one.
class Checker {
 public:
  Checker(Report& report, bool corrupt) : report_(report), corrupt_(corrupt) {}
  ~Checker() {
    std::fprintf(stderr, "perfbench: checked %llu outputs, %llu wrong\n",
                 static_cast<unsigned long long>(checked_),
                 static_cast<unsigned long long>(wrong_));
  }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void equal(std::uint64_t got, std::uint64_t expected,
             const std::string& what) {
    if (corrupt_) {
      expected += 1;
      corrupt_ = false;
    }
    ++checked_;
    if (got == expected) return;
    ++wrong_;
    if (wrong_ <= 10) {
      report_.mismatch(what + ": got " + std::to_string(got) + ", expected " +
                       std::to_string(expected));
    } else {
      report_.correct = false;
    }
  }

 private:
  Report& report_;
  bool corrupt_;
  std::uint64_t checked_ = 0;
  std::uint64_t wrong_ = 0;
};

void check_point(Checker& check, const rpqd::Graph& graph,
                 const Schema& schema, const PointOp& op,
                 std::uint64_t count,
                 std::map<std::pair<bool, VertexId>, std::uint64_t>& memo) {
  const auto key = std::make_pair(op.knows, op.k);
  auto it = memo.find(key);
  if (it == memo.end()) {
    const std::uint64_t expected = op.knows
                                       ? knows_1_2(graph, schema, op.k)
                                       : reply_subtree(graph, schema, op.k);
    it = memo.emplace(key, expected).first;
  }
  check.equal(count, it->second, point_text(op));
}

/// The final snapshot's knows edges must equal the seed's plus the
/// writer's inserts minus its deletes.
void check_knows_edges(Checker& check, Database& db, const Schema& schema,
                       const EdgeChurn& churn, const WriteLog& log,
                       Report& report) {
  if (!log.receipts_ok) report.mismatch("an update receipt was not one edge");
  const auto final_graph = db.materialize_snapshot(db.graph_epoch());
  check.equal(count_edges(*final_graph, schema.knows),
              count_edges(db.graph(), schema.knows) + churn.inserts() -
                  churn.deletes(),
              "knows edges after the write log");
}

// ------------------------------------------------------------ metrics --

/// One completed read: when it completed (seconds since the window
/// opened) and its client-observed latency.
struct Sample {
  double done_s;
  double ms;
};

std::vector<double> latencies_of(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

// The host is shared and has bursts of interference lasting seconds, so
// throughput and p99 use estimators that a burst covering a minority of
// the window cannot move.

/// Reads per second: the interquartile mean of the reads completed in
/// each whole second of the window.
double throughput(const std::vector<Sample>& samples, double window_s) {
  const auto seconds = static_cast<std::size_t>(window_s);
  if (seconds < 4) return static_cast<double>(samples.size()) / window_s;
  std::vector<double> per_second(seconds, 0.0);
  for (const Sample& s : samples) {
    const auto i = static_cast<std::size_t>(s.done_s);
    if (i < seconds) per_second[i] += 1.0;
  }
  std::sort(per_second.begin(), per_second.end());
  const std::size_t lo = seconds / 4;
  const std::size_t hi = seconds - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += per_second[i];
  return sum / static_cast<double>(hi - lo);
}

/// The median, over consecutive chunks of at least kP99Chunk reads in
/// completion order, of each chunk's p99.
double chunked_p99(std::vector<Sample> samples) {
  constexpr std::size_t kP99Chunk = 1000;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_s < b.done_s;
            });
  const std::size_t chunks =
      std::max<std::size_t>(1, samples.size() / kP99Chunk);
  std::vector<double> p99s;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t b = samples.size() * c / chunks;
    const std::size_t e = samples.size() * (c + 1) / chunks;
    std::vector<double> ms;
    for (std::size_t i = b; i < e; ++i) ms.push_back(samples[i].ms);
    p99s.push_back(percentile(ms, 0.99));
  }
  std::sort(p99s.begin(), p99s.end());
  const std::size_t mid = p99s.size() / 2;
  return p99s.size() % 2 ? p99s[mid] : (p99s[mid - 1] + p99s[mid]) / 2.0;
}

struct Window {
  double seconds = 0.0;
  Usage usage;  // process CPU and context switches spent in the window
};

struct Probes {
  double stall_ms_total = 0.0;
  double queue_ms_total = 0.0;
  double profiled = 0.0;
};

/// Traced mode only, after the window: absent-start floor runs, then one
/// PROFILE-prefixed submit/await run of each of the nine benchmark
/// queries on this workload's cluster. The profile gives the credit-stall
/// time (point reads never stall) and bi9-4m gets the scheduler's
/// submit path.
Probes run_probes(Database& db, Tracer& tracer, Watchdog& watchdog,
                  std::uint64_t first_op, Report& report) {
  Client client(db, tracer, watchdog, 0);
  const std::string floor_text = knows_text(db.graph().num_vertices() + 1000);
  rpqd::PreparedQuery floor = db.prepare(floor_text);
  std::uint64_t op = first_op;
  for (unsigned i = 0; i < kFloorProbes; ++i) {
    const ReadOutcome out = client.prepared(floor, floor_text, op++);
    if (out.ok && out.result.count != 0) {
      report.mismatch("absent-start query counted " +
                      std::to_string(out.result.count));
    }
  }
  Probes p;
  for (const auto& q : rpqd::workloads::benchmark_queries()) {
    const ReadOutcome out = client.submitted("PROFILE " + q.pgql, op++, false);
    if (!out.ok) continue;
    for (const auto& m : out.result.profile.machines) {
      p.stall_ms_total += m.stall_ms_total();
    }
    p.queue_ms_total += out.result.stats.queue_ms;
    p.profiled += 1;
  }
  return p;
}

void add_end_to_end(Report& report, double setup_s, const Window& window,
                    const std::vector<Sample>& samples, const WriteLog& writes,
                    double rss_mb) {
  report.add("throughput_qps", throughput(samples, window.seconds), "1/s");
  report.add("latency_p50_ms", percentile(latencies_of(samples), 0.50), "ms");
  report.add("latency_p99_ms", chunked_p99(samples), "ms");
  report.add("update_p50_ms", percentile(writes.latency_ms, 0.50), "ms");
  report.add("peak_rss_mb", rss_mb, "MiB");
  report.add("setup_s", setup_s, "s");
}

void add_per_layer(Report& report, const Tracer& tracer, const Setup& setup,
                   const Counters& c, const Window& window,
                   const std::vector<Sample>& samples,
                   const WriteLog& writes, const Probes& probes,
                   const Watchdog& watchdog, bool run_spans) {
  const double n = c.reads;
  report.add("pgql.parse_us", tracer.mean_ms("pgql.parse") * 1e3, "us");
  report.add("plan.prepare_us", tracer.mean_ms("api.prepare") * 1e3, "us");
  report.add("runtime.run_ms",
             run_spans ? tracer.mean_ms("runtime.run") : ratio(c.elapsed_ms, n),
             "ms");
  report.add("runtime.floor_ms", tracer.mean_ms("runtime.floor"), "ms");
  report.add("runtime.term_messages_per_query", ratio(c.term_messages, n),
             "count");
  report.add("runtime.ctx_switches_per_query",
             ratio(window.usage.ctx_switches, n), "count");
  report.add("runtime.contexts_per_query", ratio(c.contexts, n), "count");
  report.add("runtime.load_imbalance", ratio(c.load_imbalance, n), "ratio");
  report.add("runtime.cpu_ms_per_query", ratio(window.usage.cpu_ms, n), "ms");
  report.add("runtime.stuck_cancels", static_cast<double>(watchdog.cancels()),
             "count");
  report.add("net.data_messages_per_query", ratio(c.data_messages, n),
             "count");
  report.add("net.bytes_per_query", ratio(c.bytes, n), "bytes");
  report.add("net.contexts_sent_per_query", ratio(c.contexts_sent, n),
             "count");
  report.add("net.bytes_per_context", ratio(c.bytes, c.contexts_sent),
             "bytes");
  report.add("net.flow_blocked_per_query", ratio(c.flow_blocked, n), "count");
  report.add("net.fast_path_ratio", ratio(c.fast_path, c.credits), "ratio");
  report.add("net.stall_ms_per_query",
             ratio(probes.stall_ms_total, probes.profiled), "ms");
  report.add("rpq.index_probes_per_query", ratio(c.index_probes, n), "count");
  report.add("rpq.new_visit_ratio", ratio(c.index_new, c.index_probes),
             "ratio");
  report.add("rpq.index_bytes_per_query", ratio(c.index_bytes, n), "bytes");
  report.add("scheduler.submit_us", tracer.mean_ms("scheduler.submit") * 1e3,
             "us");
  // Blocking workloads submit only their probes; serve-rw-4m submits
  // every read as well.
  report.add("scheduler.queue_ms",
             ratio(c.queue_ms + probes.queue_ms_total,
                   (run_spans ? 0.0 : n) + probes.profiled),
             "ms");
  report.add("graph.apply_update_ms", tracer.mean_ms("graph.apply_update"),
             "ms");
  report.add("graph.merge_ms", tracer.mean_ms("graph.merge"), "ms");
  report.add("graph.delta_entries_peak", writes.delta_entries_peak, "count");
  report.add("ldbc.generate_s", setup.generate_s, "s");
  report.add("api.database_ctor_s", setup.ctor_s, "s");
  report.add("trace.throughput_qps", throughput(samples, window.seconds),
             "1/s");
}

void log_window(const Window& window, const std::vector<Sample>& samples,
                const Watchdog& watchdog) {
  const std::vector<double> latency = latencies_of(samples);
  std::fprintf(stderr,
               "perfbench: %zu reads in %.2f s, latency max %.2f ms, "
               "watchdog cancels %llu (limit %.0f ms)\n",
               latency.size(), window.seconds,
               latency.empty() ? 0.0
                               : *std::max_element(latency.begin(),
                                                   latency.end()),
               static_cast<unsigned long long>(watchdog.cancels()),
               watchdog.limit_ms());
}

Window close_window(Clock::time_point start, const Usage& before) {
  Window w;
  w.seconds = ms_between(start, Clock::now()) / 1e3;
  const Usage after = Usage::now();
  w.usage.cpu_ms = after.cpu_ms - before.cpu_ms;
  w.usage.ctx_switches = after.ctx_switches - before.ctx_switches;
  return w;
}

void write_trace(const Options& options, const Tracer& tracer) {
  if (!tracer.enabled()) return;
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  tracer.write(options.out_dir, stem);
  std::fprintf(stderr, "perfbench: wrote %zu spans to %s/%s.trace.json\n",
               tracer.size(), options.out_dir.c_str(), stem.c_str());
}

double watchdog_limit(const Options& options, double workload_default_ms) {
  return options.watchdog_ms > 0 ? options.watchdog_ms : workload_default_ms;
}

}  // namespace

// ------------------------------------------------------------- bi9-4m --

Report run_bi9(const Options& options) {
  Tracer tracer(options.trace);
  Report report;
  Setup setup = build_database(tracer, 4.0, 4);
  const double setup_s = setup_seconds();
  Database& db = *setup.db;
  const Schema schema = Schema::of(db.graph());
  const std::vector<rpqd::workloads::WorkloadQuery> queries =
      rpqd::workloads::benchmark_queries();

  Watchdog watchdog(watchdog_limit(options, 1000.0), options.workload,
                    options.seed, 1);
  Client client(db, tracer, watchdog, 0);
  {
    Tracer off(false);
    Client warm(db, off, watchdog, 0);
    warm_up([&] {
      for (const auto& q : queries) warm.blocking(q.pgql, 0);
    });
  }

  struct Answer {
    std::size_t query;
    std::uint64_t count;
  };
  std::vector<Answer> answers;
  std::vector<Sample> latency;
  Counters counters;
  rpqd::Rng rng(options.seed);
  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::uint64_t op = 0;
  const Usage usage0 = Usage::now();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  while (Clock::now() < deadline) {
    // One round: the nine queries in a seeded order.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t qi : order) {
      ++report.attempted;
      const Clock::time_point t0 = Clock::now();
      ReadOutcome out = client.blocking(queries[qi].pgql, op++);
      if (!out.ok) {
        ++report.failed;
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      latency.push_back({ms_between(start, t1) / 1e3, ms_between(t0, t1)});
      answers.push_back({qi, out.result.count});
      counters.add(out.result.stats);
    }
  }
  const Window window = close_window(start, usage0);
  log_window(window, latency, watchdog);

  const Pools pools = pools_of(db.graph(), schema);
  EdgeChurn churn(db.graph(), schema, pools.persons, options.seed ^ 0xc0ffee);
  WriteLog writes;
  write_probe(db, churn, tracer, op, writes);
  op += kProbeWrites;
  report.attempted += writes.attempted;
  report.failed += writes.failed;
  const double rss_mb = peak_rss_mb();

  Probes probes;
  if (tracer.enabled()) probes = run_probes(db, tracer, watchdog, op, report);

  {
    Checker check(report, options.corrupt_oracle);
    std::vector<std::uint64_t> expected;
    for (const auto& q : queries) {
      expected.push_back(
          rpqd::baseline::reference_evaluate(q.pgql, db.graph()).count);
    }
    for (const Answer& a : answers) {
      check.equal(a.count, expected[a.query], queries[a.query].id);
    }
    const std::uint64_t messages = count_vertices(db.graph(), schema.post) +
                                   count_vertices(db.graph(), schema.comment);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].id == "Q03a" || queries[i].id == "Q09a") {
        check.equal(expected[i], messages,
                    queries[i].id + " reference vs #Post + #Comment");
      }
    }
    check_knows_edges(check, db, schema, churn, writes, report);
  }

  if (tracer.enabled()) {
    add_per_layer(report, tracer, setup, counters, window, latency, writes,
                  probes, watchdog, true);
  } else {
    add_end_to_end(report, setup_s, window, latency, writes, rss_mb);
  }
  write_trace(options, tracer);
  return report;
}

// --------------------------------------------------------- serve-rw-4m --

Report run_serve_rw(const Options& options) {
  constexpr unsigned kClients = 2;
  Tracer tracer(options.trace);
  Report report;
  Setup setup = build_database(tracer, 1.0, 4);
  Database& db = *setup.db;
  db.configure_scheduler(rpqd::SchedulerConfig{});
  const double setup_s = setup_seconds();
  const Schema schema = Schema::of(db.graph());
  const Pools pools = pools_of(db.graph(), schema);

  struct Read {
    PointOp op;
    std::uint64_t count;
    std::uint64_t epoch;
  };
  struct ClientLog {
    std::vector<Read> reads;
    std::vector<Sample> latency;
    Counters counters;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<ClientLog> logs(kClients);
  WriteLog writes;
  EdgeChurn churn(db.graph(), schema, pools.persons, options.seed ^ 0xc0ffee);

  // Every client thread joins before the watchdog is destroyed.
  Watchdog watchdog(watchdog_limit(options, 250.0), options.workload,
                    options.seed, kClients);
  {
    Tracer off(false);
    Client warm(db, off, watchdog, 0);
    rpqd::Rng rng(options.seed ^ 0x77a4);
    warm_up([&] { warm.submitted(point_text(draw(rng, pools)), 0, false); });
  }

  const Usage usage0 = Usage::now();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      Client client(db, tracer, watchdog, c);
      rpqd::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + c + 1);
      std::uint64_t op = (static_cast<std::uint64_t>(c) + 1) << 40;
      while (Clock::now() < deadline) {
        for (unsigned i = 0; i < kPointRound; ++i) {
          const PointOp p = draw(rng, pools);
          ++log.attempted;
          const Clock::time_point t0 = Clock::now();
          ReadOutcome out = client.submitted(point_text(p), op++, true);
          if (!out.ok) {
            ++log.failed;
            continue;
          }
          const Clock::time_point t1 = Clock::now();
          log.latency.push_back(
              {ms_between(start, t1) / 1e3, ms_between(t0, t1)});
          log.reads.push_back(
              {p, out.result.count, out.result.stats.snapshot_epoch});
          log.counters.add(out.result.stats);
        }
      }
    });
  }
  threads.emplace_back([&] {
    std::uint64_t op = std::uint64_t{3} << 40;
    for (Clock::time_point due = start; due < deadline;
         due += write_period(kWritesPerSecond)) {
      wait_until(due);
      write_once(db, churn, tracer, op++, due, writes);
    }
  });
  for (std::thread& t : threads) t.join();
  const Window window = close_window(start, usage0);

  Counters counters;
  std::vector<Sample> latency;
  for (const ClientLog& log : logs) {
    counters.add(log.counters);
    latency.insert(latency.end(), log.latency.begin(), log.latency.end());
    report.attempted += log.attempted;
    report.failed += log.failed;
  }
  report.attempted += writes.attempted;
  report.failed += writes.failed;
  log_window(window, latency, watchdog);
  const double rss_mb = peak_rss_mb();

  Probes probes;
  if (tracer.enabled()) {
    probes = run_probes(db, tracer, watchdog, std::uint64_t{4} << 40, report);
  }

  {
    Checker check(report, options.corrupt_oracle);
    // replyOf edges never change, so replyOf* reads check on the seed.
    std::map<std::pair<bool, VertexId>, std::uint64_t> seed_memo;
    std::map<std::uint64_t, std::vector<const Read*>> knows_by_epoch;
    for (const ClientLog& log : logs) {
      for (const Read& r : log.reads) {
        if (r.op.knows) {
          knows_by_epoch[r.epoch].push_back(&r);
        } else {
          check_point(check, db.graph(), schema, r.op, r.count, seed_memo);
        }
      }
    }
    // knows reads: a seeded sample of the epochs they pinned, each
    // re-checked on that epoch's materialized snapshot.
    std::vector<std::uint64_t> epochs;
    for (const auto& [epoch, reads] : knows_by_epoch) epochs.push_back(epoch);
    rpqd::Rng sample(options.seed ^ 0x5eed);
    for (std::size_t i = epochs.size(); i > 1; --i) {
      std::swap(epochs[i - 1], epochs[sample.next_below(i)]);
    }
    epochs.resize(std::min(epochs.size(), kCheckedEpochs));
    std::sort(epochs.begin(), epochs.end());
    for (const std::uint64_t epoch : epochs) {
      const auto graph = db.materialize_snapshot(epoch);
      std::map<std::pair<bool, VertexId>, std::uint64_t> memo;
      for (const Read* r : knows_by_epoch[epoch]) {
        check_point(check, *graph, schema, r->op, r->count, memo);
      }
    }
    std::fprintf(stderr,
                 "perfbench: knows reads re-checked at %zu epochs of %zu "
                 "(first %llu, last %llu)\n",
                 epochs.size(), knows_by_epoch.size(),
                 static_cast<unsigned long long>(
                     epochs.empty() ? 0 : epochs.front()),
                 static_cast<unsigned long long>(
                     epochs.empty() ? 0 : epochs.back()));
    check_knows_edges(check, db, schema, churn, writes, report);
  }

  if (tracer.enabled()) {
    add_per_layer(report, tracer, setup, counters, window, latency, writes,
                  probes, watchdog, false);
  } else {
    add_end_to_end(report, setup_s, window, latency, writes, rss_mb);
  }
  write_trace(options, tracer);
  return report;
}

}  // namespace perfbench
