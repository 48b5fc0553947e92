// pbbench: end-to-end benchmark of pbserve under open-loop traffic.
//
//   pbbench --workload solve|out-of-core|append --seed N
//           --seconds S --trace 0|1 [--smoke] [--capacity]
//           [--work-dir DIR] [--result-file FILE] [--commit ID]
//
// One run sets the system up several times (the median is setup_s), drives
// the last instance with the workload's seeded Poisson schedule over
// loopback, checks every answer against the benchmark's own copy of the
// data, and prints each metric by name and unit. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The timed
// figures (cpu_ms_per_op, and the reported query_p50_ms) are read over the
// run's quiet quarter-second intervals, those in which the host stole
// little CPU.
//
// --trace 1 runs the schedule twice on fresh instances, untraced and then
// traced (envelopes parsed into in-memory spans as they arrive, plus the
// request log), and replays the traced log offline and sequentially
// through each layer's public functions to report the per-layer metrics.
// --smoke shrinks the tables and the run and asserts the benchmark's own
// invariants. --capacity sends the schedule closed-loop and reports the
// throughput offered rates are derived from.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "engine/engine.h"
#include "harness.h"
#include "oracle.h"
#include "server/server.h"
#include "storage/block_cache.h"
#include "workloads.h"

#ifndef PBB_BUILD_TYPE
#define PBB_BUILD_TYPE "unknown"
#endif
#ifndef PBB_COMPILER
#define PBB_COMPILER "unknown"
#endif

namespace pbb {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- environment guard ------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Why this binary may not report timings; empty when it may. This is the
/// benchmark's one build-type guard.
std::string BuildRefusal() {
  const std::string type = PBB_BUILD_TYPE;
  if (type != "Release") return "build type '" + type + "' is not Release";
  if (!kOptimized) return "built without optimization";
  if (kSanitized) return "built with a sanitizer";
  return "";
}

// ---- metric names -------------------------------------------------------------------

struct MetricName {
  const char* name;
  const char* unit;
};

/// Query latency, query_p50_ms and query_p99_ms, is reported but is not one
/// of them: on a shared 4-vCPU VM, its run-to-run spread exceeded 25% of
/// its median. The tail's is concurrency rather than a per-query cost; the
/// median's is host steal, which in some hours stayed at 5-20% of the
/// machine through every quarter second of a run, so that even the quiet
/// intervals' median spread .28 on solve and .29 on out-of-core, while CPU
/// per operation spread under .1.
constexpr MetricName kEndToEnd[] = {
    {"cpu_ms_per_op", "ms"},
    {"rss_peak_mb", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricName kPerLayer[] = {
    {"server.overhead_ms_p50", "ms"},
    {"server.overhead_ms_p99", "ms"},
    {"server.response_bytes_mean", "bytes"},
    {"engine.exec_ms_p50", "ms"},
    {"engine.exec_ms_p99", "ms"},
    {"engine.self_ms_p50", "ms"},
    {"engine.result_cache_hit_ratio", "ratio"},
    {"engine.warm_hit_ratio", "ratio"},
    {"engine.revalidations_per_append", "count"},
    {"engine.append_ms_p50", "ms"},
    {"engine.append_ms_p99", "ms"},
    {"paql.parse_us_p50", "us"},
    {"db.filter_ms_p50", "ms"},
    {"db.rows_examined_per_result", "count"},
    {"pruning.bounds_ms_p50", "ms"},
    {"pruning.infeasible_frac", "ratio"},
    {"pruning.zone_skipped_blocks_per_query", "count"},
    {"translator.ms_p50", "ms"},
    {"translator.model_nnz_mean", "count"},
    {"solver.ms_p50", "ms"},
    {"solver.ms_p99", "ms"},
    {"solver.nodes_per_query", "count"},
    {"solver.lp_iterations_per_query", "count"},
    {"solver.dual_iteration_share", "ratio"},
    {"solver.refactorizations_per_query", "count"},
    {"sketch_refine.ms_p50", "ms"},
    {"sketch_refine.dirty_groups_per_query", "count"},
    {"sketch_refine.groups_reused_ratio", "ratio"},
    {"sketch_refine.lp_iterations_per_query", "count"},
    {"storage.pins_per_query", "count"},
    {"storage.block_reads_per_query", "count"},
    {"storage.block_hit_ratio", "ratio"},
    {"storage.evictions_per_query", "count"},
    {"storage.peak_pinned_mb", "MiB"},
    {"package.verify_ms_p50", "ms"},
    {"harness.late_ms_p99", "ms"},
    {"harness.trace_overhead_frac", "ratio"},
};

const char* UnitOf(const std::string& name) {
  for (const MetricName& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricName& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "";
}

using Metrics = std::map<std::string, double>;

// ---- run configuration ------------------------------------------------------------

/// Set-up runs at least kMinSetups times and for at least kMinSetupSeconds;
/// setup_s is the median. One set-up takes 10-100 ms, so a fixed handful
/// would leave setup_s at the mercy of a few scheduler hiccups.
constexpr int kMinSetups = 7;
constexpr double kMinSetupSeconds = 1.5;
/// A run is invalid, not a data point, when the host took more than this
/// share of the machine's CPU time away (steal) during the timed phase:
/// scheduler noise the program under test cannot cause. Generator lateness
/// is reported but does not decide validity, because the program's own CPU
/// load delays the generator's wake-ups too.
constexpr double kMaxStealFrac = 0.02;

/// Share of the machine's CPU time the host took away between two samples.
double StealShare(const Mark& a, const Mark& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool capacity = false;
  std::string work_dir = ".bench_work";
  std::string result_file;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (k == "--workload") {
      a->workload = value();
    } else if (k == "--seed") {
      a->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a->trace = value() == "1";
    } else if (k == "--smoke") {
      a->smoke = true;
    } else if (k == "--capacity") {
      a->capacity = true;
    } else if (k == "--work-dir") {
      a->work_dir = value();
    } else if (k == "--result-file") {
      a->result_file = value();
    } else if (k == "--commit") {
      a->commit = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// ---- the served system -------------------------------------------------------------

/// One engine + server instance over freshly generated tables. Declaration
/// order makes destruction run server first, then the engine (whose tables
/// own the segment files), then the block cache those tables read through.
struct Served {
  std::unique_ptr<pb::storage::BlockCache> cache;
  std::unique_ptr<pb::engine::Engine> engine;
  std::unique_ptr<pb::server::Server> server;
  std::vector<std::string> warm_replies;
};

/// Generates (and spills) the workload's tables into `catalog` through
/// `cache`; segment files go to `dir` named with `tag`.
pb::Status LoadTables(const Workload& w, const std::string& dir,
                      const std::string& tag, pb::storage::BlockCache* cache,
                      const std::function<pb::Status(pb::db::Table)>& add) {
  for (const TableSpec& spec : w.tables) {
    pb::db::Table table = GenerateTable(spec);
    if (spec.spill && cache != nullptr) {
      PB_RETURN_IF_ERROR(table.SpillToDisk(
          dir + "/" + tag + "_" + spec.kind + ".seg", w.block_size, cache));
    }
    PB_RETURN_IF_ERROR(add(std::move(table)));
  }
  return pb::Status::OK();
}

bool HasSpill(const Workload& w) {
  for (const TableSpec& t : w.tables) {
    if (t.spill) return true;
  }
  return false;
}

pb::Result<std::unique_ptr<Served>> SetUp(const Workload& w,
                                          const std::string& dir, int instance) {
  auto s = std::make_unique<Served>();
  if (HasSpill(w)) {
    s->cache = std::make_unique<pb::storage::BlockCache>(w.block_cache_bytes);
  }
  pb::engine::EngineOptions eo;
  eo.num_threads = Nproc();
  eo.incremental_maintenance = w.incremental_maintenance;
  s->engine = std::make_unique<pb::engine::Engine>(eo);
  PB_RETURN_IF_ERROR(LoadTables(
      w, dir, "served" + std::to_string(instance), s->cache.get(),
      [&](pb::db::Table t) { return s->engine->RegisterTable(std::move(t)); }));
  s->server = std::make_unique<pb::server::Server>(s->engine.get());
  PB_RETURN_IF_ERROR(s->server->Start());
  std::vector<std::string> lines;
  for (const std::string& q : w.warm_queries) lines.push_back(QueryLine(q));
  PB_RETURN_IF_ERROR(
      RunSequential(s->server->port(), lines, &s->warm_replies).status());
  return s;
}

// ---- one measured phase ---------------------------------------------------------------

struct Phase {
  PhaseResult loop;
  std::vector<std::string> warm_replies;
  pb::engine::EngineStats stats;
  double rss_peak_mb = 0.0;
};

pb::Result<Phase> RunPhase(const Workload& w, Served* s, bool trace) {
  Phase p;
  p.warm_replies = s->warm_replies;
  PB_ASSIGN_OR_RETURN(p.loop, RunOpenLoop(s->server->port(), w.ops,
                                          w.connections, trace));
  p.rss_peak_mb = PeakRssMb();
  p.stats = s->engine->stats();
  return p;
}

pb::json::Value EnvelopeOf(const Sample& s) {
  if (s.traced) return s.envelope;
  auto env = pb::json::Parse(s.reply);
  return env.ok() ? std::move(env).value() : pb::json::Value();
}

/// Generator health: lateness on a free connection, and the peak number of
/// due-but-unsent operations.
void GeneratorHealth(const PhaseResult& r, double* late_ms_p99,
                     int64_t* backlog_max) {
  std::vector<double> late;
  std::vector<std::pair<double, int>> events;
  for (const Sample& s : r.samples) {
    late.push_back(1e3 * (s.sent - std::max(s.due, s.free)));
    events.push_back({s.due, +1});
    events.push_back({s.sent, -1});
  }
  std::sort(events.begin(), events.end());
  int64_t cur = 0;
  *backlog_max = 0;
  for (const auto& e : events) {
    cur += e.second;
    *backlog_max = std::max(*backlog_max, cur);
  }
  *late_ms_p99 = Percentile(late, 99);
}

// ---- checking -------------------------------------------------------------------------

enum class Match { kIdentical, kTie, kDiffers };

/// How a served answer compares with a replayed one: the same package (or
/// error), another package of equal objective when both are proven optimal
/// (equally good packages may break ties differently under the served
/// run's warm-start history; the checker has already verified the served
/// one), or a different answer.
Match CompareAnswers(const ServedAnswer& a, const ReplayAnswer& r) {
  if (a.ok != r.status.ok()) return Match::kDiffers;
  if (!a.ok) {
    return a.error_code == pb::StatusCodeToString(r.status.code())
               ? Match::kIdentical
               : Match::kDiffers;
  }
  if (a.package == r.package) return Match::kIdentical;
  const bool tie = a.proven_optimal && r.proven_optimal &&
                   std::abs(a.objective - r.objective) <=
                       Checker::kTol * std::max(1.0, std::abs(r.objective));
  return tie ? Match::kTie : Match::kDiffers;
}

struct CheckResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;
  std::string self_test = "not run";
  int64_t ties = 0;  ///< oracle matches that are equal-objective ties
};

/// Commit order of the phase's appends: schedule indices sorted by the
/// table size their envelopes report.
std::vector<size_t> AppendCommitOrder(const Workload& w, const PhaseResult& r) {
  std::vector<std::pair<int64_t, size_t>> order;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].kind != OpKind::kAppend) continue;
    const pb::json::Value env = EnvelopeOf(r.samples[i]);
    const pb::json::Value* result = env.Find("result");
    order.push_back(
        {result != nullptr ? result->GetInt("table_rows") : INT64_MAX, i});
  }
  std::sort(order.begin(), order.end());
  std::vector<size_t> out;
  for (const auto& o : order) out.push_back(o.second);
  return out;
}

/// Builds a resident copy of the data as the phase left it.
pb::Status BuildResident(const Workload& w, const std::vector<size_t>& commits,
                         pb::db::Catalog* catalog) {
  PB_RETURN_IF_ERROR(LoadTables(w, "", "", nullptr, [&](pb::db::Table t) {
    return catalog->Register(std::move(t));
  }));
  for (size_t i : commits) {
    PB_ASSIGN_OR_RETURN(pb::db::Table * t,
                        catalog->GetMutable(w.ops[i].table));
    PB_RETURN_IF_ERROR(t->AppendRows(w.ops[i].rows));
  }
  return pb::Status::OK();
}

void Fail(CheckResult* c, const std::string& why) {
  ++c->failed;
  if (c->first_failure.empty()) c->first_failure = why;
}

/// Verifies every answer of the phase; on out-of-core, also compares each
/// package bit-for-bit with a sequential replay over resident data.
CheckResult CheckPhase(const Workload& w, const Phase& p, bool resident_replay) {
  CheckResult c;
  const std::vector<size_t> commits = AppendCommitOrder(w, p.loop);
  pb::db::Catalog resident;
  if (pb::Status s = BuildResident(w, commits, &resident); !s.ok()) {
    Fail(&c, "cannot build the resident copy: " + s.ToString());
    return c;
  }
  Checker checker(&resident);
  std::unique_ptr<Replayer> oracle;
  if (resident_replay) {
    oracle = std::make_unique<Replayer>(false, 64, nullptr);
    if (pb::Status s = BuildResident(w, {}, oracle->catalog()); !s.ok()) {
      Fail(&c, "cannot build the oracle copy: " + s.ToString());
    }
    // The served warm-start caches began with the warm-up queries.
    for (const std::string& q : w.warm_queries) oracle->Run(q);
  }
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const Sample& s = p.loop.samples[i];
    ++c.attempted;
    if (!s.transport_ok) {
      Fail(&c, "transport failure");
      continue;
    }
    const ServedAnswer a = ReadEnvelope(EnvelopeOf(s));
    if (op.kind == OpKind::kAppend) {
      if (!a.ok) Fail(&c, "append refused: " + a.error_code);
      continue;
    }
    const std::string why = checker.Check(op.paql, op.expect_infeasible, a);
    if (!why.empty()) {
      Fail(&c, why + " [" + op.paql + "]");
      continue;
    }
    if (c.self_test == "not run" && a.ok &&
        op.paql.find("COUNT(*) = ") != std::string::npos &&
        !a.package.rows.empty()) {
      const std::string st = checker.SelfTest(op.paql, a);
      c.self_test = st.empty() ? "pass" : st;
    }
    if (oracle && a.ok) {
      const Match m = CompareAnswers(a, oracle->Run(op.paql));
      if (m == Match::kDiffers) {
        Fail(&c, "served package differs from the resident replay [" +
                     op.paql + "]");
      }
      c.ties += m == Match::kTie ? 1 : 0;
    }
  }
  if (c.self_test != "pass" && c.self_test != "not run") {
    Fail(&c, "checker self-test: " + c.self_test);
  }
  return c;
}

// ---- end-to-end metrics -----------------------------------------------------------------

/// Latency from the due time, less the generator's own lateness: the wait
/// for a free connection (queueing, which the system causes) plus the round
/// trip. A late timer wake-up on a free connection is the load generator's
/// delay, not the server's; it is reported as harness.late_ms_p99.
double LatencyMs(const Sample& s) {
  return 1e3 * ((std::max(s.due, s.free) - s.due) + (s.done - s.sent));
}

std::vector<double> QueryLatenciesMs(const Workload& w, const PhaseResult& r) {
  std::vector<double> ms;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].kind == OpKind::kQuery) ms.push_back(LatencyMs(r.samples[i]));
  }
  return ms;
}

/// The phase's quiet intervals: those between consecutive marks in which
/// the host took no more of the machine's CPU time away than in the run's
/// least disturbed third of intervals. Every interval without steal is
/// quiet, which in an undisturbed run is most of them. On a shared host,
/// steal comes in bursts of seconds, and a query whose vCPU the hypervisor
/// preempts waits out another tenant's time slice, so whole-run latency
/// medians moved by half between runs of the same code. The timed metrics
/// are read over the quiet intervals. They are chosen by steal alone, never
/// by the timings in them, so a slower program still reads slower. A third
/// of a 30 s run still holds ~600 or more queries.
class Quiet {
 public:
  explicit Quiet(const PhaseResult& r) : marks_(r.marks) {
    std::vector<double> share;
    for (size_t k = 0; k + 1 < marks_.size(); ++k) {
      share.push_back(StealShare(marks_[k], marks_[k + 1]));
    }
    const double cut = Percentile(share, 100.0 / 3.0);
    for (double s : share) quiet_.push_back(s <= cut);
  }

  /// Whether time `t` (seconds since the phase start) is in a quiet
  /// interval; every time is when the phase has no intervals.
  bool At(double t) const {
    if (quiet_.empty()) return true;
    const auto after =
        std::upper_bound(marks_.begin(), marks_.end(), t,
                         [](double x, const Mark& m) { return x < m.t; });
    const ptrdiff_t k = (after - marks_.begin()) - 1;
    return quiet_[std::clamp<ptrdiff_t>(k, 0, quiet_.size() - 1)];
  }

  /// Process CPU seconds spent in the quiet intervals.
  double ProcessCpuS() const {
    double cpu = 0.0;
    for (size_t k = 0; k < quiet_.size(); ++k) {
      if (quiet_[k]) {
        cpu += marks_[k + 1].process_cpu_s - marks_[k].process_cpu_s;
      }
    }
    return quiet_.empty() ? -1.0 : cpu;
  }

  size_t intervals() const { return quiet_.size(); }
  size_t quiet_intervals() const {
    return static_cast<size_t>(std::count(quiet_.begin(), quiet_.end(), true));
  }

 private:
  const std::vector<Mark>& marks_;
  std::vector<bool> quiet_;  ///< per interval [marks_[k], marks_[k + 1])
};

/// Latencies of the queries sent in quiet intervals.
std::vector<double> QuietQueryLatenciesMs(const Workload& w,
                                          const PhaseResult& r) {
  const Quiet quiet(r);
  std::vector<double> ms;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Sample& s = r.samples[i];
    if (w.ops[i].kind == OpKind::kQuery && quiet.At(s.sent)) {
      ms.push_back(LatencyMs(s));
    }
  }
  return ms;
}

/// Process CPU per operation completed in quiet intervals, less the client
/// threads' share (their CPU per operation is near constant, so it is
/// charged in proportion to the operations counted).
double QuietCpuMsPerOp(const PhaseResult& r) {
  const Quiet quiet(r);
  int64_t completed = 0, counted = 0;
  for (const Sample& s : r.samples) {
    if (!s.transport_ok) continue;
    ++completed;
    counted += quiet.At(s.done) ? 1 : 0;
  }
  double cpu = quiet.ProcessCpuS();
  if (cpu < 0) {
    cpu = r.process_cpu_s;
    counted = completed;
  }
  const double client = r.client_cpu_s * static_cast<double>(counted) /
                        static_cast<double>(std::max<int64_t>(1, completed));
  return 1e3 * (cpu - client) /
         static_cast<double>(std::max<int64_t>(1, counted));
}

Metrics EndToEnd(const Phase& p, double setup_s) {
  Metrics m;
  m["cpu_ms_per_op"] = QuietCpuMsPerOp(p.loop);
  m["rss_peak_mb"] = p.rss_peak_mb;
  m["setup_s"] = setup_s;
  return m;
}

// ---- traced replay -----------------------------------------------------------------------

struct ReplayReport {
  Metrics layers;
  int64_t replayed = 0;
  int64_t mismatches = 0;
  int64_t ties = 0;
  std::string first_mismatch;
};

ReplayReport Replay(const Workload& w, const Phase& p, const std::string& dir,
                    int instance) {
  ReplayReport rep;
  auto mismatch = [&](const std::string& why) {
    ++rep.mismatches;
    if (rep.first_mismatch.empty()) rep.first_mismatch = why;
  };
  std::unique_ptr<pb::storage::BlockCache> cache;
  if (HasSpill(w)) {
    cache = std::make_unique<pb::storage::BlockCache>(w.block_cache_bytes);
  }
  auto replayer = std::make_unique<Replayer>(
      w.incremental_maintenance,
      pb::engine::EngineOptions().sketch_partition_size, cache.get());
  if (pb::Status s = LoadTables(
          w, dir, "replay" + std::to_string(instance), cache.get(),
          [&](pb::db::Table t) {
            return replayer->catalog()->Register(std::move(t));
          });
      !s.ok()) {
    mismatch("cannot build the replay copy: " + s.ToString());
    return rep;
  }
  // Warm-up requests first: the served caches started from them.
  for (size_t i = 0; i < w.warm_queries.size(); ++i) {
    const ReplayAnswer r = replayer->Run(w.warm_queries[i]);
    auto env = pb::json::Parse(p.warm_replies[i]);
    if (!env.ok() ||
        CompareAnswers(ReadEnvelope(*env), r) == Match::kDiffers) {
      mismatch("warm-up answer differs from the replay");
    }
  }

  // Queries in schedule order, except that each must see the table size it
  // was served at: order by (served table rows, schedule index) and apply
  // the phase's appends, in commit order, as the replay reaches them.
  struct Item {
    int64_t rows;
    size_t index;
    ServedAnswer served;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].kind != OpKind::kQuery) continue;
    const Sample& s = p.loop.samples[i];
    if (!s.transport_ok) continue;
    ServedAnswer a = ReadEnvelope(EnvelopeOf(s));
    items.push_back({a.ok ? a.table_rows : 0, i, std::move(a)});
  }
  if (w.incremental_maintenance) {
    // At equal table size the solve that filled the cache precedes the
    // hits it served, whatever order their requests were scheduled in.
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       return std::make_pair(a.rows, a.served.result_cache_hit) <
                              std::make_pair(b.rows, b.served.result_cache_hit);
                     });
  }
  const std::vector<size_t> commits = AppendCommitOrder(w, p.loop);
  size_t applied = 0;

  std::vector<double> overhead_ms, exec_ms, self_ms, parse_us, filter_ms,
      bounds_ms, translate_ms, solve_ms, sketch_ms, verify_ms;
  double bytes = 0, hits = 0, warm_hits = 0, solved = 0, rows_examined = 0,
         candidates = 0, infeasible = 0, zone = 0, nnz = 0, ilps = 0, nodes = 0,
         lp = 0, dual = 0, refactor = 0, sketches = 0, dirty = 0, reused = 0,
         sketch_lp = 0, pins = 0, reads = 0, evictions = 0, peak_pinned = 0;
  for (const Item& it : items) {
    const Op& op = w.ops[it.index];
    const Sample& s = p.loop.samples[it.index];
    const ServedAnswer& a = it.served;
    bytes += static_cast<double>(s.reply.size() + 1);
    overhead_ms.push_back(1e3 * ((s.done - s.sent) - a.total_seconds));
    exec_ms.push_back(1e3 * a.total_seconds);
    while (a.ok && applied < commits.size()) {
      const Op& ap = w.ops[commits[applied]];
      auto t = replayer->catalog()->GetMutable(ap.table);
      if (!t.ok() || static_cast<int64_t>((*t)->num_rows()) >= it.rows) break;
      if (!(*t)->AppendRows(ap.rows).ok()) mismatch("replay append failed");
      ++applied;
    }
    if (a.result_cache_hit) {
      ++hits;
      self_ms.push_back(1e3 * a.total_seconds);
      const ReplayAnswer* last = replayer->Last(op.paql);
      if (last == nullptr || CompareAnswers(a, *last) == Match::kDiffers) {
        mismatch("cache hit differs from the replay [" + op.paql + "]");
      }
      continue;
    }
    const ReplayAnswer r = replayer->Run(op.paql);
    ++rep.replayed;
    const Match match = CompareAnswers(a, r);
    if (match == Match::kDiffers) {
      mismatch("served answer differs from the replay [" + op.paql + "]");
    }
    rep.ties += match == Match::kTie ? 1 : 0;
    const LayerSpans& sp = r.spans;
    self_ms.push_back(1e3 * (a.total_seconds - sp.EngineLeaves()));
    parse_us.push_back(1e6 * sp.parse);
    filter_ms.push_back(1e3 * sp.filter);
    bounds_ms.push_back(1e3 * sp.bounds);
    verify_ms.push_back(1e3 * sp.verify);
    rows_examined += static_cast<double>(sp.rows_examined);
    candidates += static_cast<double>(sp.candidates);
    infeasible += sp.infeasible ? 1 : 0;
    zone += static_cast<double>(sp.zone_skipped_blocks);
    if (a.ok) {
      ++solved;
      warm_hits += a.warm_start_hit ? 1 : 0;
    }
    if (sp.ilp) {
      ++ilps;
      translate_ms.push_back(1e3 * (sp.translate + sp.decode));
      solve_ms.push_back(1e3 * sp.solve);
      nnz += static_cast<double>(sp.model_nnz);
      nodes += static_cast<double>(sp.nodes);
      lp += static_cast<double>(sp.lp_iterations);
      dual += static_cast<double>(sp.dual_iterations);
      refactor += static_cast<double>(sp.refactorizations);
    }
    if (sp.sketch) {
      ++sketches;
      sketch_ms.push_back(1e3 * sp.sketch_refine);
      dirty += static_cast<double>(sp.dirty_groups);
      reused += static_cast<double>(sp.groups_reused);
      sketch_lp += static_cast<double>(sp.sketch_lp_iterations);
    }
    pins += static_cast<double>(sp.pins);
    reads += static_cast<double>(sp.block_reads);
    evictions += static_cast<double>(sp.evictions);
    peak_pinned = std::max(peak_pinned, static_cast<double>(sp.peak_pinned_bytes));
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double n = static_cast<double>(std::max<int64_t>(1, rep.replayed));
  const double queries = static_cast<double>(items.size());
  Metrics& m = rep.layers;
  m["server.overhead_ms_p50"] = Percentile(overhead_ms, 50);
  m["server.overhead_ms_p99"] = Percentile(overhead_ms, 99);
  m["server.response_bytes_mean"] = ratio(bytes, queries);
  m["engine.exec_ms_p50"] = Percentile(exec_ms, 50);
  m["engine.exec_ms_p99"] = Percentile(exec_ms, 99);
  m["engine.self_ms_p50"] = Percentile(self_ms, 50);
  m["engine.result_cache_hit_ratio"] = ratio(hits, queries);
  m["engine.warm_hit_ratio"] = ratio(warm_hits, solved);
  m["engine.revalidations_per_append"] =
      ratio(static_cast<double>(p.stats.revalidations),
            static_cast<double>(commits.size()));
  m["paql.parse_us_p50"] = Percentile(parse_us, 50);
  m["db.filter_ms_p50"] = Percentile(filter_ms, 50);
  m["db.rows_examined_per_result"] = ratio(rows_examined, candidates);
  m["pruning.bounds_ms_p50"] = Percentile(bounds_ms, 50);
  m["pruning.infeasible_frac"] = infeasible / n;
  m["pruning.zone_skipped_blocks_per_query"] = zone / n;
  m["translator.ms_p50"] = Percentile(translate_ms, 50);
  m["translator.model_nnz_mean"] = ratio(nnz, ilps);
  m["solver.ms_p50"] = Percentile(solve_ms, 50);
  m["solver.ms_p99"] = Percentile(solve_ms, 99);
  m["solver.nodes_per_query"] = ratio(nodes, ilps);
  m["solver.lp_iterations_per_query"] = ratio(lp, ilps);
  m["solver.dual_iteration_share"] = ratio(dual, lp);
  m["solver.refactorizations_per_query"] = ratio(refactor, ilps);
  m["sketch_refine.ms_p50"] = Percentile(sketch_ms, 50);
  m["sketch_refine.dirty_groups_per_query"] = ratio(dirty, sketches);
  m["sketch_refine.groups_reused_ratio"] = ratio(reused, reused + dirty);
  m["sketch_refine.lp_iterations_per_query"] = ratio(sketch_lp, sketches);
  m["storage.pins_per_query"] = pins / n;
  m["storage.block_reads_per_query"] = reads / n;
  m["storage.block_hit_ratio"] = ratio(pins - reads, pins);
  m["storage.evictions_per_query"] = evictions / n;
  m["storage.peak_pinned_mb"] = peak_pinned / (1024.0 * 1024.0);
  m["package.verify_ms_p50"] = Percentile(verify_ms, 50);
  return rep;
}

// ---- output -------------------------------------------------------------------------------

pb::json::Value MetricsJson(const Metrics& m) {
  pb::json::Value out = pb::json::Value::Object();
  for (const auto& [name, value] : m) {
    pb::json::Value v = pb::json::Value::Object();
    v.Set("value", pb::json::Value::Number(value));
    v.Set("unit", pb::json::Value::Str(UnitOf(name)));
    out.Set(name, std::move(v));
  }
  return out;
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, value] : m) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), value, UnitOf(name));
  }
}

bool SpillFilesLeft(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".seg") return true;
  }
  return false;
}

int Run(const Args& args) {
  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::fprintf(stderr, "pbbench: refusing to report timings: %s\n",
                 refusal.c_str());
    return 3;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.seconds, args.smoke, &w)) {
    std::fprintf(stderr, "pbbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.capacity) {
    for (Op& op : w.ops) op.due_s = 0.0;  // closed loop: always due
  }
  const std::string dir =
      args.work_dir + "/spill_" + std::to_string(::getpid());
  fs::create_directories(dir);

  // -- set-up, several times; the last instance is measured.
  const int min_setups = args.smoke ? 2 : kMinSetups;
  const double min_setup_s = args.smoke ? 0.0 : kMinSetupSeconds;
  std::vector<double> setups;
  std::unique_ptr<Served> served;
  int instances = 0;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setups.size()) < min_setups ||
         std::chrono::duration<double>(Clock::now() - setup_start).count() <
             min_setup_s) {
    served.reset();
    const Clock::time_point t0 = Clock::now();
    auto s = SetUp(w, dir, instances++);
    if (!s.ok()) {
      std::fprintf(stderr, "pbbench: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    served = std::move(s).value();
  }
  const double setup_s = Percentile(setups, 50);

  // -- the timed phase.
  auto timed = RunPhase(w, served.get(), /*trace=*/false);
  served.reset();
  if (!timed.ok()) {
    std::fprintf(stderr, "pbbench: phase failed: %s\n",
                 timed.status().ToString().c_str());
    return 1;
  }
  const Phase phase = std::move(timed).value();
  double late_ms = 0.0;
  int64_t backlog = 0;
  GeneratorHealth(phase.loop, &late_ms, &backlog);
  const std::vector<Mark>& marks = phase.loop.marks;
  const double steal_frac = StealShare(marks.front(), marks.back());
  const Quiet quiet(phase.loop);
  const bool valid = steal_frac <= kMaxStealFrac;

  const Metrics e2e = EndToEnd(phase, setup_s);
  const std::vector<double> query_ms = QueryLatenciesMs(w, phase.loop);
  const std::vector<double> quiet_ms = QuietQueryLatenciesMs(w, phase.loop);
  const double query_p50_ms = Percentile(quiet_ms, 50);
  const double query_p50_all_ms = Percentile(query_ms, 50);
  const double query_p99_ms = Percentile(query_ms, 99);
  CheckResult check = CheckPhase(w, phase, w.name == "out-of-core");

  // -- the traced run: same schedule on a fresh instance, then the replay.
  Metrics layers;
  ReplayReport replay;
  if (args.trace) {
    auto s = SetUp(w, dir, instances++);
    if (!s.ok()) return 1;
    auto p = RunPhase(w, s->get(), /*trace=*/true);
    s->reset();
    if (!p.ok()) return 1;
    const double traced_p50_ms =
        Percentile(QuietQueryLatenciesMs(w, p->loop), 50);
    CheckResult tc = CheckPhase(w, *p, false);
    check.attempted += tc.attempted;
    check.failed += tc.failed;
    if (check.first_failure.empty()) check.first_failure = tc.first_failure;
    replay = Replay(w, *p, dir, instances);
    layers = replay.layers;
    double traced_late = 0.0;
    int64_t traced_backlog = 0;
    GeneratorHealth(p->loop, &traced_late, &traced_backlog);
    layers["harness.late_ms_p99"] = traced_late;
    layers["harness.trace_overhead_frac"] =
        query_p50_ms > 0 ? traced_p50_ms / query_p50_ms - 1.0 : 0.0;
    // Appends as seen at the server/engine boundary: the append
    // workload's stream (zero on the others, which send none).
    std::vector<double> append_ms;
    for (size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].kind != OpKind::kAppend) continue;
      const Sample& sm = p->loop.samples[i];
      append_ms.push_back(1e3 * (sm.done - sm.sent));
    }
    layers["engine.append_ms_p50"] = Percentile(append_ms, 50);
    layers["engine.append_ms_p99"] = Percentile(append_ms, 99);
  }
  const bool spill_clean = !SpillFilesLeft(dir);
  std::error_code ec;
  fs::remove_all(dir, ec);

  // -- report.
  const bool correct =
      check.failed == 0 && replay.mismatches == 0 && spill_clean;
  const int64_t failed = check.failed + replay.mismatches;
  int64_t queries = 0;
  for (const Op& op : w.ops) queries += op.kind == OpKind::kQuery ? 1 : 0;

  std::printf("workload %s  seed %llu  offered %.1f ops/s  %zu ops (%lld "
              "queries)  %.1f s  %zu set-ups\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.rate, w.ops.size(), static_cast<long long>(queries),
              args.seconds, setups.size());
  std::printf("build %s  compiler %s  nproc %d  commit %s\n", PBB_BUILD_TYPE,
              PBB_COMPILER, Nproc(), args.commit.c_str());
  if (args.capacity) {
    std::printf("capacity %.1f ops/s (closed loop, %d connections)\n",
                static_cast<double>(w.ops.size()) / phase.loop.wall_s,
                w.connections);
  }
  std::printf("generator: late p99 %.3f ms, backlog max %lld; host steal "
              "%.2f%%; %s\n",
              late_ms, static_cast<long long>(backlog), 100.0 * steal_frac,
              valid ? "valid" : "INVALID (host steal above 2%)");
  std::printf("checker: %lld attempted, %lld failed, failed_frac %.6g "
              "(ratio), self-test %s%s%s\n",
              static_cast<long long>(check.attempted),
              static_cast<long long>(failed),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<int64_t>(1, check.attempted)),
              check.self_test.c_str(),
              check.first_failure.empty() ? "" : "; first failure: ",
              check.first_failure.c_str());
  PrintMetrics("end-to-end:", e2e);
  std::printf("latency (reported, not a benchmark metric): query_p50_ms "
              "%.6g ms over the %zu queries of %zu quiet intervals of %zu "
              "(%.6g ms over all); query_p99_ms %.6g ms over all %zu\n",
              query_p50_ms, quiet_ms.size(), quiet.quiet_intervals(),
              quiet.intervals(), query_p50_all_ms, query_p99_ms,
              query_ms.size());
  if (args.trace) {
    std::printf("replay: %lld requests replayed, %lld mismatches%s%s\n",
                static_cast<long long>(replay.replayed),
                static_cast<long long>(replay.mismatches),
                replay.first_mismatch.empty() ? "" : "; first: ",
                replay.first_mismatch.c_str());
    PrintMetrics("per-layer:", layers);
  }
  if (!spill_clean) std::printf("spilled segment files were left behind\n");

  pb::json::Value stamp = pb::json::Value::Object();
  stamp.Set("build_type", pb::json::Value::Str(PBB_BUILD_TYPE));
  stamp.Set("compiler", pb::json::Value::Str(PBB_COMPILER));
  stamp.Set("nproc", pb::json::Value::Int(Nproc()));
  stamp.Set("commit", pb::json::Value::Str(args.commit));
  stamp.Set("workload", pb::json::Value::Str(w.name));
  stamp.Set("seed", pb::json::Value::Int(static_cast<int64_t>(args.seed)));
  stamp.Set("offered_rate", pb::json::Value::Number(w.rate));
  stamp.Set("seconds", pb::json::Value::Number(args.seconds));
  stamp.Set("trace", pb::json::Value::Bool(args.trace));
  stamp.Set("smoke", pb::json::Value::Bool(args.smoke));

  pb::json::Value result = pb::json::Value::Object();
  result.Set("correct", pb::json::Value::Bool(correct));
  result.Set("attempted", pb::json::Value::Int(check.attempted));
  result.Set("failed", pb::json::Value::Int(failed));
  result.Set("metrics", MetricsJson(args.trace ? layers : e2e));

  if (!args.result_file.empty()) {
    pb::json::Value full = pb::json::Value::Object();
    full.Set("stamp", stamp);
    full.Set("correct", pb::json::Value::Bool(correct));
    full.Set("valid", pb::json::Value::Bool(valid));
    full.Set("attempted", pb::json::Value::Int(check.attempted));
    full.Set("failed", pb::json::Value::Int(failed));
    full.Set("failed_frac",
             pb::json::Value::Number(
                 static_cast<double>(failed) /
                 static_cast<double>(std::max<int64_t>(1, check.attempted))));
    full.Set("checker_self_test", pb::json::Value::Str(check.self_test));
    full.Set("setups",
             pb::json::Value::Int(static_cast<int64_t>(setups.size())));
    full.Set("generator_late_ms_p99", pb::json::Value::Number(late_ms));
    full.Set("generator_backlog_max", pb::json::Value::Int(backlog));
    full.Set("host_steal_frac", pb::json::Value::Number(steal_frac));
    full.Set("replayed", pb::json::Value::Int(replay.replayed));
    full.Set("replay_mismatches", pb::json::Value::Int(replay.mismatches));
    full.Set("replay_ties", pb::json::Value::Int(replay.ties + check.ties));
    full.Set("first_mismatch", pb::json::Value::Str(replay.first_mismatch));
    full.Set("first_failure", pb::json::Value::Str(check.first_failure));
    full.Set("spill_files_removed", pb::json::Value::Bool(spill_clean));
    full.Set("end_to_end", MetricsJson(e2e));
    full.Set("query_p99_ms", pb::json::Value::Number(query_p99_ms));
    full.Set("query_p50_ms", pb::json::Value::Number(query_p50_ms));
    full.Set("query_p50_all_ms", pb::json::Value::Number(query_p50_all_ms));
    full.Set("quiet_queries",
             pb::json::Value::Int(static_cast<int64_t>(quiet_ms.size())));
    pb::json::Value steal = pb::json::Value::Array();
    for (size_t k = 0; k + 1 < marks.size(); ++k) {
      steal.Push(pb::json::Value::Number(StealShare(marks[k], marks[k + 1])));
    }
    full.Set("interval_steal_frac", std::move(steal));
    full.Set("per_layer", MetricsJson(layers));
    std::ofstream(args.result_file) << full.Dump() << "\n";
  }
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace pbb

int main(int argc, char** argv) {
  pbb::Args args;
  if (!pbb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pbbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--capacity] [--work-dir DIR] "
                 "[--result-file FILE] [--commit ID]\n");
    return 2;
  }
  return pbb::Run(args);
}
