// E6 — SketchRefine vs Direct ILP (the §5 scalability direction; the
// follow-up PaQL paper's headline experiment, on the TPC-H-style lineitem
// workload).
//
// Reported per n: Direct solve time vs SketchRefine time, plus the
// approximation ratio (SketchRefine objective / Direct objective — 1.0 is
// exact). The partition-size sweep is the design-choice ablation from
// DESIGN.md: smaller tau means finer groups, better quality, bigger sketch.

#include <benchmark/benchmark.h>

#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace {

using pb::core::EvaluationOptions;
using pb::core::QueryEvaluator;
using pb::core::SketchRefine;
using pb::core::SketchRefineOptions;
using pb::core::Strategy;

constexpr const char* kQuery =
    "SELECT PACKAGE(L) FROM lineitem L "
    "SUCH THAT COUNT(*) = 10 AND SUM(quantity) <= 250 AND "
    "SUM(extendedprice) BETWEEN 2000 AND 60000 "
    "MAXIMIZE SUM(revenue)";

void BM_Direct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(n, 5));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  QueryEvaluator evaluator(&catalog);
  EvaluationOptions opts;
  opts.strategy = Strategy::kIlpSolver;
  opts.milp.time_limit_s = 60.0;  // honest budget: Direct degrades with n
  double objective = 0, proven = 0;
  for (auto _ : state) {
    auto r = evaluator.Evaluate(*aq, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    objective = r->objective;
    proven = r->proven_optimal ? 1 : 0;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["objective"] = objective;
  state.counters["proven_optimal"] = proven;
}
// Large sizes are omitted for Direct: branch-and-bound over the full
// relation already exceeds the interactive budget — which is the
// experiment's point; SketchRefine below runs the same sizes and beyond.
BENCHMARK(BM_Direct)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SketchRefine(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(n, 5));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  SketchRefineOptions opts;
  opts.partition_size = 64;
  opts.milp.time_limit_s = 30.0;
  double objective = 0, partitions = 0, sketch_s = 0, refine_s = 0;
  int found = 0, runs = 0;
  for (auto _ : state) {
    auto r = SketchRefine(*aq, opts);
    ++runs;
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    if (r->found) {
      ++found;
      objective = r->objective;
    }
    partitions = static_cast<double>(r->num_partitions);
    sketch_s = r->sketch_seconds;
    refine_s = r->refine_seconds;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["objective"] = objective;
  state.counters["partitions"] = partitions;
  state.counters["sketch_s"] = sketch_s;
  state.counters["refine_s"] = refine_s;
  state.counters["success"] = runs ? static_cast<double>(found) / runs : 0;
}
BENCHMARK(BM_SketchRefine)->Arg(1000)->Arg(5000)->Arg(20000)->Arg(100000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Refine-phase thread scaling: identical objectives at every thread count
// (the refine merge is deterministic); only refine_s wall-clock moves.
// The query's tight two-sided windows defeat the solver's dive heuristic,
// so each group's sub-ILP does real branch-and-bound work — the regime
// where fanning the independent solves across cores pays. Budgets are in
// nodes, not seconds, so the work is identical on any machine. Speedup is
// bounded by the number of groups the sketch selects and the core count.
constexpr const char* kTightQuery =
    "SELECT PACKAGE(L) FROM lineitem L "
    "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
    "SUM(extendedprice) BETWEEN 50000 AND 51000 "
    "MAXIMIZE SUM(revenue)";

void BM_RefineThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(50000, 5));
  auto aq = pb::paql::ParseAndAnalyze(kTightQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  SketchRefineOptions opts;
  opts.partition_size = 512;
  opts.threads = threads;
  opts.milp.max_nodes = 3000;
  opts.milp.time_limit_s = 1e9;  // node budget is the deterministic limit
  double objective = 0, refine_s = 0, refine_ilps = 0, repairs = 0;
  for (auto _ : state) {
    auto r = SketchRefine(*aq, opts);
    if (!r.ok() || !r->found) {
      state.SkipWithError("sketch-refine failed");
      return;
    }
    objective = r->objective;
    refine_s = r->refine_seconds;
    refine_ilps = static_cast<double>(r->refine_ilps_solved);
    repairs = static_cast<double>(r->repair_passes);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["objective"] = objective;
  state.counters["refine_s"] = refine_s;
  state.counters["refine_ilps"] = refine_ilps;
  state.counters["repair_passes"] = repairs;
}
BENCHMARK(BM_RefineThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Solver warm starts on a BM_RefineThreads-class workload: each
// branch-and-bound node inherits its parent's basis, bases chain through
// the dive heuristic, and per-group root bases + pseudocost history carry
// across the refine/repair sub-ILP sequence. Every sub-ILP runs to proven
// optimality (no node budget), so lp_iterations is a clean substrate-cost
// counter.
void BM_RefineWarmStart(benchmark::State& state) {
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(20000, 5));
  auto aq = pb::paql::ParseAndAnalyze(kTightQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  SketchRefineOptions opts;
  opts.partition_size = 256;
  opts.milp.time_limit_s = 120.0;
  double objective = 0, lp_iters = 0, ilps = 0;
  for (auto _ : state) {
    auto r = SketchRefine(*aq, opts);
    if (!r.ok() || !r->found) {
      state.SkipWithError("sketch-refine failed");
      return;
    }
    objective = r->objective;
    lp_iters = static_cast<double>(r->lp_iterations);
    ilps = static_cast<double>(r->refine_ilps_solved);
  }
  state.counters["objective"] = objective;
  state.counters["lp_iterations"] = lp_iters;
  state.counters["refine_ilps"] = ilps;
}
BENCHMARK(BM_RefineWarmStart)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_PartitionSizeSweep(benchmark::State& state) {
  const size_t tau = static_cast<size_t>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(10000, 5));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  SketchRefineOptions opts;
  opts.partition_size = tau;
  opts.milp.time_limit_s = 30.0;
  double objective = 0, sketch_vars = 0;
  for (auto _ : state) {
    auto r = SketchRefine(*aq, opts);
    if (!r.ok() || !r->found) {
      state.SkipWithError("sketch-refine failed");
      return;
    }
    objective = r->objective;
    sketch_vars = static_cast<double>(r->sketch_variables);
  }
  state.counters["tau"] = static_cast<double>(tau);
  state.counters["objective"] = objective;
  state.counters["sketch_vars"] = sketch_vars;
}
BENCHMARK(BM_PartitionSizeSweep)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
