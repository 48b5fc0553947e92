// E3 — Evaluation-strategy comparison (§4).
//
// The paper positions brute force as "impractical", the constraint solver
// as the exact workhorse, and heuristics as fast-but-incomplete. This bench
// regenerates that comparison on the meal-planner query family across
// candidate-set sizes. Reported per (strategy, n): wall time, objective
// achieved (quality), and success. Brute force is only run at sizes where
// it terminates within the budget — its absence from larger rows IS the
// paper's claim.

#include <benchmark/benchmark.h>

#include "core/evaluator.h"
#include "core/pruning.h"
#include "core/translator.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "db/ops.h"
#include "paql/analyzer.h"
#include "solver/milp.h"

namespace {

using pb::core::EvaluationOptions;
using pb::core::QueryEvaluator;
using pb::core::Strategy;

std::string QueryFor(size_t n) {
  (void)n;  // one query family across sizes
  // The calories window scales with n so the instance stays feasible and
  // non-trivial at every size.
  return "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
         "SUCH THAT COUNT(*) = 5 AND SUM(calories) BETWEEN 2000 AND 2600 "
         "MAXIMIZE SUM(protein)";
}

void RunStrategy(benchmark::State& state, Strategy strategy, size_t n) {
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(n, 7));
  auto aq = pb::paql::ParseAndAnalyze(QueryFor(n), catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  QueryEvaluator evaluator(&catalog);
  EvaluationOptions opts;
  opts.strategy = strategy;
  opts.brute_force.time_limit_s = 5.0;
  opts.brute_force.max_nodes = 40'000'000;
  opts.local_search.time_limit_s = 5.0;
  double objective = 0.0;
  int success = 0, proven = 0, runs = 0;
  for (auto _ : state) {
    auto r = evaluator.Evaluate(*aq, opts);
    ++runs;
    if (r.ok()) {
      ++success;
      proven += r->proven_optimal ? 1 : 0;
      objective = r->objective;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["objective"] = objective;
  state.counters["success"] = runs ? static_cast<double>(success) / runs : 0;
  state.counters["proven_optimal"] =
      runs ? static_cast<double>(proven) / runs : 0;
}

void BM_Ilp(benchmark::State& state) {
  RunStrategy(state, Strategy::kIlpSolver,
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Ilp)->Arg(10)->Arg(30)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForce(benchmark::State& state) {
  RunStrategy(state, Strategy::kBruteForce,
              static_cast<size_t>(state.range(0)));
}
// Brute force stops at 30: the 2^n wall (the paper's "impractical").
BENCHMARK(BM_BruteForce)->Arg(10)->Arg(20)->Arg(30)
    ->Unit(benchmark::kMillisecond);

void BM_LocalSearch(benchmark::State& state) {
  RunStrategy(state, Strategy::kLocalSearch,
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_LocalSearch)->Arg(10)->Arg(30)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_Hybrid(benchmark::State& state) {
  RunStrategy(state, Strategy::kAuto, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Hybrid)->Arg(10)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

/// Ablation: the solver path with and without the §4.1 cardinality row,
/// translated and solved directly (the evaluator always adds the row).
void BM_IlpPruningAblation(benchmark::State& state) {
  const bool use_pruning = state.range(0) != 0;
  const size_t n = static_cast<size_t>(state.range(1));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(n, 7));
  auto aq = pb::paql::ParseAndAnalyze(QueryFor(n), catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  auto candidates = pb::db::FilterIndices(*aq->table, aq->query.where);
  if (!candidates.ok()) {
    state.SkipWithError(candidates.status().ToString().c_str());
    return;
  }
  auto bounds = pb::core::DeriveCardinalityBounds(*aq, *candidates);
  if (!bounds.ok()) {
    state.SkipWithError(bounds.status().ToString().c_str());
    return;
  }
  double nodes = 0;
  for (auto _ : state) {
    pb::core::TranslateOptions topts;
    if (use_pruning) topts.bounds = &*bounds;
    auto translation = pb::core::TranslateToIlp(*aq, topts);
    if (!translation.ok()) {
      state.SkipWithError(translation.status().ToString().c_str());
      return;
    }
    auto r = pb::solver::SolveMilp(translation->model);
    if (r.ok()) nodes = static_cast<double>(r->nodes);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["pruning"] = use_pruning ? 1 : 0;
  state.counters["bnb_nodes"] = nodes;
}
BENCHMARK(BM_IlpPruningAblation)
    ->Args({0, 1000})->Args({1, 1000})->Args({0, 5000})->Args({1, 5000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
