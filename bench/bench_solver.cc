// E7 — Solver substrate microbenchmarks.
//
// The engine's "state-of-the-art constraint solver" stand-in must be fast
// enough that the strategy comparison (E3) measures the algorithms, not the
// substrate. Reported: simplex time/iterations vs variable count on
// package-shaped LPs (few rows, many columns), branch-and-bound node counts
// on knapsack-style ILPs, the dense reference backend against the sparse
// LU, and devex pricing against the Bland anti-cycling fallback.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "engine/engine.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace {

using pb::solver::kInfinity;
using pb::solver::LinearTerm;
using pb::solver::LpModel;
using pb::solver::MilpOptions;
using pb::solver::ObjectiveSense;
using pb::solver::SimplexOptions;

/// A package-shaped LP/ILP: n binary(-relaxed) columns, a handful of rows.
/// `shift` drifts the constraint ranges without changing the structure —
/// the SketchRefine-repair re-solve pattern the cross-solve bench uses.
LpModel PackageShapedLp(int n, uint64_t seed, bool integer = false,
                        double shift = 0.0) {
  pb::Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight, cost;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), integer);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    cost.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 2000 + shift, 2600 + shift);
  m.AddConstraint("cost", cost, -kInfinity, 120 + shift / 100.0);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

void BM_SimplexPackageShaped(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel m = PackageShapedLp(n, 3);
  int64_t iters = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = r->iterations;
  }
  state.counters["n"] = n;
  // Named lp_iterations (not "iterations") so it neither collides with
  // Google Benchmark's builtin JSON field nor escapes the regression gate.
  state.counters["lp_iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_SimplexPackageShaped)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SimplexPricingAblation(benchmark::State& state) {
  const bool bland = state.range(0) != 0;
  LpModel m = PackageShapedLp(2000, 7);
  SimplexOptions opts;
  opts.always_bland = bland;
  int64_t iters = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m, opts);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = r->iterations;
  }
  state.SetLabel(bland ? "bland" : "devex");
  state.counters["lp_iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_SimplexPricingAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Factorization backend on one mid-size package LP: the dense reference
// inverse against the sparse LU. Both arms land on the same vertex (same
// objective and lp_iterations); refactorizations/basis_updates show the
// factorization-layer work the regression gate tracks.
void BM_SimplexEngineAblation(benchmark::State& state) {
  const bool sparse = state.range(0) != 0;
  LpModel m = PackageShapedLp(5000, 7);
  SimplexOptions opts;
  opts.factorization = sparse ? pb::solver::FactorizationKind::kSparseLu
                              : pb::solver::FactorizationKind::kDense;
  double iters = 0, refactors = 0, updates = 0, objective = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m, opts);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = static_cast<double>(r->iterations);
    refactors = static_cast<double>(r->refactorizations);
    updates = static_cast<double>(r->basis_updates);
    objective = r->objective;
  }
  state.SetLabel(sparse ? "sparse_lu" : "dense");
  state.counters["lp_iterations"] = iters;
  state.counters["refactorizations"] = refactors;
  state.counters["basis_updates"] = updates;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_SimplexEngineAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The scale workload (mirrored by tests/slow/test_sparse_scale.cc): n
/// candidates in n/256 groups, a global COUNT row plus one cardinality row
/// per group — 2n nonzeros, n/256 + 1 rows. Row counts in the thousands
/// are exactly where the dense inverse's O(m^2)-per-solve /
/// O(m^3)-per-refactorization wall sits; the sparse LU keeps this matrix
/// fill-free and solves the million-variable relaxation in seconds.
LpModel ScaleLp(int n, uint64_t seed) {
  const int groups = n / 256;
  pb::Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count;
  std::vector<std::vector<LinearTerm>> group_rows(groups);
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), false);
    count.push_back({j, 1.0});
    group_rows[j % groups].push_back({j, 1.0});
  }
  const double k = groups / 4.0;
  m.AddConstraint("count", std::move(count), k, k);
  for (int g = 0; g < groups; ++g) {
    m.AddConstraint("group" + std::to_string(g), std::move(group_rows[g]),
                    -kInfinity, 1.0);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

// Scale headline: the sparse backend walks up to a million variables
// (4097 rows); the dense arm runs only at the smallest size, as the
// ablation reference point this family grows away from.
void BM_SparseSimplexScale(benchmark::State& state) {
  const bool sparse = state.range(0) != 0;
  const int n = static_cast<int>(state.range(1));
  LpModel m = ScaleLp(n, 42);
  SimplexOptions opts;
  opts.factorization = sparse ? pb::solver::FactorizationKind::kSparseLu
                              : pb::solver::FactorizationKind::kDense;
  double iters = 0, refactors = 0, objective = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m, opts);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = static_cast<double>(r->iterations);
    refactors = static_cast<double>(r->refactorizations);
    objective = r->objective;
  }
  state.SetLabel(sparse ? "sparse_lu" : "dense");
  state.counters["n"] = n;
  state.counters["lp_iterations"] = iters;
  state.counters["refactorizations"] = refactors;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_SparseSimplexScale)
    ->Args({0, 65536})
    ->Args({1, 65536})
    ->Args({1, 262144})
    ->Args({1, 1048576})
    ->Unit(benchmark::kMillisecond);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  pb::Rng rng(11);
  LpModel m;
  std::vector<LinearTerm> cap;
  double total_w = 0;
  for (int j = 0; j < n; ++j) {
    double w = rng.UniformReal(1.0, 30.0);
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  w * rng.UniformReal(0.8, 1.2), true);  // correlated: hard
    cap.push_back({j, w});
    total_w += w;
  }
  m.AddConstraint("cap", cap, -kInfinity, total_w / 2);
  m.SetSense(ObjectiveSense::kMaximize);
  double nodes = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.time_limit_s = 30.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    nodes = static_cast<double>(r->nodes);
  }
  state.counters["n"] = n;
  state.counters["bnb_nodes"] = nodes;
}
BENCHMARK(BM_MilpKnapsack)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// A package-shaped ILP with tight two-sided windows (real branch-and-bound
// work): every child LP re-solved from its parent's basis by the dual
// simplex, after node presolve and reduced-cost tightening. lp_iterations
// and lp_dual_iterations are the child re-solve cost; the presolve and
// reduced-cost counters are determinism canaries.
void BM_MilpTightWindow(benchmark::State& state) {
  pb::Rng rng(17);
  LpModel m;
  std::vector<LinearTerm> count, weight, price;
  for (int j = 0; j < 400; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    price.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 8, 8);
  m.AddConstraint("weight", weight, 3600, 3700);
  m.AddConstraint("price", price, 120, 160);
  m.SetSense(ObjectiveSense::kMaximize);
  double iters = 0, dual_iters = 0, nodes = 0, objective = 0;
  double fixed = 0, pruned = 0, rc_tightened = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.max_nodes = 20000;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    iters = static_cast<double>(r->lp_iterations);
    dual_iters = static_cast<double>(r->lp_dual_iterations);
    nodes = static_cast<double>(r->nodes);
    objective = r->objective;
    fixed = static_cast<double>(r->presolve_fixed_bounds);
    pruned = static_cast<double>(r->presolve_infeasible_children);
    rc_tightened = static_cast<double>(r->reduced_cost_tightenings);
  }
  state.counters["lp_iterations"] = iters;
  state.counters["lp_dual_iterations"] = dual_iters;
  state.counters["bnb_nodes"] = nodes;
  state.counters["objective"] = objective;
  state.counters["presolve_fixed_bounds"] = fixed;
  state.counters["presolve_infeasible_children"] = pruned;
  state.counters["reduced_cost_tightenings"] = rc_tightened;
}
BENCHMARK(BM_MilpTightWindow)->Unit(benchmark::kMillisecond);

// Node presolve on a propagation-heavy shape: small COUNT = k over integer
// weights with a half-open SUM window, so branched children frequently
// become infeasible by bound propagation alone and COUNT saturation fixes
// implied binaries. presolve_fixed_bounds and presolve_infeasible_children
// are the canaries.
void BM_MilpNodePresolve(benchmark::State& state) {
  pb::Rng rng(21);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 60; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, 3, 3);
  m.AddConstraint("weight", weight, 800.5, 801.0);
  m.SetSense(ObjectiveSense::kMaximize);
  double iters = 0, nodes = 0, fixed = 0, pruned = 0, objective = 0;
  double rc_tightened = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    iters = static_cast<double>(r->lp_iterations);
    nodes = static_cast<double>(r->nodes);
    fixed = static_cast<double>(r->presolve_fixed_bounds);
    pruned = static_cast<double>(r->presolve_infeasible_children);
    rc_tightened = static_cast<double>(r->reduced_cost_tightenings);
    objective = r->objective;
  }
  state.counters["lp_iterations"] = iters;
  state.counters["bnb_nodes"] = nodes;
  state.counters["presolve_fixed_bounds"] = fixed;
  state.counters["presolve_infeasible_children"] = pruned;
  state.counters["reduced_cost_tightenings"] = rc_tightened;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_MilpNodePresolve)->Unit(benchmark::kMillisecond);

// Cross-solve reuse: one MilpWarmStart threaded through a sequence of
// structurally identical solves whose constraint ranges drift (the
// SketchRefine repair pattern). The second and later solves start from the
// first solve's root basis and branching history.
void BM_MilpCrossSolveReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  double iters = 0;
  for (auto _ : state) {
    pb::solver::MilpWarmStart warm;
    int64_t total = 0;
    // Same structure each solve, drifting ranges — exactly what the
    // SketchRefine repair pass re-solves after residual drift.
    for (int shift = 0; shift < 8; ++shift) {
      LpModel m =
          PackageShapedLp(1000, 29, /*integer=*/true, /*shift=*/10.0 * shift);
      MilpOptions opts;
      opts.warm = reuse ? &warm : nullptr;
      opts.max_nodes = 4000;
      auto r = pb::solver::SolveMilp(m, opts);
      if (!r.ok()) {
        state.SkipWithError("MILP failed");
        return;
      }
      total += r->lp_iterations;
    }
    iters = static_cast<double>(total);
  }
  state.SetLabel(reuse ? "reuse" : "independent");
  state.counters["lp_iterations"] = iters;
}
BENCHMARK(BM_MilpCrossSolveReuse)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// A branchy COUNT-window ILP (the node-presolve bench's shape scaled up to
// a few hundred nodes): the search-throughput trend. The deterministic
// counters (bnb_nodes, lp_iterations, objective) are gated against the
// checked-in baseline; nodes_per_sec is a wall-clock trend only.
void BM_MilpBranchyTree(benchmark::State& state) {
  pb::Rng rng(33);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 120; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 1500.5, 1501.0);
  m.SetSense(ObjectiveSense::kMaximize);
  double nodes = 0, iters = 0, objective = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.max_nodes = 200000;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || r->status != pb::solver::MilpStatus::kOptimal) {
      state.SkipWithError("MILP not optimal");
      return;
    }
    nodes = static_cast<double>(r->nodes);
    iters = static_cast<double>(r->lp_iterations);
    objective = r->objective;
  }
  state.counters["bnb_nodes"] = nodes;
  state.counters["lp_iterations"] = iters;
  state.counters["objective"] = objective;
  state.counters["nodes_per_sec"] =
      benchmark::Counter(nodes, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MilpBranchyTree)->Unit(benchmark::kMillisecond);

// Facade-level: one PaQL query through pb::Engine, cold (fresh engine,
// full parse + translate + solve every iteration) vs warm (result cache
// primed — repeats are answered bit-identically with zero solver work).
// Counters are deterministic: single-threaded, fixed dataset seed.
void BM_EngineQueryCache(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  constexpr char kQuery[] =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)";
  pb::engine::EngineOptions options;
  options.num_threads = 1;
  double nodes = 0, objective = 0, hits = 0;
  if (warm) {
    pb::engine::Engine engine(options);
    if (!engine.GenerateDataset("recipes", 300, 42).ok()) {
      state.SkipWithError("dataset generation failed");
      return;
    }
    auto prime = engine.ExecuteQuery(0, kQuery);  // prime the result cache
    if (!prime.ok()) {
      state.SkipWithError("cache-priming solve failed");
      return;
    }
    for (auto _ : state) {
      auto r = engine.ExecuteQuery(0, kQuery);
      if (!r.ok() || !r.result_cache_hit) {
        state.SkipWithError("expected a result-cache hit");
        return;
      }
      hits += 1;
      objective = r.objective;
    }
  } else {
    for (auto _ : state) {
      state.PauseTiming();
      pb::engine::Engine engine(options);
      if (!engine.GenerateDataset("recipes", 300, 42).ok()) {
        state.SkipWithError("dataset generation failed");
        return;
      }
      state.ResumeTiming();
      auto r = engine.ExecuteQuery(0, kQuery);
      if (!r.ok() || !r.proven_optimal) {
        state.SkipWithError("query failed");
        return;
      }
      nodes = static_cast<double>(r.nodes);
      objective = r.objective;
    }
  }
  state.SetLabel(warm ? "warm_cache" : "cold");
  state.counters["bnb_nodes"] = nodes;
  state.counters["objective"] = objective;
  // Hits per iteration: 1 warm (any miss aborts the loop), 0 cold. A raw
  // total would equal the adaptive iteration count.
  state.counters["cache_hits"] =
      benchmark::Counter(hits, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EngineQueryCache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// HTAP incremental maintenance: a maintained SketchRefine partition over
// lineitem absorbs a 1% append (200 rows routed into a handful of groups),
// then re-answers the query. Arg 1 = incremental (dirty groups re-solved
// from their saved warm starts, clean groups answered from cached
// sub-solutions); Arg 0 = the cold baseline (the SAME maintained partition
// with every cached solution and warm start dropped, every group re-solved
// — what a from-scratch re-solve of this partition costs). Both arms are
// bit-identical by construction (the objective counter is the gate's
// witness); lp_iterations is the work separation the baseline encodes —
// the incremental arm must stay >= 5x below cold, so any reuse breakage
// shows up as a gated lp_iterations regression on Arg 1.
void BM_IncrementalAppend(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  constexpr char kQuery[] =
      "SELECT PACKAGE(L) FROM lineitem L "
      "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
      "SUM(extendedprice) BETWEEN 50000 AND 51000 "
      "MAXIMIZE SUM(revenue)";
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(20000, 5));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  pb::core::SketchRefineOptions opts;
  opts.partition_size = 256;
  opts.milp.time_limit_s = 120.0;
  pb::core::SketchRefineState built;
  opts.state = &built;
  auto prime = pb::core::SketchRefine(*aq, opts);  // build + solve, untimed
  if (!prime.ok() || !prime->found) {
    state.SkipWithError("priming sketch-refine solve failed");
    return;
  }
  // The append: 200 rows (1%), duplicates of four existing tuples so they
  // route into at most a handful of groups — the workload the maintenance
  // path exists for (hot appends clustered in feature space).
  {
    auto table = catalog.GetMutable("lineitem");
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      return;
    }
    std::vector<pb::db::Tuple> rows;
    for (size_t i = 0; i < 200; ++i) rows.push_back((*table)->row(i % 4));
    if (!(*table)->AppendRows(std::move(rows)).ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  double lp_iters = 0, objective = 0, reused = 0, dirty = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pb::core::SketchRefineState maintained = built;
    if (!incremental) maintained.InvalidateSolutions();
    pb::core::SketchRefineOptions run = opts;
    run.state = &maintained;
    state.ResumeTiming();
    auto r = pb::core::SketchRefine(*aq, run);
    if (!r.ok() || !r->found) {
      state.SkipWithError("maintained sketch-refine solve failed");
      return;
    }
    lp_iters = static_cast<double>(r->lp_iterations);
    objective = r->objective;
    reused = static_cast<double>(r->groups_reused);
    dirty = static_cast<double>(r->dirty_groups);
  }
  state.SetLabel(incremental ? "incremental" : "cold");
  state.counters["lp_iterations"] = lp_iters;
  state.counters["objective"] = objective;
  state.counters["groups_reused"] = reused;
  state.counters["dirty_groups"] = dirty;
}
BENCHMARK(BM_IncrementalAppend)->Arg(0)->Arg(1)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
