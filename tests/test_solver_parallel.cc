// Parallel branch-and-bound: the speculative tree search must be
// bit-identical to the serial solver for every MilpOptions::compute.threads —
// same package, same bounds, same deterministic counters — including under
// incumbent races on models with many equal-objective optima.
//
// Suites here honor PB_TEST_THREADS (see common/env.h): CI runs ctest once
// with PB_TEST_THREADS=1 and once with $(nproc), so the invariance is also
// exercised at whatever the runner's hardware suggests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "solver/milp.h"

namespace pb::solver {
namespace {

MilpOptions Opts(int threads) {
  MilpOptions o;
  o.compute.threads = threads;
  o.time_limit_s = 120.0;
  return o;
}

/// The tight-window package ILP the solver benches use: 400 binaries, an
/// equality COUNT row and two-sided SUM windows — real branching work.
LpModel TightWindowPackageIlp() {
  Rng rng(17);
  LpModel m;
  std::vector<LinearTerm> count, weight, price;
  for (int j = 0; j < 400; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, rng.UniformReal(1.0, 100.0),
                  true);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    price.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 8, 8);
  m.AddConstraint("weight", weight, 3600, 3700);
  m.AddConstraint("price", price, 120, 160);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

/// The branchy COUNT-window model from the presolve ablation: children go
/// infeasible by propagation alone, and COUNT saturation fixes binaries.
LpModel BranchyCountWindowIlp(int n, uint64_t seed) {
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, rng.UniformReal(1.0, 100.0),
                  true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, 3, 3);
  m.AddConstraint("weight", weight, 800.5, 801.0);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

/// Every feasible package scores the same: 34 unit-objective binaries,
/// pick exactly 5 whose distinct integer weights sum to exactly 586. Many
/// subsets qualify, all with objective 5 — so whichever incumbent commits
/// first prunes every other optimum, and ANY order-dependence in the
/// incumbent race would change the reported package.
LpModel EqualOptimaIlp() {
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 34; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, 1.0, true);
    count.push_back({j, 1.0});
    weight.push_back({j, 100.0 + j});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 585.5, 586.5);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

LpModel InfeasibleIlp() {
  LpModel m;
  std::vector<LinearTerm> count;
  for (int j = 0; j < 12; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, 1.0, true);
    count.push_back({j, 1.0});
  }
  m.AddConstraint("count", count, 20, 25);  // 12 binaries cannot reach 20
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

void ExpectSameSolve(const MilpResult& want, const MilpResult& got,
                     const char* label) {
  EXPECT_EQ(want.status, got.status) << label;
  EXPECT_EQ(want.x, got.x) << label;  // bit-identical package
  EXPECT_EQ(want.objective, got.objective) << label;
  EXPECT_EQ(want.best_bound, got.best_bound) << label;
  EXPECT_EQ(want.nodes, got.nodes) << label;
  EXPECT_EQ(want.lp_iterations, got.lp_iterations) << label;
  EXPECT_EQ(want.lp_dual_iterations, got.lp_dual_iterations) << label;
  EXPECT_EQ(want.presolve_fixed_bounds, got.presolve_fixed_bounds) << label;
  EXPECT_EQ(want.presolve_infeasible_children,
            got.presolve_infeasible_children)
      << label;
  EXPECT_EQ(want.reduced_cost_tightenings, got.reduced_cost_tightenings)
      << label;
}

TEST(ParallelMilpTest, BitIdenticalAcrossThreadCounts) {
  const int env_threads = EnvInt("PB_TEST_THREADS", 4);
  struct Case {
    const char* label;
    LpModel model;
  };
  std::vector<Case> cases;
  cases.push_back({"tight_window", TightWindowPackageIlp()});
  cases.push_back({"branchy_count_window", BranchyCountWindowIlp(60, 21)});
  cases.push_back({"infeasible", InfeasibleIlp()});
  for (Case& c : cases) {
    auto serial = SolveMilp(c.model, Opts(1));
    ASSERT_TRUE(serial.ok()) << c.label;
    EXPECT_EQ(serial->speculative_lps, 0) << c.label;
    for (int threads : {2, 8, env_threads}) {
      auto par = SolveMilp(c.model, Opts(threads));
      ASSERT_TRUE(par.ok()) << c.label << " threads=" << threads;
      ExpectSameSolve(*serial, *par, c.label);
    }
  }
}

TEST(ParallelMilpTest, MinimizeSenseIsAlsoIdentical) {
  Rng rng(5);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 80; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, rng.UniformReal(1.0, 100.0),
                  true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(50.0, 400.0))});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 1000.5, 1001.0);
  m.SetSense(ObjectiveSense::kMinimize);
  auto serial = SolveMilp(m, Opts(1));
  ASSERT_TRUE(serial.ok());
  auto par = SolveMilp(m, Opts(8));
  ASSERT_TRUE(par.ok());
  ExpectSameSolve(*serial, *par, "minimize");
}

TEST(ParallelMilpTest, EqualObjectiveIncumbentRaceIsDeterministic) {
  LpModel m = EqualOptimaIlp();
  // Heuristics off: the root dive would otherwise hand back an incumbent
  // whose objective equals the LP bound and end the search at node one.
  // Without it the tree must branch its way to feasibility, reaching many
  // equally-scoring leaves whose commits race.
  MilpOptions serial_opts = Opts(1);
  serial_opts.rounding_heuristic = false;
  auto serial = SolveMilp(m, serial_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->status, MilpStatus::kOptimal);
  EXPECT_EQ(serial->objective, 5.0);
  // A real tree, or this test stresses nothing.
  ASSERT_GT(serial->nodes, 50);
  // Helpers race to pre-solve nodes whose commits would each yield an
  // equally good incumbent; repetition varies the interleavings. The
  // committed package must never move.
  for (int rep = 0; rep < 5; ++rep) {
    MilpOptions par_opts = Opts(8);
    par_opts.rounding_heuristic = false;
    auto par = SolveMilp(m, par_opts);
    ASSERT_TRUE(par.ok()) << "rep " << rep;
    ExpectSameSolve(*serial, *par, "equal_optima");
  }
}

TEST(ParallelMilpTest, NodeBudgetStopsAtTheSameNode) {
  LpModel m = TightWindowPackageIlp();
  MilpOptions tight = Opts(1);
  tight.max_nodes = 25;  // stop mid-search: bounds must still agree
  auto serial = SolveMilp(m, tight);
  ASSERT_TRUE(serial.ok());
  tight.compute.threads = 8;
  auto par = SolveMilp(m, tight);
  ASSERT_TRUE(par.ok());
  ExpectSameSolve(*serial, *par, "node_budget");
}

TEST(ParallelMilpTest, CrossSolveWarmStartChainsIdentically) {
  // One MilpWarmStart threaded through drifting re-solves (the
  // SketchRefine repair pattern): pseudocost history and root bases must
  // accumulate identically whatever the thread count.
  auto run_chain = [](int threads) {
    MilpWarmStart warm;
    std::vector<MilpResult> results;
    for (int shift = 0; shift < 4; ++shift) {
      Rng rng(29);
      LpModel m;
      std::vector<LinearTerm> count, weight;
      for (int j = 0; j < 120; ++j) {
        m.AddVariable("x" + std::to_string(j), 0, 1,
                      rng.UniformReal(1.0, 100.0), true);
        count.push_back({j, 1.0});
        weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
      }
      m.AddConstraint("count", count, 3, 3);
      m.AddConstraint("weight", weight, 900.5 + shift, 901.0 + shift);
      m.SetSense(ObjectiveSense::kMaximize);
      MilpOptions o = Opts(threads);
      o.warm = &warm;
      auto r = SolveMilp(m, o);
      EXPECT_TRUE(r.ok());
      if (r.ok()) results.push_back(std::move(*r));
    }
    return results;
  };
  auto serial = run_chain(1);
  auto par = run_chain(EnvInt("PB_TEST_THREADS", 8));
  ASSERT_EQ(serial.size(), par.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameSolve(serial[i], par[i], "warm_chain");
  }
}

TEST(ParallelMilpTest, CounterAggregationSanity) {
  LpModel m = BranchyCountWindowIlp(60, 21);
  auto r = SolveMilp(m, Opts(8));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_GT(r->nodes, 0);
  EXPECT_GT(r->lp_iterations, 0);
  EXPECT_LE(r->lp_dual_iterations, r->lp_iterations);
  EXPECT_GE(r->presolve_fixed_bounds, 0);
  EXPECT_GE(r->presolve_infeasible_children, 0);
  // Speculation is diagnostic-only and timing-dependent; it can be any
  // non-negative count, and committed counters must not depend on it.
  EXPECT_GE(r->speculative_lps, 0);
  auto serial = SolveMilp(m, Opts(1));
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->speculative_lps, 0);
  EXPECT_EQ(serial->nodes, r->nodes);
  EXPECT_EQ(serial->lp_iterations, r->lp_iterations);
}

TEST(ParallelMilpTest, PureLpDegradesToSingleSolveAnyThreadCount) {
  LpModel m;
  std::vector<LinearTerm> row;
  for (int j = 0; j < 10; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, 1.0, /*is_integer=*/false);
    row.push_back({j, 1.0});
  }
  m.AddConstraint("cap", row, -kInfinity, 4.0);
  m.SetSense(ObjectiveSense::kMaximize);
  auto serial = SolveMilp(m, Opts(1));
  auto par = SolveMilp(m, Opts(8));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(par.ok());
  ExpectSameSolve(*serial, *par, "pure_lp");
  EXPECT_EQ(par->speculative_lps, 0);  // nothing to speculate on
}

}  // namespace
}  // namespace pb::solver
