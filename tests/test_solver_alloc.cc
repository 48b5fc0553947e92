// Allocation test for the LP workspace: once a branch-and-bound-shaped
// sequence of warm re-solves has sized every buffer, repeating it through
// the same LpSolver into the same LpSolution allocates nothing. This binary
// replaces the global operator new with a counting one, so it runs alone.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "solver/model.h"
#include "solver/simplex.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pb::solver {
namespace {

using Bounds = std::vector<std::pair<double, double>>;

/// A package query's relaxation: n binaries, COUNT(*) = 6, a ranged
/// weight row and a capped cost row.
LpModel PackageModel(int n, uint64_t seed) {
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight, cost;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, rng.UniformReal(1.0, 100.0),
                  false);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    cost.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 6, 6);
  m.AddConstraint("weight", weight, 2400, 3000);
  m.AddConstraint("cost", cost, -kInfinity, 150);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

TEST(SolverAllocTest, WarmNodeResolvesAllocateNothingOnceSized) {
  for (FactorizationKind fact :
       {FactorizationKind::kSparseLu, FactorizationKind::kDense}) {
    const std::string engine = FactorizationKindToString(fact);
    const LpModel m = PackageModel(150, 7);
    SimplexOptions opts;
    opts.factorization = fact;
    const int64_t limit = EffectiveIterationLimit(m, opts);
    LpSolver solver(m, opts);
    LpSolution lp;
    LpBasis root_basis, child_basis;
    Bounds root, tightened, down, up, grandchild, infeasible;
    for (int j = 0; j < m.num_variables(); ++j) {
      root.emplace_back(m.variable(j).lb, m.variable(j).ub);
    }
    // Every status and counter a pass sees, checked after the counting
    // stops (a failing expectation allocates its message).
    std::vector<LpStatus> statuses;
    std::vector<int64_t> dual_iterations;
    statuses.reserve(16);
    dual_iterations.reserve(16);

    auto solve = [&](const Bounds* bounds, const LpBasis* warm) {
      const bool ok = solver.Solve(bounds, warm, limit, &lp).ok();
      statuses.push_back(ok ? lp.status : LpStatus::kIterationLimit);
      dual_iterations.push_back(lp.dual_iterations);
    };
    // One branch-and-bound-shaped sequence: the cold root; a child whose
    // bounds reduced-cost tightening narrowed; a branch each way on the
    // root's first fractional column, then a grandchild under the down
    // branch; and a child whose COUNT row cannot be met.
    auto pass = [&] {
      statuses.clear();
      dual_iterations.clear();
      solve(nullptr, nullptr);
      root_basis = lp.basis;
      int pick = -1;
      for (int j = 0; j < m.num_variables() && pick < 0; ++j) {
        if (lp.x[j] > 1e-6 && lp.x[j] < 1 - 1e-6) pick = j;
      }
      if (pick < 0) return;
      tightened = root;
      for (int j = 0; j < m.num_variables(); ++j) {
        if (j != pick && root_basis.stat[j] == VarStat::kAtLower) {
          tightened[j] = {0.0, 0.0};
        }
      }
      solve(&tightened, &root_basis);
      down = root;
      down[pick] = {0.0, 0.0};
      solve(&down, &root_basis);
      child_basis = lp.basis;
      up = root;
      up[pick] = {1.0, 1.0};
      solve(&up, &root_basis);
      grandchild = down;
      int second = -1;
      for (int j = 0; j < m.num_variables() && second < 0; ++j) {
        if (j != pick && child_basis.stat[j] == VarStat::kBasic) second = j;
      }
      if (second >= 0) grandchild[second] = {1.0, 1.0};
      solve(&grandchild, &child_basis);
      infeasible = root;
      for (int j = 0; j < m.num_variables(); ++j) {
        if (j % 30 != 0) infeasible[j] = {0.0, 0.0};
      }
      solve(&infeasible, &child_basis);
    };

    pass();  // sizes every buffer
    const std::vector<LpStatus> first_statuses = statuses;
    const std::vector<int64_t> first_dual = dual_iterations;
    const int64_t before = g_allocations.load();
    pass();
    const int64_t allocated = g_allocations.load() - before;

    EXPECT_EQ(allocated, 0) << engine;
    ASSERT_EQ(statuses.size(), 6u) << engine << ": no fractional root column";
    EXPECT_EQ(statuses, first_statuses) << engine;
    EXPECT_EQ(dual_iterations, first_dual) << engine;
    EXPECT_EQ(statuses[0], LpStatus::kOptimal) << engine;
    EXPECT_EQ(statuses[2], LpStatus::kOptimal) << engine;
    EXPECT_GT(dual_iterations[2], 0) << engine << ": the down branch";
    EXPECT_EQ(statuses[5], LpStatus::kInfeasible) << engine;
  }
}

}  // namespace
}  // namespace pb::solver
