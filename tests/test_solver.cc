// Unit tests for the LP/MILP solver substrate: model building, the
// bounded-variable simplex, and branch-and-bound. Includes randomized
// cross-checks against exhaustive enumeration (the solver is the engine's
// trust anchor, so it gets the most adversarial testing).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/evaluator.h"
#include "solver/milp.h"
#include "solver/model.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

// ----- Model -----------------------------------------------------------------

TEST(ModelTest, BuilderBasics) {
  LpModel m;
  int x = m.AddVariable("x", 0, 10, 1.0, false);
  int y = m.AddVariable("y", 0, 10, 2.0, true);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  int c = m.AddConstraint("c", {{x, 1.0}, {y, 1.0}}, 0, 5);
  EXPECT_EQ(c, 0);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(ModelTest, DuplicateTermsMerge) {
  LpModel m;
  int x = m.AddVariable("x", 0, 1, 0, false);
  m.AddConstraint("c", {{x, 1.0}, {x, 2.0}, {x, -3.0}}, 0, 1);
  // 1 + 2 - 3 = 0: the term vanishes.
  EXPECT_TRUE(m.constraint(0).terms.empty());
}

TEST(ModelTest, AddConstraintCanonicalizesLikeAMapMerge) {
  // The reference: merged[var] += coeff over a std::map, zero sums dropped.
  auto reference = [](const std::vector<LinearTerm>& terms) {
    std::map<int, double> merged;
    for (const LinearTerm& t : terms) merged[t.var] += t.coeff;
    std::vector<LinearTerm> out;
    for (const auto& [var, coeff] : merged) {
      if (coeff != 0.0) out.push_back({var, coeff});
    }
    return out;
  };
  // Cancelling magnitudes make the summation order visible in the bits.
  const double pool[] = {0.0,  -0.0, std::nan(""), 1.5,   -1.5, 0.1,
                         0.2,  0.3,  1e16,         -1e16, 1.0,  -2.25};
  Rng rng(4242);
  LpModel m;
  for (int j = 0; j < 16; ++j) m.AddVariable("", 0, 1, 0, false);
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<LinearTerm> terms;
    const int k = static_cast<int>(rng.UniformInt(0, 40));
    for (int t = 0; t < k; ++t) {
      const double coeff = rng.Bernoulli(0.75)
                               ? pool[rng.Index(std::size(pool))]
                               : rng.UniformReal(-10.0, 10.0);
      terms.push_back({static_cast<int>(rng.UniformInt(0, 15)), coeff});
    }
    auto by_var = [](const LinearTerm& a, const LinearTerm& b) {
      return a.var < b.var;
    };
    if (trial % 3 != 2) {  // else shuffled, duplicates anywhere
      std::stable_sort(terms.begin(), terms.end(), by_var);
    }
    if (trial % 3 == 0) {  // strictly ascending, as every translator row is
      terms.erase(std::unique(terms.begin(), terms.end(),
                              [](const LinearTerm& a, const LinearTerm& b) {
                                return a.var == b.var;
                              }),
                  terms.end());
    }
    const std::vector<LinearTerm> want = reference(terms);
    const int row = m.AddConstraint("", terms, 0, 1);
    const std::vector<LinearTerm>& got = m.constraint(row).terms;
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(got[t].var, want[t].var) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[t].coeff),
                std::bit_cast<uint64_t>(want[t].coeff))
          << "trial " << trial << " term " << t;
    }
  }
}

TEST(ModelTest, ValidationCatchesBadBounds) {
  LpModel m;
  m.AddVariable("x", 5, 2, 0, false);
  EXPECT_EQ(m.Validate().code(), StatusCode::kInfeasible);
  // A model with no variables is valid (an empty candidate set translates
  // to one); ModelTest.NoVariablesSolveToTheEmptyPoint solves such models.
  EXPECT_TRUE(LpModel().Validate().ok());
}

// With no variables, x = () is the only point: optimal with objective 0
// when every row's range holds activity 0, infeasible otherwise.
TEST(ModelTest, NoVariablesSolveToTheEmptyPoint) {
  for (ObjectiveSense sense :
       {ObjectiveSense::kMinimize, ObjectiveSense::kMaximize}) {
    LpModel no_rows;
    no_rows.SetSense(sense);
    LpModel at_most_3 = no_rows;
    at_most_3.AddConstraint("count", {}, -kInfinity, 3);
    LpModel at_least_1 = no_rows;
    at_least_1.AddConstraint("count", {}, 1, kInfinity);

    for (const LpModel* m : {&no_rows, &at_most_3}) {
      auto lp = SolveLp(*m);
      ASSERT_TRUE(lp.ok()) << lp.status().ToString();
      EXPECT_EQ(lp->status, LpStatus::kOptimal);
      EXPECT_EQ(lp->objective, 0.0);
      EXPECT_TRUE(lp->x.empty());
      auto milp = SolveMilp(*m);
      ASSERT_TRUE(milp.ok()) << milp.status().ToString();
      EXPECT_EQ(milp->status, MilpStatus::kOptimal);
      EXPECT_EQ(milp->objective, 0.0);
      EXPECT_TRUE(milp->x.empty());
    }
    auto lp = SolveLp(at_least_1);
    ASSERT_TRUE(lp.ok()) << lp.status().ToString();
    EXPECT_EQ(lp->status, LpStatus::kInfeasible);
    auto milp = SolveMilp(at_least_1);
    ASSERT_TRUE(milp.ok()) << milp.status().ToString();
    EXPECT_EQ(milp->status, MilpStatus::kInfeasible);
  }
}

// A NaN or infinite objective weight (a CSV "nan" or "inf" reaches the
// model as one) is malformed input, named by its variable, never an
// optimum.
TEST(ModelTest, ValidationRejectsNonFiniteObjective) {
  for (double bad : {std::nan(""), kInfinity, -kInfinity}) {
    LpModel m;
    m.AddVariable("x0", 0, 1, 1.0, true);
    m.AddVariable("x1", 0, 1, bad, true);
    m.AddConstraint("count", {{0, 1.0}, {1, 1.0}}, 1, 1);
    m.SetSense(ObjectiveSense::kMaximize);
    Status s = m.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("'x1'"), std::string::npos) << s.ToString();
    EXPECT_EQ(SolveLp(m).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(SolveMilp(m).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ModelTest, FeasibilityCheck) {
  LpModel m;
  int x = m.AddVariable("x", 0, 10, 0, false);
  m.AddConstraint("c", {{x, 2.0}}, 4, 8);
  EXPECT_TRUE(m.IsFeasible({3.0}));
  EXPECT_FALSE(m.IsFeasible({1.0}));   // row below lo
  EXPECT_FALSE(m.IsFeasible({11.0}));  // bound violated
}

TEST(ModelTest, LpFormatMentionsEverything) {
  LpModel m;
  int x = m.AddVariable("x", 0, 3, 1.5, true);
  m.AddConstraint("cap", {{x, 1.0}}, -kInfinity, 2);
  m.SetSense(ObjectiveSense::kMaximize);
  std::string lp = m.ToLpFormat();
  EXPECT_NE(lp.find("Maximize"), std::string::npos);
  EXPECT_NE(lp.find("cap"), std::string::npos);
  EXPECT_NE(lp.find("General"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
}

// ----- Simplex ---------------------------------------------------------------

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6) obj 36.
  LpModel m;
  int x = m.AddVariable("x", 0, kInfinity, 3, false);
  int y = m.AddVariable("y", 0, kInfinity, 5, false);
  m.AddConstraint("c1", {{x, 1.0}}, -kInfinity, 4);
  m.AddConstraint("c2", {{y, 2.0}}, -kInfinity, 12);
  m.AddConstraint("c3", {{x, 3.0}, {y, 2.0}}, -kInfinity, 18);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 36.0, 1e-7);
  EXPECT_NEAR(r->x[0], 2.0, 1e-7);
  EXPECT_NEAR(r->x[1], 6.0, 1e-7);
}

TEST(SimplexTest, MinimizationWithEquality) {
  // min x + y s.t. x + y = 10, x - y >= 2 -> (6, 4)? obj always 10.
  LpModel m;
  int x = m.AddVariable("x", 0, kInfinity, 1, false);
  int y = m.AddVariable("y", 0, kInfinity, 1, false);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 10, 10);
  m.AddConstraint("gap", {{x, 1.0}, {y, -1.0}}, 2, kInfinity);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 10.0, 1e-7);
  EXPECT_NEAR(r->x[0] + r->x[1], 10.0, 1e-7);
  EXPECT_GE(r->x[0] - r->x[1], 2.0 - 1e-7);
}

TEST(SimplexTest, DetectsInfeasibility) {
  LpModel m;
  int x = m.AddVariable("x", 0, 1, 0, false);
  m.AddConstraint("impossible", {{x, 1.0}}, 5, 10);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LpModel m;
  m.AddVariable("x", 0, kInfinity, 1, false);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableBounds) {
  // max x + y with x in [1, 2], y in [-3, -1]; optimum at upper bounds.
  LpModel m;
  int x = m.AddVariable("x", 1, 2, 1, false);
  int y = m.AddVariable("y", -3, -1, 1, false);
  m.AddConstraint("noop", {{x, 1.0}, {y, 1.0}}, -kInfinity, kInfinity);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], 2.0, 1e-7);
  EXPECT_NEAR(r->x[1], -1.0, 1e-7);
}

TEST(SimplexTest, FreeVariables) {
  // min x + 2y, x free, y free, x + y >= 3, x - y <= 1.
  // Optimum pushes y down... x + y >= 3 with min coeffs positive:
  // minimize on the boundary x+y=3; substitute x = 3 - y:
  // obj = 3 + y -> minimize y; constraint x - y <= 1 -> 3 - 2y <= 1 -> y >= 1.
  // So y = 1, x = 2, obj = 4.
  LpModel m;
  int x = m.AddVariable("x", -kInfinity, kInfinity, 1, false);
  int y = m.AddVariable("y", -kInfinity, kInfinity, 2, false);
  m.AddConstraint("c1", {{x, 1.0}, {y, 1.0}}, 3, kInfinity);
  m.AddConstraint("c2", {{x, 1.0}, {y, -1.0}}, -kInfinity, 1);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 4.0, 1e-6);
  EXPECT_NEAR(r->x[0], 2.0, 1e-6);
  EXPECT_NEAR(r->x[1], 1.0, 1e-6);
}

TEST(SimplexTest, NegativeBoundsRangedRows) {
  // min -x with -5 <= x <= -2 and -4 <= x <= 0 (row): optimum x = -2.
  LpModel m;
  int x = m.AddVariable("x", -5, -2, -1, false);
  m.AddConstraint("row", {{x, 1.0}}, -4, 0);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], -2.0, 1e-7);
}

TEST(SimplexTest, NoConstraintsJustBounds) {
  LpModel m;
  m.AddVariable("x", -1, 7, 1, false);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], 7.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex (classic cycling
  // bait); Bland's fallback must terminate.
  LpModel m;
  int x = m.AddVariable("x", 0, kInfinity, 1, false);
  int y = m.AddVariable("y", 0, kInfinity, 1, false);
  for (int i = 0; i < 10; ++i) {
    m.AddConstraint("r" + std::to_string(i),
                    {{x, 1.0 + i * 0.0}, {y, 1.0}}, -kInfinity, 10);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 10.0, 1e-7);
}

/// Exhaustively evaluates a small LP over a grid to approximate the optimum
/// (used as an oracle for randomized tests; integer-grid LPs only).
double GridOracle(const LpModel& m, int grid_hi) {
  const bool maximize = m.sense() == ObjectiveSense::kMaximize;
  double best = maximize ? -kInfinity : kInfinity;
  int n = m.num_variables();
  std::vector<double> x(n, 0.0);
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (!m.IsFeasible(x, 1e-9)) return;
      double obj = m.ObjectiveValue(x);
      best = maximize ? std::max(best, obj) : std::min(best, obj);
      return;
    }
    for (int v = 0; v <= grid_hi; ++v) {
      x[j] = v;
      rec(j + 1);
    }
  };
  rec(0);
  return best;
}

/// Checks an optimal solution's reduced costs against c - [A | -I]^T y,
/// with y from an independent dense solve of B^T y = c_B on the exported
/// basis (c: the model's own objective; partial-pivoting elimination, no
/// factorization code). Basic entries must be exactly 0.
void ExpectReducedCostsMatchDuals(const LpModel& m, const LpSolution& lp,
                                  const std::string& what) {
  const int rows = m.num_constraints();
  const int n = m.num_variables();
  std::vector<std::vector<double>> a(rows, std::vector<double>(n, 0.0));
  for (int i = 0; i < rows; ++i) {
    for (const LinearTerm& t : m.constraint(i).terms) a[i][t.var] = t.coeff;
  }
  // Row k of [B^T | c_B]: the basic column of position k, then its cost.
  std::vector<std::vector<double>> e(rows, std::vector<double>(rows + 1));
  for (int k = 0; k < rows; ++k) {
    const int j = lp.basis.basic[k];
    for (int i = 0; i < rows; ++i) {
      e[k][i] = j < n ? a[i][j] : (j - n == i ? -1.0 : 0.0);
    }
    e[k][rows] = j < n ? m.variable(j).objective : 0.0;
  }
  for (int c = 0; c < rows; ++c) {
    int piv = c;
    for (int r = c + 1; r < rows; ++r) {
      if (std::abs(e[r][c]) > std::abs(e[piv][c])) piv = r;
    }
    std::swap(e[c], e[piv]);
    ASSERT_NE(e[c][c], 0.0) << what << ": singular exported basis";
    for (int r = 0; r < rows; ++r) {
      if (r == c) continue;
      const double f = e[r][c] / e[c][c];
      for (int k = c; k <= rows; ++k) e[r][k] -= f * e[c][k];
    }
  }
  std::vector<double> y(rows);
  for (int i = 0; i < rows; ++i) y[i] = e[i][rows] / e[i][i];

  ASSERT_EQ(lp.reduced_costs.size(), static_cast<size_t>(n + rows)) << what;
  for (int j = 0; j < n + rows; ++j) {
    double want, scale;
    if (j < n) {
      want = m.variable(j).objective;
      scale = std::abs(want);
      for (int i = 0; i < rows; ++i) {
        want -= a[i][j] * y[i];
        scale += std::abs(a[i][j] * y[i]);
      }
    } else {
      want = y[j - n];  // the slack column -e_i prices at 0 - (-y_i)
      scale = std::abs(want);
    }
    if (lp.basis.stat[j] == VarStat::kBasic) {
      EXPECT_EQ(lp.reduced_costs[j], 0.0) << what << " basic column " << j;
      continue;
    }
    EXPECT_NEAR(lp.reduced_costs[j], want, 1e-9 * std::max(1.0, scale))
        << what << " column " << j;
  }
}

TEST(SimplexTest, ReducedCostsAreCMinusATransposeY) {
  Rng rng(2718);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LpModel m;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<double> point(n);  // a point every row is built around
    for (int j = 0; j < n; ++j) {
      double lb = 0.0, ub = 1.0;
      switch (rng.UniformInt(0, 2)) {
        case 0: ub = static_cast<double>(rng.UniformInt(1, 10)); break;
        case 1:
          lb = -static_cast<double>(rng.UniformInt(1, 5));
          ub = static_cast<double>(rng.UniformInt(1, 5));
          break;
        default: break;
      }
      const double c = 0.5 * static_cast<double>(rng.UniformInt(-20, 20));
      m.AddVariable("", lb, ub, c, false);
      point[j] = rng.UniformReal(lb, ub);
    }
    for (int i = 0; i < rows; ++i) {
      std::vector<LinearTerm> terms;
      double act = 0.0;
      for (int j = 0; j < n; ++j) {
        if (!rng.Bernoulli(0.5)) continue;
        const double coeff = 0.5 * static_cast<double>(rng.UniformInt(1, 9)) *
                             (rng.Bernoulli(0.5) ? 1.0 : -1.0);
        terms.push_back({j, coeff});
        act += coeff * point[j];
      }
      double lo = -kInfinity, hi = kInfinity;
      switch (rng.UniformInt(0, 4)) {
        case 0:  // ranged
          lo = act - rng.UniformReal(0.0, 5.0);
          hi = act + rng.UniformReal(0.0, 5.0);
          break;
        case 1: lo = hi = act; break;  // equality
        case 2: break;                 // free
        case 3: hi = act + rng.UniformReal(0.0, 5.0); break;
        default: lo = act - rng.UniformReal(0.0, 5.0); break;
      }
      m.AddConstraint("", terms, lo, hi);
    }
    m.SetSense(rng.Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                  : ObjectiveSense::kMinimize);
    const std::string what = "trial " + std::to_string(trial);
    auto cold = SolveLp(m);
    ASSERT_TRUE(cold.ok()) << what;
    if (cold->status != LpStatus::kOptimal) continue;
    ExpectReducedCostsMatchDuals(m, *cold, what + " cold");
    ++checked;

    // A child's warm re-solve (the dual simplex's path) into a reused
    // solution: one variable's range halved.
    std::vector<std::pair<double, double>> bounds;
    for (int j = 0; j < n; ++j) {
      bounds.emplace_back(m.variable(j).lb, m.variable(j).ub);
    }
    const int pick = static_cast<int>(rng.Index(n));
    bounds[pick].second = std::floor(0.5 * (bounds[pick].first +
                                            bounds[pick].second));
    LpSolver solver(m, {});
    LpSolution warm = *cold;
    ASSERT_TRUE(solver
                    .Solve(&bounds, &warm.basis,
                           EffectiveIterationLimit(m, {}), &warm)
                    .ok())
        << what;
    if (warm.status == LpStatus::kOptimal) {
      ExpectReducedCostsMatchDuals(m, warm, what + " warm");
    }
  }
  EXPECT_GE(checked, 150);
}

TEST(SimplexTest, RandomizedLpsBeatOrMatchIntegerGrid) {
  // The LP optimum must always be at least as good as the best integer
  // grid point (sanity bound; catches gross sign/pricing bugs).
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, 3,
                    static_cast<double>(rng.UniformInt(-5, 5)), false);
    }
    int rows = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < rows; ++i) {
      std::vector<LinearTerm> terms;
      for (int j = 0; j < n; ++j) {
        terms.push_back({j, static_cast<double>(rng.UniformInt(-3, 3))});
      }
      double hi = static_cast<double>(rng.UniformInt(0, 12));
      m.AddConstraint("r" + std::to_string(i), terms, -kInfinity, hi);
    }
    m.SetSense(ObjectiveSense::kMaximize);
    auto r = SolveLp(m);
    ASSERT_TRUE(r.ok());
    double grid = GridOracle(m, 3);
    if (r->status == LpStatus::kOptimal) {
      EXPECT_GE(r->objective, grid - 1e-6)
          << "trial " << trial << ": LP worse than an integer point";
      // The LP point itself must be feasible.
      EXPECT_TRUE(m.IsFeasible(r->x, 1e-5));
    } else {
      // x = 0 is feasible for all-<= rows with hi >= 0, so optimal is the
      // only acceptable status here.
      ADD_FAILURE() << "trial " << trial << " status "
                    << LpStatusToString(r->status);
    }
  }
}

// ----- MILP ------------------------------------------------------------------

TEST(MilpTest, KnapsackSmall) {
  // Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50.
  // Optimum: items 2+3 = 220.
  LpModel m;
  double values[] = {60, 100, 120};
  double weights[] = {10, 20, 30};
  std::vector<LinearTerm> cap;
  for (int j = 0; j < 3; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, values[j], true);
    cap.push_back({j, weights[j]});
  }
  m.AddConstraint("cap", cap, -kInfinity, 50);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 220.0, 1e-6);
  EXPECT_NEAR(r->x[0], 0.0, 1e-6);
  EXPECT_NEAR(r->x[1], 1.0, 1e-6);
  EXPECT_NEAR(r->x[2], 1.0, 1e-6);
}

TEST(MilpTest, IntegralityMatters) {
  // max x + y s.t. 2x + 2y <= 3, x,y integer in [0,1]: LP gives 1.5,
  // MILP must give 1.
  LpModel m;
  int x = m.AddVariable("x", 0, 1, 1, true);
  int y = m.AddVariable("y", 0, 1, 1, true);
  m.AddConstraint("c", {{x, 2.0}, {y, 2.0}}, -kInfinity, 3);
  m.SetSense(ObjectiveSense::kMaximize);
  auto lp = SolveLp(m);
  ASSERT_TRUE(lp.ok());
  EXPECT_NEAR(lp->objective, 1.5, 1e-7);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 1.0, 1e-9);
}

TEST(MilpTest, InfeasibleInteger) {
  // 0.4 <= x <= 0.6 with x integer: no integer point.
  LpModel m;
  int x = m.AddVariable("x", 0, 1, 1, true);
  m.AddConstraint("c", {{x, 1.0}}, 0.4, 0.6);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kInfeasible);
}

TEST(MilpTest, UnboundedDetection) {
  LpModel m;
  m.AddVariable("x", 0, kInfinity, 1, true);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kUnbounded);
}

TEST(MilpTest, PureLpPassthrough) {
  LpModel m;
  m.AddVariable("x", 0, 2.5, 1, false);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 2.5, 1e-9);
}

TEST(MilpTest, GeneralIntegerVariables) {
  // max 7x + 2y s.t. 3x + y <= 10, x in [0,3] int, y in [0,5] int.
  // x=3 -> y <= 1 -> obj 23. x=2 -> y<=4 -> 22. Optimum 23.
  LpModel m;
  int x = m.AddVariable("x", 0, 3, 7, true);
  int y = m.AddVariable("y", 0, 5, 2, true);
  m.AddConstraint("c", {{x, 3.0}, {y, 1.0}}, -kInfinity, 10);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 23.0, 1e-6);
}

TEST(MilpTest, EqualityConstrainedCount) {
  // Exactly 3 of 6 binary variables, maximize a weighted sum.
  LpModel m;
  double w[] = {5, 1, 4, 2, 6, 3};
  std::vector<LinearTerm> count;
  for (int j = 0; j < 6; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, w[j], true);
    count.push_back({j, 1.0});
  }
  m.AddConstraint("count", count, 3, 3);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 15.0, 1e-6);  // 6 + 5 + 4
}

TEST(MilpTest, ResultStatusMapsEveryStatus) {
  // core::FinishIlpStep is how every ILP route turns a finished solve
  // into the Status clients see.
  auto finish = [](const MilpResult& r) {
    return core::FinishIlpStep(paql::AnalyzedQuery(), core::IlpTranslation(),
                               r)
        .status();
  };
  auto mapped = [&](MilpStatus status, bool cancelled) {
    MilpResult r;
    r.status = status;
    r.cancelled = cancelled;
    return finish(r);
  };
  EXPECT_TRUE(mapped(MilpStatus::kOptimal, false).ok());
  EXPECT_TRUE(mapped(MilpStatus::kFeasible, false).ok());
  EXPECT_TRUE(mapped(MilpStatus::kFeasible, true).ok());  // cancelled late
  EXPECT_EQ(mapped(MilpStatus::kInfeasible, false).code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(mapped(MilpStatus::kUnbounded, false).code(),
            StatusCode::kUnbounded);
  // No package either way; the message tells a cancel from a spent budget.
  const Status exhausted = mapped(MilpStatus::kNoSolution, false);
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.message(),
            "query budget exhausted before a package was found");
  const Status cancelled = mapped(MilpStatus::kNoSolution, true);
  EXPECT_EQ(cancelled.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cancelled.message(), "query cancelled before a package was found");

  // Statuses from real solves map the same way.
  LpModel inf;
  int x = inf.AddVariable("x", 0, 1, 1, true);
  inf.AddConstraint("c", {{x, 1.0}}, 0.4, 0.6);
  auto r_inf = SolveMilp(inf);
  ASSERT_TRUE(r_inf.ok());
  EXPECT_EQ(finish(*r_inf).code(), StatusCode::kInfeasible);

  LpModel unb;
  unb.AddVariable("x", 0, kInfinity, 1, true);
  unb.SetSense(ObjectiveSense::kMaximize);
  auto r_unb = SolveMilp(unb);
  ASSERT_TRUE(r_unb.ok());
  EXPECT_EQ(finish(*r_unb).code(), StatusCode::kUnbounded);
}

/// Every feasible package scores the same: 34 unit-objective binaries, pick
/// exactly 5 whose distinct integer weights sum to exactly 586. Many
/// subsets qualify, so the package a solve reports depends on the order in
/// which the tree reaches them.
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

/// A COUNT row and a narrow integer weight window: children go infeasible
/// by propagation alone, and COUNT saturation fixes binaries.
LpModel BranchyCountWindowIlp(int n, uint64_t seed, ObjectiveSense sense,
                              int count_k = 3, double weight_lo = 800.5,
                              double weight_hi = 801.0) {
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1, rng.UniformReal(1.0, 100.0),
                  true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, count_k, count_k);
  m.AddConstraint("weight", weight, weight_lo, weight_hi);
  m.SetSense(sense);
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
  EXPECT_EQ(want.lp_refactorizations, got.lp_refactorizations) << label;
  EXPECT_EQ(want.lp_basis_updates, got.lp_basis_updates) << label;
  EXPECT_EQ(want.presolve_fixed_bounds, got.presolve_fixed_bounds) << label;
  EXPECT_EQ(want.presolve_infeasible_children,
            got.presolve_infeasible_children)
      << label;
  EXPECT_EQ(want.reduced_cost_tightenings, got.reduced_cost_tightenings)
      << label;
}

TEST(MilpTest, RepeatedSolvesAreBitIdentical) {
  // The search is deterministic: solving the same model with the same
  // options again reproduces the package, the bounds and every counter,
  // in both senses, for a finished search and for one a node budget stops.
  auto expect_repeatable = [](const char* label, const LpModel& model,
                              const MilpOptions& options, MilpStatus status) {
    auto first = SolveMilp(model, options);
    ASSERT_TRUE(first.ok()) << label;
    EXPECT_EQ(first->status, status) << label;
    // A real tree, or this tests nothing.
    EXPECT_GT(first->nodes, 50) << label;
    EXPECT_LE(first->lp_dual_iterations, first->lp_iterations) << label;
    for (int rep = 0; rep < 2; ++rep) {
      auto again = SolveMilp(model, options);
      ASSERT_TRUE(again.ok()) << label;
      ExpectSameSolve(*first, *again, label);
    }
  };
  expect_repeatable("equal_optima", EqualOptimaIlp(), MilpOptions(),
                    MilpStatus::kOptimal);
  constexpr ObjectiveSense kMax = ObjectiveSense::kMaximize;
  constexpr ObjectiveSense kMin = ObjectiveSense::kMinimize;
  expect_repeatable("branchy_max", BranchyCountWindowIlp(60, 21, kMax),
                    MilpOptions(), MilpStatus::kOptimal);
  expect_repeatable("branchy_min", BranchyCountWindowIlp(80, 5, kMin),
                    MilpOptions(), MilpStatus::kOptimal);
  // BM_MilpBranchyTree's model: its full tree takes 571 nodes.
  MilpOptions node_budget;
  node_budget.max_nodes = 150;
  expect_repeatable("node_budget",
                    BranchyCountWindowIlp(120, 33, kMax, 5, 1500.5, 1501.0),
                    node_budget, MilpStatus::kFeasible);
}

/// Exhaustive integer oracle for randomized MILP cross-checks.
double IntegerOracle(const LpModel& m, int hi, bool* feasible) {
  const bool maximize = m.sense() == ObjectiveSense::kMaximize;
  double best = maximize ? -kInfinity : kInfinity;
  *feasible = false;
  int n = m.num_variables();
  std::vector<double> x(n, 0.0);
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (!m.IsFeasible(x, 1e-9)) return;
      *feasible = true;
      double obj = m.ObjectiveValue(x);
      best = maximize ? std::max(best, obj) : std::min(best, obj);
      return;
    }
    for (int v = 0; v <= hi; ++v) {
      x[j] = v;
      rec(j + 1);
    }
  };
  rec(0);
  return best;
}

TEST(MilpTest, RandomizedAgainstExhaustiveOracle) {
  Rng rng(4242);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(2, 5));
    int hi = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, hi,
                    static_cast<double>(rng.UniformInt(-4, 6)), true);
    }
    int rows = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < rows; ++i) {
      std::vector<LinearTerm> terms;
      for (int j = 0; j < n; ++j) {
        terms.push_back({j, static_cast<double>(rng.UniformInt(-3, 4))});
      }
      double lo = static_cast<double>(rng.UniformInt(-6, 2));
      double hi_b = lo + static_cast<double>(rng.UniformInt(0, 10));
      m.AddConstraint("r" + std::to_string(i), terms, lo, hi_b);
    }
    m.SetSense(rng.Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                  : ObjectiveSense::kMinimize);
    bool oracle_feasible = false;
    double oracle = IntegerOracle(m, hi, &oracle_feasible);
    auto r = SolveMilp(m);
    ASSERT_TRUE(r.ok()) << "trial " << trial;
    if (oracle_feasible) {
      ASSERT_EQ(r->status, MilpStatus::kOptimal)
          << "trial " << trial << ": oracle feasible but solver said "
          << MilpStatusToString(r->status);
      EXPECT_NEAR(r->objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(r->x, 1e-6)) << "trial " << trial;
      ++checked;
    } else {
      EXPECT_EQ(r->status, MilpStatus::kInfeasible) << "trial " << trial;
    }
  }
  // The generator must produce a healthy mix of feasible cases.
  EXPECT_GE(checked, 20);
}

// ----- Branching -------------------------------------------------------------

TEST(BranchingTest, MostFractionalPicksClosestToHalf) {
  LpModel m;
  for (int j = 0; j < 4; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 10, 1.0, true);
  }
  const std::vector<char> is_int = IntegralityMask(m);
  // Fractional parts: 0.3, 0.5, 0.9, 0.0 — index 1 is closest to 1/2.
  EXPECT_EQ(MostFractionalVariable(is_int, {2.3, 5.5, 0.9, 4.0}, 1e-6), 1);
  // 0.45 (dist 0.05) beats 0.7 (dist 0.2).
  EXPECT_EQ(MostFractionalVariable(is_int, {1.45, 3.0, 2.7, 0.0}, 1e-6), 0);
  // Ties break to the lowest index.
  EXPECT_EQ(MostFractionalVariable(is_int, {0.0, 1.25, 2.75, 3.0}, 1e-6), 1);
}

TEST(BranchingTest, MostFractionalHonorsToleranceAndContinuousVars) {
  LpModel m;
  m.AddVariable("i0", 0, 10, 1.0, true);
  m.AddVariable("c1", 0, 10, 1.0, false);  // continuous: never branched
  m.AddVariable("i2", 0, 10, 1.0, true);
  const std::vector<char> is_int = IntegralityMask(m);
  // i0 is within tolerance of 2; c1 is very fractional but continuous.
  EXPECT_EQ(MostFractionalVariable(is_int, {2.0000001, 5.5, 7.2}, 1e-6), 2);
  // Everything integral (within tolerance): -1.
  EXPECT_EQ(MostFractionalVariable(is_int, {2.0, 5.5, 7.0}, 1e-6), -1);
  // A barely-fractional variable is still found when it is all there is.
  EXPECT_EQ(MostFractionalVariable(is_int, {2.001, 5.5, 7.0}, 1e-6), 0);
}

// ----- Status edges under tight budgets --------------------------------------

/// A feasible knapsack-style ILP that needs real branching.
LpModel BranchyModel(int n, uint64_t seed) {
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> cap;
  for (int j = 0; j < n; ++j) {
    double w = rng.UniformReal(1.0, 30.0);
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  w * rng.UniformReal(0.8, 1.2), true);
    cap.push_back({j, w});
  }
  m.AddConstraint("cap", cap, -kInfinity, 7.0 * n);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

TEST(MilpStatusTest, NoSolutionUnderZeroNodeBudgetNotInfeasible) {
  // A perfectly feasible model starved of nodes must report kNoSolution
  // (stopped at a limit), never kInfeasible (a proof that none exists).
  LpModel m = BranchyModel(30, 7);
  MilpOptions opts;
  opts.max_nodes = 0;
  auto r = SolveMilp(m, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kNoSolution);

  MilpOptions time_opts;
  time_opts.time_limit_s = 0.0;
  auto rt = SolveMilp(m, time_opts);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->status, MilpStatus::kNoSolution);
}

TEST(MilpStatusTest, InfeasibleIsProvenOnlyWhenTheTreeIsExhausted) {
  // LP-infeasible at the root: one node is a proof.
  LpModel lp_inf;
  int x = lp_inf.AddVariable("x", 0, 1, 1, true);
  lp_inf.AddConstraint("c", {{x, 1.0}}, 5, 10);
  MilpOptions one_node;
  one_node.max_nodes = 1;
  auto r1 = SolveMilp(lp_inf, one_node);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->status, MilpStatus::kInfeasible);

  // Integer-infeasible but LP-feasible: node presolve proves both of the
  // root's children infeasible by bound propagation alone (y <= 0 and
  // y >= 1 both violate 0.4 <= y <= 0.6), so even a one-node budget
  // exhausts the tree and honestly reports kInfeasible.
  LpModel int_inf;
  int y = int_inf.AddVariable("y", 0, 1, 1, true);
  int_inf.AddConstraint("c", {{y, 1.0}}, 0.4, 0.6);
  auto r2 = SolveMilp(int_inf, one_node);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status, MilpStatus::kInfeasible);
  EXPECT_EQ(r2->presolve_infeasible_children, 2);

  // Parity: 2 * (x0 + ... + x9) = 7 has no integer point, yet fixing one
  // binary leaves the row's activity range around 7, so propagation
  // refutes neither of the root's children and both stay open. A one-node
  // budget then stops with work remaining and must say kNoSolution...
  LpModel parity;
  std::vector<LinearTerm> twice;
  for (int j = 0; j < 10; ++j) {
    parity.AddVariable("x" + std::to_string(j), 0, 1, 1, true);
    twice.push_back({j, 2.0});
  }
  parity.AddConstraint("parity", twice, 7, 7);
  auto r3 = SolveMilp(parity, one_node);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->status, MilpStatus::kNoSolution);
  EXPECT_EQ(r3->presolve_infeasible_children, 0);

  // ...while an unlimited budget exhausts the tree and proves kInfeasible.
  auto r4 = SolveMilp(parity);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->status, MilpStatus::kInfeasible);
  EXPECT_EQ(r4->nodes, 83);
}

TEST(MilpStatusTest, UnboundedSurfacesFromRequeuedNonRootSolve) {
  // max x + 10y with y capped by a row and x truly unbounded. With a
  // one-iteration LP budget the root solve spends its budget pivoting y,
  // hits kIterationLimit, and is re-queued; unboundedness is then
  // discovered by the resumed (non-first) solve and must still surface.
  LpModel m;
  int x = m.AddVariable("x", 0, kInfinity, 1, false);
  int y = m.AddVariable("y", 0, kInfinity, 10, true);
  (void)x;
  m.AddConstraint("ycap", {{y, 1.0}}, -kInfinity, 5);
  m.SetSense(ObjectiveSense::kMaximize);
  MilpOptions opts;
  opts.lp.max_iterations = 1;
  auto r = SolveMilp(m, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kUnbounded);
  EXPECT_GT(r->nodes, 1) << "the root must actually have been re-queued";
}

TEST(MilpStatusTest, BestBoundBracketsOracleUnderNodeLimits) {
  // best_bound must always be a valid optimistic bound on the true
  // optimum, at any node budget; at full budget it must close the gap.
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(3, 6));
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, 2,
                    static_cast<double>(rng.UniformInt(-4, 6)), true);
    }
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, static_cast<double>(rng.UniformInt(1, 4))});
    }
    m.AddConstraint("cap", terms, -kInfinity,
                    static_cast<double>(rng.UniformInt(3, 9)));
    m.SetSense(ObjectiveSense::kMaximize);
    bool feasible = false;
    double oracle = IntegerOracle(m, 2, &feasible);
    ASSERT_TRUE(feasible);  // x = 0 is always feasible here

    for (int64_t budget : {1, 3, 1000000}) {
      MilpOptions opts;
      opts.max_nodes = budget;
      auto r = SolveMilp(m, opts);
      ASSERT_TRUE(r.ok()) << "trial " << trial << " budget " << budget;
      if (r->has_solution()) {
        EXPECT_GE(r->best_bound, oracle - 1e-6)
            << "trial " << trial << " budget " << budget;
        EXPECT_GE(r->best_bound, r->objective - 1e-9)
            << "trial " << trial << " budget " << budget;
        EXPECT_LE(r->objective, oracle + 1e-6)
            << "trial " << trial << " budget " << budget;
      }
      if (budget == 1000000) {
        ASSERT_EQ(r->status, MilpStatus::kOptimal) << "trial " << trial;
        EXPECT_NEAR(r->objective, oracle, 1e-6) << "trial " << trial;
        EXPECT_NEAR(r->best_bound, oracle, 1e-6) << "trial " << trial;
      }
    }
  }
}

// ----- End-of-solve classification at the iteration-limit boundary -----------

/// An LP whose slack basis is infeasible (equality COUNT row), so the
/// solve does real work in both phases — the boundary cases below need a
/// known multi-iteration trajectory.
LpModel TwoPhaseModel() {
  Rng rng(31);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 40; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), false);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 2000, 2600);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

TEST(SimplexStatusBoundaryTest, OptimalProvenExactlyAtLimitIsOptimal) {
  // Pre-fix behavior: a solve whose last allowed pivot reached the optimum
  // was mislabeled kIterationLimit because the limit check ran before the
  // final pricing pass. Optimality proven at the boundary must win.
  LpModel m = TwoPhaseModel();
  auto ref = SolveLp(m);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->status, LpStatus::kOptimal);
  ASSERT_GT(ref->iterations, 2) << "the model must need real work";

  SimplexOptions exact;
  exact.max_iterations = ref->iterations;
  auto r = SolveLp(m, exact);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, LpStatus::kOptimal)
      << "optimal at exactly max_iterations must classify as optimal";
  EXPECT_EQ(r->iterations, ref->iterations);
  EXPECT_NEAR(r->objective, ref->objective, 1e-9);
  EXPECT_FALSE(r->basis.empty());
}

TEST(SimplexStatusBoundaryTest, LimitMidPhase1ReportsLimitWithBasis) {
  // One iteration is not enough to repair the infeasible slack basis:
  // the solve must report the limit (not a fake infeasible) and export a
  // resumable basis that reaches the true optimum.
  LpModel m = TwoPhaseModel();
  auto ref = SolveLp(m);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->status, LpStatus::kOptimal);

  SimplexOptions one;
  one.max_iterations = 1;
  auto limited = SolveLp(m, one);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->status, LpStatus::kIterationLimit);
  ASSERT_FALSE(limited->basis.empty());

  auto resumed = SolveLp(m, {}, nullptr, &limited->basis);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->status, LpStatus::kOptimal);
  EXPECT_NEAR(resumed->objective, ref->objective, 1e-7);
}

TEST(SimplexStatusBoundaryTest, LimitMidPhase2ReportsLimitWithBasis) {
  // One iteration short of the full trajectory: an improving direction
  // still exists at the boundary, so the limit must be reported — and the
  // exported basis must finish in a bounded number of extra pivots.
  LpModel m = TwoPhaseModel();
  auto ref = SolveLp(m);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->status, LpStatus::kOptimal);

  SimplexOptions short_one;
  short_one.max_iterations = ref->iterations - 1;
  auto limited = SolveLp(m, short_one);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->status, LpStatus::kIterationLimit);
  EXPECT_EQ(limited->iterations, ref->iterations - 1);
  ASSERT_FALSE(limited->basis.empty());

  auto resumed = SolveLp(m, {}, nullptr, &limited->basis);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->status, LpStatus::kOptimal);
  EXPECT_NEAR(resumed->objective, ref->objective, 1e-7);
}

TEST(MilpTest, NodeLimitReportsHonestly) {
  // A model that needs branching, starved of nodes.
  LpModel m;
  std::vector<LinearTerm> terms;
  Rng rng(5);
  for (int j = 0; j < 30; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  1.0 + 0.01 * static_cast<double>(j % 7), true);
    terms.push_back({j, 1.0 + 0.37 * static_cast<double>(j % 5)});
  }
  m.AddConstraint("cap", terms, -kInfinity, 17.3);
  m.SetSense(ObjectiveSense::kMaximize);
  MilpOptions opts;
  opts.max_nodes = 1;
  auto r = SolveMilp(m, opts);
  ASSERT_TRUE(r.ok());
  // One node is rarely enough to prove optimality here; accept any honest
  // limited status (feasible-with-incumbent or no-solution).
  EXPECT_TRUE(r->status == MilpStatus::kFeasible ||
              r->status == MilpStatus::kNoSolution ||
              r->status == MilpStatus::kOptimal);
  if (r->status == MilpStatus::kFeasible) {
    EXPECT_TRUE(m.IsFeasible(r->x, 1e-6));
  }
}

}  // namespace
}  // namespace pb::solver
