// Tests for the dual-simplex child re-solve and the node-presolve bound
// propagation: dual entry conditions and agreement with a cold SolveLp,
// presolve and reduced-cost tightening against the brute-force integer
// oracle on small instances, SketchRefine packages pinned to recorded
// answers, and the recorded search shape on the paper's scenarios.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "core/translator.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"
#include "datagen/stocks.h"
#include "datagen/travel.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

/// A package-shaped LP/ILP: n columns, a COUNT row, a ranged weight row,
/// and a cost cap. Continuous random coefficients make the optimum unique
/// with probability one, so warm/cold comparisons can assert equality of
/// solutions, not just objectives.
LpModel PackageModel(int n, uint64_t seed, bool integer) {
  Rng rng(seed);
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
  m.AddConstraint("weight", weight, 2000, 2600);
  m.AddConstraint("cost", cost, -kInfinity, 120);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

/// The branch-and-bound child pattern: the parent's bounds with one
/// variable's range tightened.
std::vector<std::pair<double, double>> ChildBounds(const LpModel& m, int var,
                                                   double lo, double hi) {
  std::vector<std::pair<double, double>> bounds;
  for (int j = 0; j < m.num_variables(); ++j) {
    bounds.emplace_back(m.variable(j).lb, m.variable(j).ub);
  }
  bounds[var] = {lo, hi};
  return bounds;
}

/// A variable that is strictly between its bounds at the LP optimum (the
/// interesting one to branch away).
int FractionalVariable(const LpModel& m, const std::vector<double>& x) {
  for (int j = 0; j < m.num_variables(); ++j) {
    if (x[j] > 0.1 && x[j] < 0.9) return j;
  }
  for (int j = 0; j < m.num_variables(); ++j) {
    if (x[j] > 0.5) return j;
  }
  return -1;
}

// ----- LP level: dual entry, agreement with cold, fallback -------------------

TEST(DualSimplexTest, EntersOnChildResolveAndMatchesCold) {
  for (uint64_t seed : {7u, 11u, 23u, 41u}) {
    LpModel m = PackageModel(200, seed, /*integer=*/false);
    auto parent = SolveLp(m);
    ASSERT_TRUE(parent.ok());
    ASSERT_EQ(parent->status, LpStatus::kOptimal);
    EXPECT_EQ(parent->dual_iterations, 0)
        << "cold solves never enter the dual simplex";
    int pick = FractionalVariable(m, parent->x);
    ASSERT_GE(pick, 0) << "seed " << seed;
    auto bounds = ChildBounds(m, pick, 0.0, 0.0);

    auto cold_child = SolveLp(m, {}, &bounds);
    auto dual_child = SolveLp(m, {}, &bounds, &parent->basis);
    ASSERT_TRUE(cold_child.ok());
    ASSERT_TRUE(dual_child.ok());
    ASSERT_EQ(cold_child->status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(dual_child->status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_GT(dual_child->dual_iterations, 0)
        << "seed " << seed
        << ": a bound-infeasible dual-feasible warm basis must enter the "
           "dual simplex";
    EXPECT_NEAR(dual_child->objective, cold_child->objective, 1e-7)
        << "seed " << seed;
    for (size_t j = 0; j < dual_child->x.size(); ++j) {
      EXPECT_NEAR(dual_child->x[j], cold_child->x[j], 1e-7)
          << "seed " << seed << " x[" << j << "]";
    }
    EXPECT_LT(dual_child->iterations, cold_child->iterations)
        << "seed " << seed << ": the dual re-solve must beat a cold start";
  }
}

TEST(DualSimplexTest, FixedColumnsCostNoIterations) {
  // The child node presolve hands the LP after a COUNT row saturates: one
  // fractional column branched up, and every zero-valued nonbasic column
  // fixed at 0. A fixed column can never move, so the dual re-solve must
  // spend every iteration on a dual pivot: no zero-length bound flips, and
  // no primal iterations afterwards to undo them.
  for (uint64_t seed : {11u, 31u}) {
    LpModel m = PackageModel(200, seed, /*integer=*/false);
    auto parent = SolveLp(m);
    ASSERT_TRUE(parent.ok());
    ASSERT_EQ(parent->status, LpStatus::kOptimal);
    int pick = FractionalVariable(m, parent->x);
    ASSERT_GE(pick, 0) << "seed " << seed;
    auto bounds = ChildBounds(m, pick, 1.0, 1.0);
    for (int j = 0; j < m.num_variables(); ++j) {
      if (j != pick && parent->basis.stat[j] != VarStat::kBasic &&
          parent->x[j] == 0.0) {
        bounds[j] = {0.0, 0.0};
      }
    }

    auto cold = SolveLp(m, {}, &bounds);
    auto warm = SolveLp(m, {}, &bounds, &parent->basis);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(cold->status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(warm->status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_GT(warm->dual_iterations, 0) << "seed " << seed;
    EXPECT_EQ(warm->iterations, warm->dual_iterations)
        << "seed " << seed << ": fixed columns must cost no iteration";
    EXPECT_NEAR(warm->objective, cold->objective, 1e-7) << "seed " << seed;
    for (size_t j = 0; j < warm->x.size(); ++j) {
      EXPECT_NEAR(warm->x[j], cold->x[j], 1e-7)
          << "seed " << seed << " x[" << j << "]";
    }
  }
}

TEST(DualSimplexTest, InfeasibleChildIsProvenNotFaked) {
  // Fix all but three variables to zero: COUNT(*) = 5 becomes impossible,
  // and the dual simplex must prove it (matching the cold verdict) rather
  // than return a bogus point.
  LpModel m = PackageModel(60, 13, /*integer=*/false);
  auto parent = SolveLp(m);
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->status, LpStatus::kOptimal);
  std::vector<std::pair<double, double>> bounds;
  for (int j = 0; j < m.num_variables(); ++j) {
    bounds.emplace_back(0.0, j < 3 ? 1.0 : 0.0);
  }
  auto cold = SolveLp(m, {}, &bounds);
  auto warm = SolveLp(m, {}, &bounds, &parent->basis);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->status, LpStatus::kInfeasible);
  EXPECT_EQ(warm->status, LpStatus::kInfeasible);
}

// ----- MILP level: node presolve against the oracle --------------------------

TEST(MilpNodePresolveTest, CountRowFixesImpliedBinaries) {
  // max 2*x0 + 3*x1 s.t. x0 + x1 + x2 = 1, x0 + 2*x1 <= 1.5: the unique LP
  // optimum is fractional (x0 = x1 = 0.5), so the solver branches on x0.
  // The up-branch x0 >= 1 saturates the COUNT row's minimum activity — it
  // stays cap-feasible — which fixes x1 and x2 to zero by propagation
  // alone.
  LpModel m;
  int x0 = m.AddVariable("x0", 0, 1, 2.0, true);
  int x1 = m.AddVariable("x1", 0, 1, 3.0, true);
  int x2 = m.AddVariable("x2", 0, 1, 0.0, true);
  m.AddConstraint("count", {{x0, 1.0}, {x1, 1.0}, {x2, 1.0}}, 1, 1);
  m.AddConstraint("cap", {{x0, 1.0}, {x1, 2.0}}, -kInfinity, 1.5);
  m.SetSense(ObjectiveSense::kMaximize);

  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 2.0, 1e-9);  // x0 = 1 is the integer optimum
  EXPECT_GT(r->presolve_fixed_bounds, 0)
      << "branching x0 up must fix x1/x2 through the COUNT row";
}

TEST(MilpNodePresolveTest, InfeasibleChildrenPrunedWithZeroLpWork) {
  // 0.4 <= y <= 0.6, y binary: both children of the root die in presolve.
  LpModel m;
  int y = m.AddVariable("y", 0, 1, 1, true);
  m.AddConstraint("c", {{y, 1.0}}, 0.4, 0.6);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kInfeasible);
  EXPECT_EQ(r->presolve_infeasible_children, 2);
  EXPECT_EQ(r->nodes, 1) << "only the root LP may be solved";
}

/// Exhaustive integer oracle (the solver trust anchor for small models):
/// tries every integer point within the variables' (finite) bounds.
double IntegerOracle(const LpModel& m, bool* feasible) {
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
    for (double v = m.variable(j).lb; v <= m.variable(j).ub; ++v) {
      x[j] = v;
      rec(j + 1);
    }
  };
  rec(0);
  return best;
}

TEST(MilpNodePresolveTest, RandomizedAgainstOracleWithRangedRows) {
  // Ranged (two-sided) rows are where propagation both fixes variables and
  // prunes children, so this is the adversarial surface for presolve; the
  // dual simplex rides along on every warm child re-solve.
  Rng rng(20260726);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(2, 6));
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
      double hi_b = lo + static_cast<double>(rng.UniformInt(0, 6));
      m.AddConstraint("r" + std::to_string(i), terms, lo, hi_b);
    }
    m.SetSense(rng.Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                  : ObjectiveSense::kMinimize);
    bool oracle_feasible = false;
    double oracle = IntegerOracle(m, &oracle_feasible);

    auto full = SolveMilp(m);
    ASSERT_TRUE(full.ok()) << "trial " << trial;
    if (oracle_feasible) {
      ASSERT_EQ(full->status, MilpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(full->objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(full->x, 1e-6)) << "trial " << trial;
      ++checked;
    } else {
      EXPECT_EQ(full->status, MilpStatus::kInfeasible) << "trial " << trial;
    }
  }
  EXPECT_GE(checked, 20);

  // Package-shaped trials for reduced-cost tightening: a COUNT row and a
  // weight window over 10-14 columns, the first few general-integer, with
  // objectives on a few coarse levels nudged apart by at most 3e-6. Near
  // ties keep the gap to the incumbent small, so the tightening fires
  // often and its margin is what separates a cut package from the
  // optimum.
  constexpr int kPackageTrials = 40;
  int tightened_trials = 0;
  int package_checked = 0;
  for (int trial = 0; trial < kPackageTrials; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(10, 14));
    int general = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<LinearTerm> count, weight;
    for (int j = 0; j < n; ++j) {
      double obj = 10.0 + static_cast<double>(rng.UniformInt(0, 3)) +
                   1e-6 * static_cast<double>(rng.UniformInt(0, 3));
      m.AddVariable("x" + std::to_string(j), 0, j < general ? 2 : 1, obj,
                    true);
      count.push_back({j, 1.0});
      weight.push_back({j, static_cast<double>(rng.UniformInt(1, 9))});
    }
    int k = static_cast<int>(rng.UniformInt(3, 5));
    m.AddConstraint("count", count, k, k);
    double lo = 5.0 * k - static_cast<double>(rng.UniformInt(0, 6));
    m.AddConstraint("weight", weight, lo,
                    lo + static_cast<double>(rng.UniformInt(0, 4)));
    m.SetSense(rng.Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                  : ObjectiveSense::kMinimize);
    bool oracle_feasible = false;
    double oracle = IntegerOracle(m, &oracle_feasible);

    auto full = SolveMilp(m);
    ASSERT_TRUE(full.ok()) << "package trial " << trial;
    if (full->reduced_cost_tightenings > 0) ++tightened_trials;
    if (oracle_feasible) {
      const std::string where = "package trial " + std::to_string(trial);
      ASSERT_EQ(full->status, MilpStatus::kOptimal) << where;
      EXPECT_NEAR(full->objective, oracle, 1e-9) << where;
      EXPECT_TRUE(m.IsFeasible(full->x, 1e-9)) << where;
      ++package_checked;
    } else {
      EXPECT_EQ(full->status, MilpStatus::kInfeasible)
          << "package trial " << trial;
    }
  }
  EXPECT_GE(package_checked, kPackageTrials / 2);
  EXPECT_GE(tightened_trials, kPackageTrials / 4)
      << "the package trials must exercise reduced-cost tightening";
}

}  // namespace
}  // namespace pb::solver

namespace pb::core {
namespace {

// ----- End to end: the tier-1 query suite against recorded answers ----------

struct QueryCase {
  const char* name;
  const char* text;
  double objective;
  const char* package;  ///< Package::Fingerprint()
};

/// The tier-1 SketchRefine workloads (recipes + lineitem shapes from the
/// suite). Each package and objective was recorded when the warm-primal
/// repair and the presolve-off search still existed, from runs that agreed
/// with them bit for bit; the dual+presolve search must keep giving them.
TEST(SketchRefineDualPresolveTest, QuerySuitePackagesBitIdentical) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 17));
  c.RegisterOrReplace(datagen::GenerateLineitems(2000, 5));
  const QueryCase cases[] = {
      {"recipes-meal",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 6 AND "
       "SUM(calories) BETWEEN 2400 AND 3600 MAXIMIZE SUM(protein)",
       0x1.5ee6666666667p+8, "91x1,175x1,251x1,289x1,543x1,570x1"},
      {"recipes-capped",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 4 AND "
       "SUM(calories) <= 2400 MAXIMIZE SUM(rating)",
       0x1.4p+4, "23x1,70x1,105x1,436x1"},
      {"lineitem-revenue",
       "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 8 AND "
       "SUM(quantity) <= 200 MAXIMIZE SUM(revenue)",
       0x1.4614666666666p+14,
       "76x1,191x1,390x1,523x1,1127x1,1308x1,1362x1,1540x1"},
      {"lineitem-window",
       "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 12 AND "
       "SUM(quantity) = 300 AND SUM(extendedprice) BETWEEN 20000 AND 26000 "
       "MAXIMIZE SUM(revenue)",
       0x1.844228f5c28f6p+14,
       "57x1,76x1,109x1,191x1,246x1,535x1,557x1,895x1,1127x1,1492x1,1540x1,"
       "1863x1"},
  };
  for (const QueryCase& qc : cases) {
    auto aq = paql::ParseAndAnalyze(qc.text, c);
    ASSERT_TRUE(aq.ok()) << qc.name << ": " << aq.status().ToString();

    SketchRefineOptions opts;
    opts.partition_size = 64;
    auto r = SketchRefine(*aq, opts);
    ASSERT_TRUE(r.ok()) << qc.name << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << qc.name;
    EXPECT_EQ(r->package.Fingerprint(), qc.package) << qc.name;
    EXPECT_EQ(r->objective, qc.objective) << qc.name;
  }
}

// ----- Search shape on the paper's scenarios -----------------------------------

struct ScenarioCase {
  const char* name;
  const char* text;
  int64_t nodes;
  int64_t presolve_fixed_bounds;
  int64_t presolve_infeasible_children;
  int64_t reduced_cost_tightenings;
  double objective;
  const char* package;  ///< Package::Fingerprint()
};

TEST(ScenarioSearchShapeTest, NodePresolveKeepsTheRecordedSearch) {
  // Meal, portfolio and vacation ILPs shaped like the end-to-end
  // benchmark's, over its generated tables. The constants were recorded
  // from the serial solver. Node presolve state that leaks from one
  // propagation into the next (a queue flag left set, a stale saved bound)
  // changes which bounds later children tighten, and so does a change to
  // the reduced-cost tightening's margin: every answer stays optimal, so
  // only these search-shape counters notice. lp_iterations is
  // deliberately not pinned; a legitimate LP change may lower it.
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(1000, 2014));
  c.RegisterOrReplace(datagen::GenerateStocks(500, 2015));
  c.RegisterOrReplace(datagen::GenerateTravelItems(2000, 2016));
  const ScenarioCase cases[] = {
      {"meal-1",
       "SELECT PACKAGE(R) FROM recipes R WHERE R.gluten = 'free' AND "
       "R.protein >= 22.5 SUCH THAT COUNT(*) = 3 AND SUM(R.calories) "
       "BETWEEN 1650.25 AND 1950.75 MAXIMIZE SUM(R.protein)",
       50, 143, 2, 465, 0x1.8p+7, "91x1,315x1,602x1"},
      {"meal-2",
       "SELECT PACKAGE(R) FROM recipes R WHERE R.gluten = 'free' AND "
       "R.protein >= 27.0 SUCH THAT COUNT(*) = 3 AND SUM(R.calories) "
       "BETWEEN 1480.00 AND 1690.50 MAXIMIZE SUM(R.protein)",
       9, 64, 1, 285, 0x1.4dp+7, "91x1,428x1,895x1"},
      {"meal-3",
       "SELECT PACKAGE(R) FROM recipes R WHERE R.gluten = 'free' AND "
       "R.protein >= 24.0 SUCH THAT COUNT(*) = 3 AND SUM(R.calories) "
       "BETWEEN 2010.40 AND 2420.10 MAXIMIZE SUM(R.protein)",
       25, 166, 0, 1125, 0x1.defffffffffffp+7, "189x1,219x1,428x1"},
      {"portfolio-1",
       "SELECT PACKAGE(S) FROM stocks S WHERE S.price <= 4200.00 SUCH THAT "
       "SUM(S.risk) <= 2.1005 AND SUM(S.is_tech) >= 2 AND COUNT(*) BETWEEN "
       "4 AND 8 MAXIMIZE SUM(S.expected_gain)",
       3, 3, 0, 399, 0x1.0fdc7ae147ae2p+12,
       "9x1,13x1,179x1,210x1,281x1,393x1,421x1,479x1"},
      {"portfolio-2",
       "SELECT PACKAGE(S) FROM stocks S WHERE S.price <= 6800.00 SUCH THAT "
       "SUM(S.risk) <= 1.6505 AND SUM(S.is_tech) >= 3 AND COUNT(*) BETWEEN "
       "3 AND 7 MAXIMIZE SUM(S.expected_gain)",
       38, 23, 1, 490, 0x1.4e55eb851eb86p+12,
       "68x1,82x1,85x1,210x1,281x1,312x1,446x1"},
      {"portfolio-3",
       "SELECT PACKAGE(S) FROM stocks S WHERE S.price <= 7500.00 SUCH THAT "
       "SUM(S.risk) <= 2.8005 AND SUM(S.is_tech) >= 1 AND COUNT(*) BETWEEN "
       "6 AND 10 MAXIMIZE SUM(S.expected_gain)",
       106, 30, 0, 4372, 0x1.0dca28f5c28f6p+13,
       "68x1,82x1,85x1,255x1,263x1,312x1,457x1,493x1,495x1,496x1"},
      {"vacation-1",
       "SELECT PACKAGE(T) FROM travel_items T WHERE T.dest = 'maui' SUCH "
       "THAT SUM(T.is_flight) = 2 AND SUM(T.is_hotel) = 1 AND "
       "SUM(T.is_car) <= 1 AND SUM(T.price) <= 1420.00 "
       "MAXIMIZE SUM(T.comfort)",
       5, 11, 1, 312, 0x1.2ccccccccccccp+4, "946x1,1026x1,1597x1,1838x1"},
      {"vacation-2",
       "SELECT PACKAGE(T) FROM travel_items T WHERE T.dest = 'cancun' SUCH "
       "THAT SUM(T.is_flight) = 2 AND SUM(T.is_hotel) = 1 AND "
       "SUM(T.is_car) <= 1 AND SUM(T.price) <= 1650.00 "
       "MAXIMIZE SUM(T.comfort)",
       5, 5, 0, 304, 0x1.34ccccccccccdp+4, "1061x1,1174x1,1607x1,1783x1"},
  };
  for (const ScenarioCase& sc : cases) {
    auto aq = paql::ParseAndAnalyze(sc.text, c);
    ASSERT_TRUE(aq.ok()) << sc.name << ": " << aq.status().ToString();
    auto t = TranslateToIlp(*aq);
    ASSERT_TRUE(t.ok()) << sc.name << ": " << t.status().ToString();
    auto r = solver::SolveMilp(t->model);
    ASSERT_TRUE(r.ok()) << sc.name << ": " << r.status().ToString();
    ASSERT_EQ(r->status, solver::MilpStatus::kOptimal) << sc.name;
    EXPECT_EQ(r->nodes, sc.nodes) << sc.name;
    EXPECT_EQ(r->presolve_fixed_bounds, sc.presolve_fixed_bounds) << sc.name;
    EXPECT_EQ(r->presolve_infeasible_children,
              sc.presolve_infeasible_children)
        << sc.name;
    EXPECT_EQ(r->reduced_cost_tightenings, sc.reduced_cost_tightenings)
        << sc.name;
    EXPECT_EQ(r->objective, sc.objective) << sc.name;
    EXPECT_EQ(DecodeSolution(*t, r->x).Fingerprint(), sc.package) << sc.name;
  }
}

TEST(SketchRefineDualPresolveTest, DualIterationsReportedOnRefineWorkload) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 41));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 6 AND "
      "SUM(calories) BETWEEN 2400 AND 3600 AND SUM(fat) <= 180 "
      "MAXIMIZE SUM(protein)",
      c);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  SketchRefineOptions opts;
  opts.partition_size = 50;
  auto r = SketchRefine(*aq, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->found);
  EXPECT_GT(r->lp_dual_iterations, 0)
      << "the refine/repair sub-ILPs must exercise the dual re-solve";
  EXPECT_LE(r->lp_dual_iterations, r->lp_iterations);
}

}  // namespace
}  // namespace pb::core
