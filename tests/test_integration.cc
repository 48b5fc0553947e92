// Whole-pipeline integration tests: CSV round trips through the catalog,
// the demo scenarios end to end, and a parameterized query-feature matrix
// that pushes every PaQL feature through parse -> analyze -> evaluate ->
// validate on one shared dataset.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/evaluator.h"
#include "core/explain.h"
#include "datagen/recipes.h"
#include "datagen/stocks.h"
#include "datagen/travel.h"
#include "db/catalog.h"
#include "db/csv.h"
#include "paql/analyzer.h"
#include "ui/template.h"

namespace pb {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.RegisterOrReplace(datagen::GenerateRecipes(150, 61));
    catalog_.RegisterOrReplace(datagen::GenerateTravelItems(200, 62));
    catalog_.RegisterOrReplace(datagen::GenerateStocks(200, 63));
  }
  db::Catalog catalog_;
};

TEST_F(IntegrationTest, CsvDiskRoundTripThenQuery) {
  // Export the recipes to disk, reload under a new name, and query the
  // reloaded copy — the workflow of a user bringing their own data.
  std::string path = ::testing::TempDir() + "/pb_recipes_rt.csv";
  const db::Table& original = **catalog_.Get("recipes");
  ASSERT_TRUE(db::WriteCsvFile(original, path).ok());
  auto reloaded = db::ReadCsvFile(path, "recipes2");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->num_rows(), original.num_rows());
  catalog_.RegisterOrReplace(std::move(reloaded).value());

  core::QueryEvaluator ev(&catalog_);
  auto a = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 "
      "MAXIMIZE SUM(protein)");
  auto b = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes2 R SUCH THAT COUNT(*) = 3 "
      "MAXIMIZE SUM(protein)");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, PackageExportedAsCsv) {
  core::QueryEvaluator ev(&catalog_);
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 4 "
      "MINIMIZE SUM(cost)",
      catalog_);
  ASSERT_TRUE(aq.ok());
  auto r = ev.Evaluate(*aq);
  ASSERT_TRUE(r.ok());
  auto pkg = core::MaterializePackage(*aq->table, r->package, "answer");
  ASSERT_TRUE(pkg.ok()) << pkg.status().ToString();
  std::string path = ::testing::TempDir() + "/pb_package.csv";
  ASSERT_TRUE(db::WriteCsvFile(*pkg, path).ok());
  auto back = db::ReadCsvFile(path, "answer");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 4u);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, AllThreeIntroScenariosSolve) {
  core::QueryEvaluator ev(&catalog_);
  // Meal planner.
  auto meals = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R WHERE R.gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(R.calories) BETWEEN 1500 AND 3000 "
      "MAXIMIZE SUM(R.protein)");
  ASSERT_TRUE(meals.ok()) << meals.status().ToString();
  // Vacation planner (disjunctive form -> search fallback).
  core::EvaluationOptions vac_opts;
  vac_opts.local_search.max_restarts = 24;
  auto vacation = ev.Evaluate(
      "SELECT PACKAGE(T) FROM travel_items T "
      "SUCH THAT SUM(T.is_flight) = 2 AND SUM(T.is_hotel) = 1 AND "
      "SUM(T.price) <= 3000 AND "
      "(SUM(T.beach_km) <= 2 OR SUM(T.is_car) = 1) "
      "MAXIMIZE SUM(T.comfort)",
      vac_opts);
  ASSERT_TRUE(vacation.ok()) << vacation.status().ToString();
  // Portfolio.
  auto portfolio = ev.Evaluate(
      "SELECT PACKAGE(S) FROM stocks S REPEAT 3 "
      "SUCH THAT SUM(S.price) <= 50000 AND SUM(S.tech_value) >= 10000 AND "
      "SUM(S.is_short) - SUM(S.is_long) BETWEEN -2 AND 2 AND "
      "COUNT(*) BETWEEN 4 AND 15 MAXIMIZE SUM(S.expected_gain)");
  ASSERT_TRUE(portfolio.ok()) << portfolio.status().ToString();
  EXPECT_GT(portfolio->objective, 0.0);
}

// A WHERE clause that keeps no row still has an answer when the empty
// package meets the constraints: the solver proves it optimal.
TEST_F(IntegrationTest, EmptyCandidateSetAnswersTheEmptyPackage) {
  core::QueryEvaluator ev(&catalog_);
  auto r = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R WHERE R.calories < 0 "
      "SUCH THAT COUNT(*) <= 3 MAXIMIZE SUM(R.protein)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->strategy_used, core::Strategy::kIlpSolver);
  EXPECT_EQ(r->num_candidates, 0u);
  EXPECT_EQ(r->package.TotalCount(), 0);
  EXPECT_TRUE(r->proven_optimal);
  EXPECT_EQ(r->objective, 0.0);
}

// ----- Feature matrix --------------------------------------------------------

struct FeatureCase {
  const char* label;
  const char* query;
  bool expect_translatable;
};

class FeatureMatrixTest : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(FeatureMatrixTest, ParsesEvaluatesValidates) {
  const FeatureCase& fc = GetParam();
  db::Catalog catalog;
  catalog.RegisterOrReplace(datagen::GenerateRecipes(40, 71));
  auto aq = paql::ParseAndAnalyze(fc.query, catalog);
  ASSERT_TRUE(aq.ok()) << fc.label << ": " << aq.status().ToString();
  EXPECT_EQ(
      aq->ilp_translatable && (!aq->has_objective || aq->objective_linear),
      fc.expect_translatable)
      << fc.label << " (" << aq->not_translatable_reason << ")";

  core::QueryEvaluator ev(&catalog);
  core::EvaluationOptions opts;
  opts.local_search.max_restarts = 16;
  auto r = ev.Evaluate(*aq, opts);
  if (!r.ok()) {
    // Infeasibility is an acceptable outcome for some windows; anything
    // else is a failure.
    ASSERT_EQ(r.status().code(), StatusCode::kInfeasible)
        << fc.label << ": " << r.status().ToString();
    return;
  }
  auto valid = core::IsValidPackage(*aq, r->package);
  ASSERT_TRUE(valid.ok()) << fc.label;
  EXPECT_TRUE(*valid) << fc.label << " produced an invalid package";

  // EXPLAIN must succeed for everything that analyzes.
  auto plan = core::ExplainQuery(*aq);
  ASSERT_TRUE(plan.ok()) << fc.label;
  // Template rendering must succeed for any valid sample.
  auto screen = ui::RenderPackageTemplate(*aq, r->package);
  ASSERT_TRUE(screen.ok()) << fc.label;
}

INSTANTIATE_TEST_SUITE_P(
    PaqlFeatures, FeatureMatrixTest,
    ::testing::Values(
        FeatureCase{"plain_count",
                    "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3",
                    true},
        FeatureCase{"where_like",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "WHERE name LIKE '%bowl%' SUCH THAT COUNT(*) >= 1", true},
        FeatureCase{"where_in",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "WHERE cuisine IN ('thai', 'greek') "
                    "SUCH THAT COUNT(*) = 2", true},
        FeatureCase{"sum_window",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT SUM(calories) BETWEEN 800 AND 2000 "
                    "AND COUNT(*) <= 5", true},
        FeatureCase{"avg_rewrite",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT AVG(calories) <= 600 AND COUNT(*) = 3 "
                    "MAXIMIZE SUM(rating)", true},
        FeatureCase{"min_max_extremes",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT MIN(rating) >= 2 AND MAX(calories) <= 1000 "
                    "AND COUNT(*) = 2", true},
        FeatureCase{"count_expr",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT COUNT(sodium) >= 2 AND COUNT(*) = 2", true},
        FeatureCase{"linear_combo",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT 2 * SUM(protein) - SUM(fat) >= 10 "
                    "AND COUNT(*) = 3 MINIMIZE SUM(cost)", true},
        FeatureCase{"repeat",
                    "SELECT PACKAGE(R) FROM recipes R REPEAT 2 "
                    "SUCH THAT COUNT(*) = 4 MAXIMIZE SUM(protein)", true},
        FeatureCase{"disjunction",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 3", false},
        FeatureCase{"negation",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT NOT (SUM(calories) > 2000) AND COUNT(*) = 2",
                    false},
        FeatureCase{"not_equal",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT COUNT(*) <> 3 AND COUNT(*) BETWEEN 1 AND 4",
                    false},
        FeatureCase{"nonlinear_product",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT SUM(protein) * SUM(fat) <= 5000 "
                    "AND COUNT(*) = 2", false},
        FeatureCase{"avg_objective",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT COUNT(*) = 3 MAXIMIZE AVG(protein)", false},
        FeatureCase{"strict_inequalities",
                    "SELECT PACKAGE(R) FROM recipes R "
                    "SUCH THAT SUM(calories) > 500 AND SUM(calories) < 1500 "
                    "AND COUNT(*) = 2", true}),
    [](const ::testing::TestParamInfo<FeatureCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace pb
