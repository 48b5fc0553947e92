// Tests for the EXPLAIN facility (the §5 "optimizing PaQL queries"
// direction): the plan must be what the evaluator and the engine run.

#include <gtest/gtest.h>

#include <optional>

#include "core/explain.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "engine/engine.h"

namespace pb::core {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.RegisterOrReplace(datagen::GenerateRecipes(100, 51));
  }
  db::Catalog catalog_;
};

TEST_F(ExplainTest, LinearOptimizationChoosesIlp) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 2000 "
      "MAXIMIZE SUM(protein)",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->chosen_strategy, Strategy::kIlpSolver);
  EXPECT_TRUE(plan->ilp_translatable);
  EXPECT_GT(plan->model_variables, 0);
  EXPECT_LT(plan->candidates, plan->table_rows);  // base filter applied
  EXPECT_GT(plan->base_selectivity, 0.2);
  EXPECT_LT(plan->base_selectivity, 0.8);
}

TEST_F(ExplainTest, DisjunctiveChoosesSearch) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 4",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->ilp_translatable);
  EXPECT_EQ(plan->chosen_strategy, Strategy::kLocalSearch);
  EXPECT_NE(plan->rationale.find("heuristic"), std::string::npos);
}

TEST_F(ExplainTest, SmallDisjunctiveChoosesBruteForce) {
  db::Catalog tiny;
  tiny.RegisterOrReplace(datagen::GenerateRecipes(10, 5));
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 4",
      tiny);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kBruteForce);
}

TEST_F(ExplainTest, FeasibilityChoosesLocalSearchFirst) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 3000",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kLocalSearch);
  EXPECT_FALSE(plan->has_objective);
}

TEST_F(ExplainTest, InfeasibilityProvedWithoutSearch) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) <= 2 AND SUM(calories) >= 1000000",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kPruning);
  EXPECT_NE(plan->ToString().find("infeasible"), std::string::npos);
}

TEST_F(ExplainTest, ForcedStrategyReported) {
  EvaluationOptions opts;
  opts.strategy = Strategy::kBruteForce;
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 "
      "MAXIMIZE SUM(protein)",
      catalog_, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kBruteForce);
  EXPECT_EQ(plan->rationale, "forced by options");
}

TEST_F(ExplainTest, PlanTextMentionsKeyFacts) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 2000 "
      "MAXIMIZE SUM(protein)",
      catalog_);
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("selectivity"), std::string::npos);
  EXPECT_NE(text.find("cardinality bounds"), std::string::npos);
  EXPECT_NE(text.find("search space"), std::string::npos);
  EXPECT_NE(text.find("IlpSolver"), std::string::npos);
}

/// One route of PlanQuery, or one of its fallback edges.
struct RouteCase {
  const char* name;
  const char* paql;
  /// Expected on the engine: the plan's strategy and fallback, and the
  /// strategy that answers.
  Strategy planned;
  std::optional<Strategy> fallback;
  Strategy ran;
  /// EvaluationOptions::strategy on both sides.
  Strategy forced = Strategy::kAuto;
  /// The engine maintains SketchRefine partitions.
  bool maintained = false;
  /// The engine's table is spilled to a segment file.
  bool spilled = false;
};

bool Answers(Strategy ran, Strategy planned, std::optional<Strategy> fallback) {
  return ran == planned || (fallback && ran == *fallback);
}

TEST_F(ExplainTest, PlanAgreesWithActualEvaluation) {
  // Engine::Explain must name the strategy ExecuteQuery runs, or the
  // fallback it names; ExplainQuery likewise for QueryEvaluator::Evaluate.
  const char* kTight =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 4 AND "
      "SUM(calories) BETWEEN 1990 AND 2010 AND SUM(protein) BETWEEN 99 AND "
      "101 AND SUM(fat) BETWEEN 49 AND 51";
  const char* kMeal =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) <= 2000 MAXIMIZE SUM(protein)";
  const char* kPair =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 "
      "MAXIMIZE SUM(protein)";
  const Strategy kIlp = Strategy::kIlpSolver;
  const Strategy kBf = Strategy::kBruteForce;
  const Strategy kLs = Strategy::kLocalSearch;
  const Strategy kSr = Strategy::kSketchRefine;
  const Strategy kPruned = Strategy::kPruning;
  const RouteCase cases[] = {
      {"translatable optimization",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 "
       "MAXIMIZE SUM(protein)",
       kIlp, std::nullopt, kIlp},
      {"feasibility-only, the burst answers",
       "SELECT PACKAGE(R) FROM recipes R "
       "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 3000",
       kLs, kIlp, kLs},
      {"feasibility-only, the burst falls back", kTight, kLs, kIlp, kIlp},
      {"optimization over at most 12 candidates",
       "SELECT PACKAGE(R) FROM recipes R WHERE R.calories <= 300 "
       "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(protein)",
       kIlp, std::nullopt, kIlp},
      {"small non-translatable",
       "SELECT PACKAGE(R) FROM recipes R WHERE R.calories <= 300 "
       "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 3 MAXIMIZE SUM(protein)",
       kBf, std::nullopt, kBf},
      // Local search finds nothing here, so brute force runs to its 10 s
      // cap on each side: the slow row of this suite.
      {"large non-translatable, local search falls back",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 OR "
       "COUNT(*) = 3 MAXIMIZE SUM(protein)",
       kLs, kBf, kBf},
      {"pruned translatable",
       "SELECT PACKAGE(R) FROM recipes R "
       "SUCH THAT COUNT(*) <= 2 AND SUM(calories) >= 1000000",
       kPruned, std::nullopt, kPruned},
      {"pruned non-translatable",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) <= 2 AND "
       "SUM(calories) >= 1000000 AND (COUNT(*) = 1 OR COUNT(*) = 2)",
       kPruned, std::nullopt, kPruned},
      {"forced IlpSolver beats maintained partitions", kMeal, kIlp,
       std::nullopt, kIlp, kIlp, /*maintained=*/true},
      {"forced BruteForce", kPair, kBf, std::nullopt, kBf, kBf},
      {"forced LocalSearch", kPair, kLs, std::nullopt, kLs, kLs},
      {"maintained, eligible", kMeal, kSr, kIlp, kSr, Strategy::kAuto,
       /*maintained=*/true},
      {"maintained, SketchRefine falls back", kTight, kSr, kIlp, kIlp,
       Strategy::kAuto, /*maintained=*/true},
      {"maintained, MIN/MAX constraint",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
       "MAX(calories) <= 600 MAXIMIZE SUM(protein)",
       kIlp, std::nullopt, kIlp, Strategy::kAuto, /*maintained=*/true},
      {"maintained, spilled table", kMeal, kIlp, std::nullopt, kIlp,
       Strategy::kAuto, /*maintained=*/true, /*spilled=*/true},
  };
  for (const RouteCase& c : cases) {
    SCOPED_TRACE(c.name);
    engine::EngineOptions eo;
    eo.num_threads = 1;
    eo.defaults.strategy = c.forced;
    eo.incremental_maintenance = c.maintained;
    engine::Engine engine(eo);
    ASSERT_TRUE(engine.GenerateDataset("recipes", 100, 51).ok());
    if (c.spilled) {
      ASSERT_TRUE(engine.SpillTable("recipes").ok());
    }
    auto plan = engine.Explain(c.paql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->chosen_strategy, c.planned);
    EXPECT_EQ(plan->fallback, c.fallback);
    engine::QueryResponse r = engine.ExecuteQuery(0, c.paql);
    EXPECT_EQ(r.strategy, c.ran) << r.status.ToString();
    EXPECT_TRUE(Answers(r.strategy, plan->chosen_strategy, plan->fallback));
    EXPECT_EQ(r.ok(), c.ran != kPruned) << r.status.ToString();

    EvaluationOptions opts;
    opts.strategy = c.forced;
    auto core_plan = ExplainQuery(c.paql, catalog_, opts);
    ASSERT_TRUE(core_plan.ok()) << core_plan.status().ToString();
    auto evaluated = QueryEvaluator(&catalog_).Evaluate(c.paql, opts);
    if (core_plan->chosen_strategy == kPruned) {
      EXPECT_EQ(evaluated.status().code(), StatusCode::kInfeasible);
      continue;
    }
    ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
    EXPECT_TRUE(Answers(evaluated->strategy_used, core_plan->chosen_strategy,
                        core_plan->fallback))
        << StrategyToString(evaluated->strategy_used);
  }
}

TEST_F(ExplainTest, PruningAndSketchRefineCannotBeForced) {
  for (Strategy forced : {Strategy::kPruning, Strategy::kSketchRefine}) {
    SCOPED_TRACE(StrategyToString(forced));
    const char* q =
        "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 "
        "MAXIMIZE SUM(protein)";
    engine::EngineOptions eo;
    eo.defaults.strategy = forced;
    engine::Engine engine(eo);
    ASSERT_TRUE(engine.GenerateDataset("recipes", 100, 51).ok());
    EXPECT_EQ(engine.Explain(q).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.ExecuteQuery(0, q).status.code(),
              StatusCode::kInvalidArgument);
    EvaluationOptions opts;
    opts.strategy = forced;
    EXPECT_EQ(ExplainQuery(q, catalog_, opts).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(QueryEvaluator(&catalog_).Evaluate(q, opts).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace pb::core
