// Quickstart: the smallest complete PackageBuilder program.
//
// Loads a synthetic recipe table, runs the paper's §2 meal-plan query, and
// prints the resulting package. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/evaluator.h"
#include "core/package.h"
#include "datagen/recipes.h"
#include "db/catalog.h"

int main() {
  // 1. A catalog with one relation (normally you would ReadCsvFile here).
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(500, /*seed=*/42));

  // 2. The paper's example query, verbatim PaQL.
  const std::string query = R"(
      SELECT PACKAGE(R) AS P
      FROM Recipes R
      WHERE R.gluten = 'free'
      SUCH THAT COUNT(*) = 3 AND
                SUM(P.calories) BETWEEN 2000 AND 2500
      MAXIMIZE SUM(P.protein)
  )";

  // 3. Evaluate (the Auto strategy picks pruning + ILP here).
  pb::core::QueryEvaluator evaluator(&catalog);
  auto result = evaluator.Evaluate(query);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the answer.
  const auto& table = **catalog.Get("recipes");
  std::printf("strategy: %s   optimal: %s   %.2f ms\n",
              pb::core::StrategyToString(result->strategy_used),
              result->proven_optimal ? "yes" : "no",
              result->seconds * 1e3);
  std::printf("cardinality bounds from pruning: %s\n",
              result->bounds.ToString().c_str());
  std::printf("total protein: %.1f g\n\n", result->objective);
  auto plan = pb::core::MaterializePackage(table, result->package, "meal_plan");
  auto text = plan.ok() ? plan->ToString() : plan.status();
  if (!text.ok()) {
    std::printf("cannot show the plan: %s\n",
                text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", text->c_str());
  return 0;
}
