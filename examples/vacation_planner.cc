// Vacation planner: the paper's second motivating scenario. "They do not
// want to spend more than $2,000 on flights and hotels combined. They also
// want to be in walking distance from the beach, unless their budget can
// fit a rental car."
//
// The beach-unless-car condition is a genuinely disjunctive global
// constraint — it cannot go to the ILP solver, so this example exercises
// the engine's search fallback (the paper §5: "solvers cannot usually
// handle non-linear global constraints; hence evaluating such queries
// requires different methods").

#include <cstdio>

#include "core/evaluator.h"
#include "core/package.h"
#include "datagen/travel.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

int main() {
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(
      pb::datagen::GenerateTravelItems(400, /*seed=*/2026));

  // Two flights (outbound + return), one hotel bundle, at most one rental
  // car; under $2000 total; on the beach (<= 1.5 km) OR with a car.
  const std::string query = R"(
      SELECT PACKAGE(T) AS V
      FROM travel_items T
      WHERE T.dest = 'maui'
      SUCH THAT SUM(T.is_flight) = 2 AND
                SUM(T.is_hotel) = 1 AND
                SUM(T.is_car) <= 1 AND
                SUM(T.price) <= 2000 AND
                (SUM(T.beach_km) <= 1.5 OR SUM(T.is_car) = 1)
      MAXIMIZE SUM(T.comfort)
  )";

  auto aq = pb::paql::ParseAndAnalyze(query, catalog);
  if (!aq.ok()) {
    std::printf("error: %s\n", aq.status().ToString().c_str());
    return 1;
  }
  std::printf("ILP-translatable: %s (%s)\n",
              aq->ilp_translatable ? "yes" : "no",
              aq->not_translatable_reason.c_str());

  pb::core::QueryEvaluator evaluator(&catalog);
  pb::core::EvaluationOptions opts;
  opts.local_search.max_restarts = 24;
  opts.local_search.time_limit_s = 20.0;
  opts.brute_force.time_limit_s = 30.0;
  auto r = evaluator.Evaluate(*aq, opts);
  if (!r.ok()) {
    std::printf("no vacation package found: %s\n",
                r.status().ToString().c_str());
    return 1;
  }
  const auto& table = **catalog.Get("travel_items");
  std::printf("strategy: %s   comfort score: %.1f\n\n",
              pb::core::StrategyToString(r->strategy_used), r->objective);
  auto vacation = pb::core::MaterializePackage(table, r->package, "vacation");
  auto text = vacation.ok() ? vacation->ToString() : vacation.status();
  if (!text.ok()) {
    std::printf("cannot show the package: %s\n",
                text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", text->c_str());

  // Show the disjunction's resolution.
  pb::paql::AggCall beach{pb::db::AggFunc::kSum, pb::db::Col("beach_km")};
  pb::paql::AggCall car{pb::db::AggFunc::kSum, pb::db::Col("is_car")};
  auto beach_v = pb::core::EvalPackageAgg(beach, table, r->package);
  auto car_v = pb::core::EvalPackageAgg(car, table, r->package);
  if (beach_v.ok() && car_v.ok()) {
    std::printf("beach distance total: %s km, rental cars: %s -> %s\n",
                beach_v->ToString().c_str(), car_v->ToString().c_str(),
                car_v->is_numeric() &&
                        car_v->Compare(pb::db::Value::Int(1)) >= 0
                    ? "farther stay is fine (car included)"
                    : "walking distance to the beach");
  }
  return 0;
}
