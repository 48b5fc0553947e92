// Investment portfolio: the paper's third motivating scenario. "The client
// has a budget of $50K, wants to invest at least 30% of the assets in
// technology, and wants a balance of short-term and long-term options. The
// broker ... needs to find a stock package that satisfies all these
// constraints collectively."
//
// Also demonstrates REPEAT (buying several lots of the same stock) and the
// LP-format dump of the translated model.

#include <cstdio>

#include "core/evaluator.h"
#include "core/translator.h"
#include "datagen/stocks.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

int main() {
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateStocks(600, /*seed=*/99));

  // 30% of the $50K budget in tech = $15K of tech lot value; short/long
  // balance within +/- 2 positions; up to 3 lots of the same stock.
  const std::string query = R"(
      SELECT PACKAGE(S) AS F
      FROM stocks S REPEAT 3
      WHERE S.risk <= 0.5
      SUCH THAT SUM(S.price) <= 50000 AND
                SUM(S.tech_value) >= 15000 AND
                SUM(S.is_short) - SUM(S.is_long) BETWEEN -2 AND 2 AND
                COUNT(*) BETWEEN 5 AND 15
      MAXIMIZE SUM(S.expected_gain)
  )";

  auto aq = pb::paql::ParseAndAnalyze(query, catalog);
  if (!aq.ok()) {
    std::printf("error: %s\n", aq.status().ToString().c_str());
    return 1;
  }

  // Peek at the constraint-optimization translation (§7 of the paper shows
  // exactly this to demo attendees).
  auto translation = pb::core::TranslateToIlp(*aq);
  if (translation.ok()) {
    std::printf("translated to a MILP with %d variables, %d constraints\n",
                translation->model.num_variables(),
                translation->model.num_constraints());
    // Print only the header of the LP dump; the full text is long.
    std::string lp = translation->model.ToLpFormat();
    std::printf("%s...\n\n", lp.substr(0, 300).c_str());
  }

  pb::core::QueryEvaluator evaluator(&catalog);
  auto r = evaluator.Evaluate(*aq);
  if (!r.ok()) {
    std::printf("no portfolio found: %s\n", r.status().ToString().c_str());
    return 1;
  }
  const auto& table = **catalog.Get("stocks");
  std::printf("expected annual gain: $%.2f  (proven optimal: %s)\n\n",
              r->objective, r->proven_optimal ? "yes" : "no");
  auto portfolio = pb::core::MaterializePackage(table, r->package, "portfolio");
  auto text = portfolio.ok() ? portfolio->ToString(20) : portfolio.status();
  if (!text.ok()) {
    std::printf("cannot show the portfolio: %s\n",
                text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", text->c_str());

  // Report the budget/constraint usage.
  auto report = [&](const char* label, const char* col) {
    pb::paql::AggCall agg{pb::db::AggFunc::kSum, pb::db::Col(col)};
    auto v = pb::core::EvalPackageAgg(agg, table, r->package);
    if (v.ok()) std::printf("%-18s %s\n", label, v->ToString().c_str());
  };
  report("total invested:", "price");
  report("tech exposure:", "tech_value");
  report("short positions:", "is_short");
  report("long positions:", "is_long");
  return 0;
}
