#include "core/explain.h"

#include <cmath>
#include <tuple>

#include "common/strings.h"
#include "core/translator.h"

namespace pb::core {

std::string QueryPlan::ToString() const {
  std::string out;
  out += "== Query plan ==\n";
  out += "base relation:        " + std::to_string(table_rows) + " rows\n";
  out += "base constraints:     " + std::to_string(candidates) +
         " candidates (selectivity " +
         FormatDouble(base_selectivity * 100.0, 3) + "%)\n";
  out += "global constraints:   " + std::to_string(linear_constraints) +
         " linear, " + std::to_string(extreme_constraints) + " MIN/MAX\n";
  out += "ILP-translatable:     ";
  out += ilp_translatable ? "yes" : ("no (" + not_translatable_reason + ")");
  out += "\n";
  if (has_objective) {
    out += "objective:            ";
    out += objective_linear ? "linear" : "non-linear";
    out += "\n";
  }
  out += "cardinality bounds:   " + bounds.ToString() + "\n";
  if (chosen_strategy == Strategy::kPruning) {
    out += "VERDICT:              infeasible (proved by pruning, no search "
           "needed)\n";
    return out;
  }
  if (std::isfinite(bounds.log2_pruned)) {
    out += "search space:         2^" + FormatDouble(bounds.log2_unpruned, 4) +
           " packages, 2^" + FormatDouble(bounds.log2_pruned, 4) +
           " after pruning\n";
  }
  if (model_variables > 0) {
    out += "translated model:     " + std::to_string(model_variables) +
           " integer variables, " + std::to_string(model_rows) + " rows\n";
  }
  out += "strategy:             " +
         std::string(StrategyToString(chosen_strategy)) + " -- " + rationale +
         "\n";
  if (fallback) {
    out += "fallback:             " + std::string(StrategyToString(*fallback)) +
           " (when " + StrategyToString(chosen_strategy) +
           " finds no package)\n";
  }
  return out;
}

Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               const EvaluationOptions& options,
                               bool maintained_partitions) {
  QueryInputs inputs;
  PB_ASSIGN_OR_RETURN(const CardinalityBounds bounds,
                      PrepareQuery(aq, &inputs));
  return ExplainQuery(aq, &inputs, bounds, options, maintained_partitions);
}

Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               QueryInputs* inputs,
                               const CardinalityBounds& bounds,
                               const EvaluationOptions& options,
                               bool maintained_partitions) {
  QueryPlan plan;
  plan.table_rows = aq.table->num_rows();
  plan.candidates = inputs->candidates.size();
  plan.base_selectivity =
      plan.table_rows > 0
          ? static_cast<double>(plan.candidates) /
                static_cast<double>(plan.table_rows)
          : 1.0;
  plan.linear_constraints = aq.linear_constraints.size();
  plan.extreme_constraints = aq.extreme_constraints.size();
  plan.ilp_translatable = aq.ilp_translatable;
  plan.not_translatable_reason = aq.not_translatable_reason;
  plan.has_objective = aq.has_objective;
  plan.objective_linear = aq.objective_linear;
  plan.bounds = bounds;

  PB_ASSIGN_OR_RETURN(const QueryRoute route,
                      PlanQuery(aq, bounds, plan.candidates, options,
                                maintained_partitions));
  plan.chosen_strategy = route.strategy;
  plan.fallback = route.fallback;
  plan.rationale = route.rationale;
  if (route.strategy == Strategy::kPruning || !aq.TranslatesToIlp()) {
    return plan;
  }
  if (aq.extreme_constraints.empty()) {
    std::tie(plan.model_variables, plan.model_rows) =
        CountIlpDimensions(aq, plan.candidates, bounds);
  } else if (auto translation = TranslateToIlp(aq, inputs, bounds);
             translation.ok()) {
    plan.model_variables = translation->model.num_variables();
    plan.model_rows = translation->model.num_constraints();
  }
  return plan;
}

Result<QueryPlan> ExplainQuery(const std::string& paql,
                               const db::Catalog& catalog,
                               const EvaluationOptions& options,
                               bool maintained_partitions) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog));
  return ExplainQuery(aq, options, maintained_partitions);
}

}  // namespace pb::core
