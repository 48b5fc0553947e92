#include "core/explain.h"

#include <cmath>

#include "common/strings.h"
#include "core/translator.h"
#include "db/ops.h"

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
  if (proven_infeasible) {
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
  return out;
}

Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               const EvaluationOptions& options) {
  QueryPlan plan;
  plan.table_rows = aq.table->num_rows();
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  plan.candidates = candidates.size();
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

  PB_ASSIGN_OR_RETURN(plan.bounds, DeriveCardinalityBounds(aq, candidates));
  if (options.use_pruning && plan.bounds.infeasible) {
    plan.proven_infeasible = true;
    plan.chosen_strategy = Strategy::kAuto;
    plan.rationale = "pruning proves infeasibility";
    return plan;
  }

  const bool translatable =
      aq.ilp_translatable && (!aq.has_objective || aq.objective_linear);
  if (translatable) {
    TranslateOptions topts;
    if (options.use_pruning) topts.bounds = &plan.bounds;
    topts.candidates = &candidates;
    auto translation = TranslateToIlp(aq, topts);
    if (translation.ok()) {
      plan.model_variables = translation->model.num_variables();
      plan.model_rows = translation->model.num_constraints();
    }
  }

  // Mirror the Auto policy's decision tree (evaluator.cc).
  if (options.strategy != Strategy::kAuto) {
    plan.chosen_strategy = options.strategy;
    plan.rationale = "forced by options";
  } else if (!translatable) {
    if (plan.candidates <= options.brute_force_threshold) {
      plan.chosen_strategy = Strategy::kBruteForce;
      plan.rationale = "disjunctive/non-linear constraints on a small "
                       "candidate set: exhaustive search is exact and cheap";
    } else {
      plan.chosen_strategy = Strategy::kLocalSearch;
      plan.rationale = "disjunctive/non-linear constraints: the solver "
                       "cannot express them; falling back to heuristic "
                       "search (incomplete)";
    }
  } else if (!aq.has_objective) {
    plan.chosen_strategy = Strategy::kLocalSearch;
    plan.rationale = "feasibility-only query: a short heuristic burst "
                     "usually answers before the solver is needed "
                     "(solver fallback on failure)";
  } else if (plan.candidates <= 12 && aq.max_multiplicity <= 2) {
    plan.chosen_strategy = Strategy::kBruteForce;
    plan.rationale = "tiny candidate set: exhaustive search beats the LP "
                     "machinery and is exact";
  } else {
    plan.chosen_strategy = Strategy::kIlpSolver;
    plan.rationale = "conjunctive linear optimization query: "
                     "branch-and-bound is exact";
  }
  return plan;
}

Result<QueryPlan> ExplainQuery(const std::string& paql,
                               const db::Catalog& catalog,
                               const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog));
  return ExplainQuery(aq, options);
}

}  // namespace pb::core
