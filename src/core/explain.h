// EXPLAIN for package queries — the §5 "Optimizing PaQL queries" challenge:
// "a more principled approach to package query optimization could add
// several benefits to the query engine."
//
// ExplainQuery performs the analysis the evaluator does — base selectivity,
// linear structure, cardinality bounds, search-space size, translated model
// dimensions — and reports the route core::PlanQuery picks (strategy,
// fallback and why), the one the QueryEvaluator and the Engine run, without
// running the (possibly expensive) search.

#ifndef PB_CORE_EXPLAIN_H_
#define PB_CORE_EXPLAIN_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/pruning.h"
#include "paql/analyzer.h"

namespace pb::core {

/// The optimizer's view of one query.
struct QueryPlan {
  // Input shape.
  size_t table_rows = 0;
  size_t candidates = 0;          ///< rows surviving the base constraints
  double base_selectivity = 1.0;  ///< candidates / table_rows

  // Constraint structure.
  size_t linear_constraints = 0;
  size_t extreme_constraints = 0;
  bool ilp_translatable = false;
  std::string not_translatable_reason;
  bool has_objective = false;
  bool objective_linear = false;

  // §4.1 pruning.
  CardinalityBounds bounds;

  // Translated model dimensions (when translatable).
  int model_variables = 0;
  int model_rows = 0;

  // PlanQuery's route.
  Strategy chosen_strategy = Strategy::kAuto;
  /// Runs when chosen_strategy ends kInfeasible (see core/evaluator.h).
  std::optional<Strategy> fallback;
  std::string rationale;

  /// Multi-line human-readable plan (EXPLAIN output).
  std::string ToString() const;
};

/// Plans (without executing) the query under the given options;
/// `maintained_partitions` as for PlanQuery.
Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               const EvaluationOptions& options = {},
                               bool maintained_partitions = false);

/// Convenience: parse + analyze + explain.
Result<QueryPlan> ExplainQuery(const std::string& paql,
                               const db::Catalog& catalog,
                               const EvaluationOptions& options = {},
                               bool maintained_partitions = false);

}  // namespace pb::core

#endif  // PB_CORE_EXPLAIN_H_
