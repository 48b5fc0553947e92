// Semantic analysis of PaQL queries.
//
// The analyzer binds the query against a catalog table, type-checks base and
// global constraints, and extracts the *linear structure* of the SUCH THAT
// clause and objective — the form the ILP translator consumes:
//
//   linear constraint:   lo <= sum_k coeff_k * AGG_k(P) <= hi
//   extreme constraint:  MIN/MAX(expr) op constant
//
// where each AGG_k is COUNT(*) / COUNT(e) / SUM(e), i.e. an aggregate whose
// package value is a per-tuple-weighted sum and therefore a linear function
// of the tuple-multiplicity variables. AVG constraints of the simple form
// (sum of AVG terms vs. constant) are rewritten by multiplying through by
// COUNT(*):   AVG(e) <= c   ==>   SUM(e) - c*COUNT(*) <= 0  (plus a
// non-empty-package requirement, since AVG over an empty package is NULL
// and NULL never satisfies a comparison).
//
// Queries whose SUCH THAT is not a conjunction of such constraints (OR /
// NOT / '<>' / non-linear aggregate arithmetic) are still *valid* — the
// analyzer marks them not-ILP-translatable and the engine falls back to
// search strategies that only need a package membership oracle. This
// mirrors the paper's "solvers cannot usually handle non-linear global
// constraints; hence evaluating such queries requires different methods"
// (§5).

#ifndef PB_PAQL_ANALYZER_H_
#define PB_PAQL_ANALYZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "paql/ast.h"

namespace pb::paql {

/// One term of a linear global expression: coeff * aggs[agg_index].
struct LinearAggTerm {
  size_t agg_index = 0;
  double coeff = 0.0;
};

/// lo <= sum(terms) <= hi over the canonical aggregate list.
struct LinearConstraint {
  std::vector<LinearAggTerm> terms;
  double lo;
  double hi;
  std::string source_text;  ///< original PaQL spelling, for diagnostics
};

/// MIN/MAX(arg) op bound — handled by the translator with per-tuple logic.
struct ExtremeConstraint {
  db::AggFunc func = db::AggFunc::kMin;  ///< kMin or kMax
  db::ExprPtr arg;
  db::BinaryOp op = db::BinaryOp::kLe;   ///< comparison, constant on the rhs
  double bound = 0.0;
  std::string source_text;
};

/// The fully analyzed query, ready for any evaluation strategy.
struct AnalyzedQuery {
  Query query;
  const db::Table* table = nullptr;

  /// Max occurrences of one base tuple in a package (REPEAT k, default 1).
  int64_t max_multiplicity = 1;

  /// Canonical list of distinct linear aggregates (COUNT/COUNT(e)/SUM(e))
  /// referenced by `linear_constraints` and `objective_terms`. Arguments are
  /// bound against the table schema.
  std::vector<AggCall> aggs;

  std::vector<LinearConstraint> linear_constraints;
  std::vector<ExtremeConstraint> extreme_constraints;

  /// True when the entire SUCH THAT clause is captured by
  /// linear_constraints + extreme_constraints (conjunctive, linear).
  bool ilp_translatable = true;
  std::string not_translatable_reason;

  /// True when semantics force a non-empty package (any AVG/MIN/MAX
  /// constraint: their value over an empty package is NULL).
  bool requires_nonempty = false;

  /// Objective as a linear combination of `aggs` (valid when
  /// objective_linear; queries without MAXIMIZE/MINIMIZE have none).
  bool has_objective = false;
  bool objective_linear = true;
  std::vector<LinearAggTerm> objective_terms;
  bool maximize = true;

  /// True when the whole query, SUCH THAT clause and objective, is linear:
  /// what TranslateToIlp and SketchRefine require.
  bool TranslatesToIlp() const {
    return ilp_translatable && (!has_objective || objective_linear);
  }
};

/// Analyzes `query` against `catalog`. Fails on unknown tables/columns and
/// type errors; non-translatable global constraints do NOT fail (see above).
Result<AnalyzedQuery> Analyze(const Query& query, const db::Catalog& catalog);

/// Convenience: parse + analyze.
Result<AnalyzedQuery> ParseAndAnalyze(std::string_view text,
                                      const db::Catalog& catalog);

}  // namespace pb::paql

#endif  // PB_PAQL_ANALYZER_H_
