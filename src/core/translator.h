// PaQL -> ILP translation (the demo's §7 tutorial path: "a PaQL query is
// translated into a linear program and then solved using existing
// constraint solvers").
//
// Each base tuple that survives the WHERE clause becomes one integer
// variable x_i in [0, REPEAT] (default [0, 1]) — its multiplicity in the
// package. Linear global constraints become rows; MIN/MAX comparisons
// become per-tuple variable fixings (<=-direction) or at-least-one rows
// (>=-direction); AVG constraints were already rewritten by the analyzer.

#ifndef PB_CORE_TRANSLATOR_H_
#define PB_CORE_TRANSLATOR_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "core/pruning.h"
#include "paql/analyzer.h"
#include "solver/model.h"

namespace pb::core {

struct TranslateOptions {
  /// Add the pruning-derived cardinality row lo <= sum x_i <= hi as a
  /// redundant-but-tightening constraint (the §4.1 bounds applied to the
  /// solver path). Ignored when `bounds` is null.
  const CardinalityBounds* bounds = nullptr;
};

/// The translated model plus the variable <-> base-row mapping.
struct IlpTranslation {
  solver::LpModel model;
  /// Model variable j corresponds to base-table row candidates[j].
  std::vector<size_t> candidates;
  /// Candidates whose variable was fixed to 0 by a MAX<=/MIN>= constraint.
  size_t num_fixed_out = 0;
};

/// Translates an analyzed query, filtering and weighing its table itself.
/// Fails with kUnimplemented when the query is not ILP-translatable (the
/// caller falls back to search strategies) and with kInfeasible when
/// pruning bounds already prove emptiness.
Result<IlpTranslation> TranslateToIlp(const paql::AnalyzedQuery& aq,
                                      const TranslateOptions& options = {});

/// The same translation over the `inputs` PrepareQuery derived `bounds`
/// from: no scan, and the weights are read from (and built in) the inputs.
Result<IlpTranslation> TranslateToIlp(const paql::AnalyzedQuery& aq,
                                      QueryInputs* inputs,
                                      const CardinalityBounds& bounds);

/// TranslateToIlp's {variables, rows} over `num_candidates` and `bounds`
/// ({0, 0} where it would fail), without building the model: only for
/// queries without MIN/MAX constraints, whose rows depend on values.
std::pair<int, int> CountIlpDimensions(const paql::AnalyzedQuery& aq,
                                       size_t num_candidates,
                                       const CardinalityBounds& bounds);

/// Converts a solver point back into a package.
Package DecodeSolution(const IlpTranslation& translation,
                       const std::vector<double>& x);

}  // namespace pb::core

#endif  // PB_CORE_TRANSLATOR_H_
