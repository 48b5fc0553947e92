// Cardinality-based pruning (paper §4.1).
//
// For each global constraint the engine derives bounds [l, u] on the number
// of tuple occurrences any satisfying package can have. The paper's example:
// for 2000 <= SUM(calories) <= 2500 over gluten-free recipes,
//     l = ceil(2000 / MAX(calories)),  u = floor(2500 / MIN(calories)),
// because l tuples of maximal calories are needed to reach the lower bound
// and more than u tuples of minimal calories would overshoot the upper
// bound. (The paper's text shows 3000 in the numerator of u — a typo for
// the query's 2500.)
//
// This module generalizes the formula to arbitrary linear constraints
// lo <= sum w_i x_i <= hi with per-tuple weights w_i of either sign: a
// package with c occurrences has its weighted sum inside [c*wmin, c*wmax],
// so c is feasible only if that interval intersects [lo, hi]. Intersecting
// the per-constraint bounds gives the final [l, u]; an empty intersection
// proves infeasibility without any search. The reduction in search-space
// size — from 2^n to sum_{k=l..u} C(n, k) — is reported in log2.
//
// PrepareQuery derives the bounds into a QueryInputs, the candidates and
// weights every later step of the query reads.

#ifndef PB_CORE_PRUNING_H_
#define PB_CORE_PRUNING_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "paql/analyzer.h"

namespace pb::core {

/// Cardinality bounds on total tuple occurrences in any valid package.
struct CardinalityBounds {
  int64_t lo = 0;
  int64_t hi = INT64_MAX;
  /// True when the bounds prove no package (of any cardinality) satisfies
  /// the linear global constraints.
  bool infeasible = false;

  /// log2 of the unpruned candidate-package count (2^n for REPEAT-free
  /// queries; (1+k)^n with REPEAT k).
  double log2_unpruned = 0.0;
  /// log2 of the pruned count sum_{c=lo..hi} C(n, c) (REPEAT-free queries;
  /// with REPEAT this is an upper-bound approximation over n*k occurrence
  /// slots, noted in EXPERIMENTS.md).
  double log2_pruned = 0.0;

  /// Blocks whose weight bounds came from zone-map metadata instead of a
  /// value scan while deriving these bounds. Independent of where the
  /// column bytes live (resident columns carry the same zone maps), so the
  /// count is deterministic for a given table + query and CI-gateable.
  int64_t zone_map_skipped_blocks = 0;

  std::string ToString() const;
};

/// Per-tuple weight of one linear aggregate (COUNT(*) -> 1, COUNT(e) -> 0/1
/// null indicator, SUM(e) -> the value with NULL as 0) for each candidate
/// row. QueryInputs combines them into a query's weight columns.
Result<std::vector<double>> ComputeAggWeights(
    const paql::AggCall& agg, const db::Table& table,
    const std::vector<size_t>& rows);

/// Per-row weights, one column per linear constraint, then the objective's
/// (if any): row i's sum_k coeff_k * weight_k, summed term by term from 0.
using WeightColumns = std::vector<std::vector<double>>;

/// The range of one linear constraint's per-tuple weight
/// w_i = sum_k coeff_k * weight_k(i) over a candidate set (empty, with
/// min > max, over none). Bounds need only these extremes, so a range over
/// a grown candidate set is the old range with the new weights added.
struct WeightRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double w) {
    min = std::min(min, w);
    max = std::max(max, w);
  }
};

/// Derives cardinality bounds for the query over the base-filtered
/// candidate rows from each linear constraint's WeightRange over them,
/// read from zone maps where the aggregate's shape allows: blocks fully
/// covered by the candidates are bounded without reading a value. Queries
/// with no linear constraints get the trivial bounds [0, n*max_multiplicity].
Result<CardinalityBounds> DeriveCardinalityBounds(
    const paql::AnalyzedQuery& aq, const std::vector<size_t>& candidates);

/// A query's inputs, shared by every step that plans, runs or explains it:
/// the rows of the table's first `rows_scanned` that pass its WHERE clause,
/// each linear constraint's weight range over them, and their weight
/// columns. A row's verdict and weights depend on that row alone, so inputs
/// extended over appended rows equal, bit for bit, inputs built afresh
/// (ranges up to the sign of a zero); rows must never be rewritten (see
/// SketchRefineState). Not thread-safe.
struct QueryInputs {
  size_t rows_scanned = 0;
  /// The rows of [0, rows_scanned) that pass the WHERE clause, ascending
  /// (FilterIndices' answer). Candidate position i is row candidates[i].
  std::vector<size_t> candidates;
  /// Pruning's weight range of each linear constraint over `candidates`.
  std::vector<WeightRange> ranges;
  /// The weight columns of `candidates` once `weighed` is set (Weigh).
  bool weighed = false;
  WeightColumns weights;

  /// Builds the weight columns of every candidate, unless built already.
  Status Weigh(const paql::AnalyzedQuery& aq);
  /// False when these inputs cannot be `aq`'s: they cover more rows than
  /// its table holds, or their column counts are another query's.
  bool Fits(const paql::AnalyzedQuery& aq) const;
};

/// Brings `inputs` up to aq.table's row count and returns their bounds.
/// Inputs that cover no row, or do not Fit `aq`, are built afresh: one
/// WHERE scan, then DeriveCardinalityBounds' ranges, which weigh the rows
/// only for a constraint zone maps cannot bound. Other inputs are extended:
/// only the appended rows are filtered and weighed, into the ranges and
/// (once weighed) the columns. On error `inputs` is unchanged.
Result<CardinalityBounds> PrepareQuery(const paql::AnalyzedQuery& aq,
                                       QueryInputs* inputs);

}  // namespace pb::core

#endif  // PB_CORE_PRUNING_H_
