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

/// Min/max of one aggregate's per-tuple weights over the candidate rows,
/// derived without materializing the weight vector when the aggregate
/// shape allows it (COUNT(*), COUNT(bare column), SUM(bare numeric
/// column)). `computed == false` means the shape is not supported and the
/// caller must fall back to ComputeAggWeights + minmax. The min/max are
/// bit-identical to minmax over the materialized weights: zone min/max are
/// accumulated from the same values a scan would visit, extended with 0.0
/// exactly when the block has NULLs (NULL weighs 0).
struct AggWeightBounds {
  bool computed = false;
  double min = 0.0;
  double max = 0.0;
  /// Fully-covered blocks bounded from zone metadata (no value read).
  int64_t zone_map_skipped_blocks = 0;
};

Result<AggWeightBounds> ComputeAggWeightBounds(const paql::AggCall& agg,
                                               const db::Table& table,
                                               const std::vector<size_t>& rows);

/// Per-tuple weight of one linear aggregate (COUNT(*) -> 1, COUNT(e) -> 0/1
/// null indicator, SUM(e) -> the value with NULL as 0) for each candidate
/// row. Shared by the pruner, the ILP translator, and local search.
Result<std::vector<double>> ComputeAggWeights(
    const paql::AggCall& agg, const db::Table& table,
    const std::vector<size_t>& rows);

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

/// The bounds §4.1's formula gives for `aq` from its per-constraint weight
/// ranges over `num_candidates` candidates. Every field but
/// zone_map_skipped_blocks depends on the ranges only through their
/// values, so ranges kept up to date across appends (see
/// SketchRefineState) give bit-identical bounds without a pass.
CardinalityBounds BoundsFromWeightRanges(const paql::AnalyzedQuery& aq,
                                         const std::vector<WeightRange>& ranges,
                                         size_t num_candidates);

/// Derives cardinality bounds for the query over the base-filtered
/// candidate rows: each linear constraint's WeightRange over them (from
/// zone maps where AggWeightBounds can), then BoundsFromWeightRanges.
/// Queries with no linear constraints get the trivial bounds
/// [0, n*max_multiplicity].
Result<CardinalityBounds> DeriveCardinalityBounds(
    const paql::AnalyzedQuery& aq, const std::vector<size_t>& candidates);

}  // namespace pb::core

#endif  // PB_CORE_PRUNING_H_
