// Exhaustive package search — the baseline the paper calls "impractical"
// for anything but small inputs (§4: "A brute-force approach that generates
// and evaluates all candidate packages is thus impractical").
//
// The enumerator walks the multiplicity-assignment tree over the base-
// filtered candidates. Two prunings keep it exact but faster:
//   - cardinality bounds from §4.1 cut subtrees whose occurrence count can
//     no longer land inside [l, u];
//   - for linear constraints, interval arithmetic over the remaining
//     suffix (max positive / negative achievable contribution) cuts
//     subtrees that cannot re-enter a constraint's [lo, hi] window.
// Final package validity is always re-checked against the original global
// constraint expression, so OR / NOT / '<>' / non-linear queries are exact
// here (this is the oracle strategy the others are tested against).

#ifndef PB_CORE_BRUTE_FORCE_H_
#define PB_CORE_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "core/pruning.h"

namespace pb::core {

struct BruteForceOptions {
  bool use_cardinality_pruning = true;
  bool use_linear_bounding = true;
  uint64_t max_nodes = 200'000'000;
  double time_limit_s = 120.0;
  /// 0: search for the single best (or first, without an objective) valid
  /// package. >0: collect up to this many valid packages (for enumeration
  /// and the UI's package-space summary).
  size_t collect_limit = 0;
};

struct BruteForceResult {
  bool found = false;
  Package best;
  double best_objective = 0.0;
  /// Valid packages collected (when collect_limit > 0).
  std::vector<Package> all;
  uint64_t nodes = 0;
  uint64_t leaves_checked = 0;
  /// False when a node/time budget stopped the search early (results may
  /// then be incomplete/non-optimal).
  bool exhausted = true;
  CardinalityBounds bounds;
};

/// Runs the exhaustive search for `aq`.
Result<BruteForceResult> BruteForceSearch(
    const paql::AnalyzedQuery& aq, const BruteForceOptions& options = {});

/// The same search over the `inputs` PrepareQuery derived `bounds` from,
/// reading (and building) their weight columns.
Result<BruteForceResult> BruteForceSearch(const paql::AnalyzedQuery& aq,
                                          QueryInputs* inputs,
                                          const CardinalityBounds& bounds,
                                          const BruteForceOptions& options);

}  // namespace pb::core

#endif  // PB_CORE_BRUTE_FORCE_H_
