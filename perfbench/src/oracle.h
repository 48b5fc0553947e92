// The benchmark's independent view of the data: the offline replay that
// times each layer's public entry points, and the answer checker.
//
// Both work on the benchmark's own copy of the tables, built by the same
// generators from the same seed and given the same appended rows, never on
// the served engine's state.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/package.h"
#include "core/pruning.h"
#include "core/sketch_refine.h"
#include "db/catalog.h"
#include "solver/milp.h"
#include "storage/block_cache.h"

namespace pbb {

/// Child spans and counts of one replayed request. Times in seconds.
struct LayerSpans {
  double parse = 0, filter = 0, bounds = 0, translate = 0, solve = 0,
         decode = 0, sketch_refine = 0, verify = 0;
  int64_t rows_examined = 0;
  int64_t candidates = 0;
  int64_t zone_skipped_blocks = 0;
  bool infeasible = false;
  bool ilp = false;
  int64_t model_nnz = 0;
  int64_t nodes = 0, lp_iterations = 0, dual_iterations = 0,
          refactorizations = 0;
  bool sketch = false;
  int64_t dirty_groups = 0, groups_reused = 0, sketch_lp_iterations = 0;
  uint64_t pins = 0, block_reads = 0, evictions = 0;
  int64_t peak_pinned_bytes = 0;

  /// Sum of the spans that execute inside the served engine (everything
  /// but the checker's verify).
  double EngineLeaves() const {
    return parse + filter + bounds + translate + solve + decode +
           sketch_refine;
  }
};

/// A replayed answer, produced by the same route the engine takes.
struct ReplayAnswer {
  pb::Status status;
  pb::core::Package package;
  double objective = 0.0;
  bool proven_optimal = false;
  std::string strategy;
  LayerSpans spans;
};

/// Sequential re-execution of logged requests through the layers' public
/// functions: paql::ParseAndAnalyze, db::FilterIndices,
/// core::DeriveCardinalityBounds, then core::TranslateToIlp +
/// solver::SolveMilp (signature-keyed warm map) + core::DecodeSolution, or
/// core::SketchRefine with its own maintained state; finally
/// core::IsValidPackage.
class Replayer {
 public:
  /// `cache` (optional) is the block cache the copy's spilled tables read
  /// through; its counters become the storage spans.
  Replayer(bool incremental_maintenance, size_t partition_size,
           pb::storage::BlockCache* cache);

  pb::db::Catalog* catalog() { return &catalog_; }
  ReplayAnswer Run(const std::string& paql);
  /// The last answer replayed for this query text (null if none).
  const ReplayAnswer* Last(const std::string& paql) const;

 private:
  void RunSketchRefine(const pb::paql::AnalyzedQuery& aq,
                       const pb::core::CardinalityBounds& bounds,
                       const std::string& key, ReplayAnswer* out);
  void RunIlp(const pb::paql::AnalyzedQuery& aq,
              const pb::core::CardinalityBounds& bounds, ReplayAnswer* out);

  bool incremental_;
  size_t partition_size_;
  pb::storage::BlockCache* cache_;
  pb::db::Catalog catalog_;
  std::unordered_map<uint64_t, pb::solver::MilpWarmStart> warm_;
  std::unordered_map<std::string, pb::core::SketchRefineState> states_;
  std::unordered_map<std::string, ReplayAnswer> last_;
};

/// A served answer as read back from its envelope.
struct ServedAnswer {
  bool ok = false;
  std::string error_code;
  pb::core::Package package;
  double objective = 0.0;
  bool proven_optimal = false;
  std::string strategy;
  bool result_cache_hit = false;
  bool warm_start_hit = false;
  int64_t table_rows = 0;
  double total_seconds = 0.0;
};

ServedAnswer ReadEnvelope(const pb::json::Value& envelope);

/// Verifies served answers against a resident copy of the data.
class Checker {
 public:
  explicit Checker(const pb::db::Catalog* resident) : resident_(resident) {}

  /// Relative objective tolerance: |served - recomputed| <= kTol * max(1, |x|).
  static constexpr double kTol = 1e-6;

  /// Empty string when the answer is right; the reason otherwise. OK
  /// answers must be valid packages with the recomputed objective, and ILP
  /// answers must be proven optimal. An error envelope is right only for a
  /// query built to be infeasible, answered Infeasible, whose infeasibility
  /// the checker's own pruning bounds confirm.
  std::string Check(const std::string& paql, bool expect_infeasible,
                    const ServedAnswer& a) const;

  /// Seeded corruptions of a verified answer: one row dropped, and the
  /// objective moved past the tolerance. Empty when both are flagged.
  std::string SelfTest(const std::string& paql, const ServedAnswer& a) const;

 private:
  const pb::db::Catalog* resident_;
};

}  // namespace pbb

#endif  // PERFBENCH_ORACLE_H_
