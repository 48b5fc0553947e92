// QueryEvaluator: the front door of the evaluation engine.
//
// The paper (§4) lists the system's strategies — SQL-validated candidate
// generation, ILP translation + constraint solver, cardinality pruning, and
// heuristic local search — and §5 notes that PackageBuilder "heuristically
// combines all of them". QueryEvaluator, the Engine and EXPLAIN run one
// pipeline: PrepareQuery (core/pruning.h) derives the §4.1 bounds into a
// QueryInputs whose weights every strategy reads, PlanQuery picks the route
// and RunStep runs it. PlanQuery is the only code that picks a route:
//
//   1. the bounds prove infeasibility -> kPruning;
//   2. EvaluationOptions::strategy forces one -> that strategy;
//   3. not ILP-translatable (OR / NOT / '<>' / non-linear) -> kBruteForce
//      on at most 24 candidates, else kLocalSearch, then a brute-force
//      pass capped at 10 s;
//   4. maintained partitions (the Engine's incremental maintenance), no
//      MIN/MAX constraint, a resident table -> kSketchRefine, then
//      kIlpSolver;
//   5. no objective -> a kLocalSearch burst (<= 0.25 s, 3 restarts), then
//      kIlpSolver;
//   6. otherwise kIlpSolver.
//
// The fallback ("then") runs when the first strategy ends kInfeasible: a
// heuristic or SketchRefine that finds nothing proves nothing.

#ifndef PB_CORE_EVALUATOR_H_
#define PB_CORE_EVALUATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/brute_force.h"
#include "core/local_search.h"
#include "core/package.h"
#include "core/pruning.h"
#include "core/translator.h"
#include "db/catalog.h"
#include "solver/milp.h"

namespace pb::core {

enum class Strategy {
  kAuto,         ///< PlanQuery decides (the policy above)
  kIlpSolver,    ///< translate + branch-and-bound (exact for linear queries)
  kBruteForce,   ///< exhaustive (exact for every query shape)
  kLocalSearch,  ///< heuristic (fast, incomplete)
  kPruning,      ///< the bounds prove infeasibility; no search runs
  kSketchRefine, ///< maintained-partition SketchRefine (the Engine's)
};

/// The strategy's name: "Auto", "IlpSolver", "BruteForce", "LocalSearch",
/// "Pruning", "SketchRefine". Server responses and EXPLAIN carry it.
const char* StrategyToString(Strategy s);

struct EvaluationOptions {
  /// kAuto lets PlanQuery choose; kIlpSolver, kBruteForce or kLocalSearch
  /// force that strategy (used by the benches). Pruning still comes first:
  /// every route applies the §4.1 bounds (the solver's cardinality row, the
  /// search strategies' cardinality clamps).
  Strategy strategy = Strategy::kAuto;
  solver::MilpOptions milp;
  LocalSearchOptions local_search;
  BruteForceOptions brute_force;
};

/// A query's route as PlanQuery chose it.
struct QueryRoute {
  Strategy strategy = Strategy::kAuto;
  /// Runs when `strategy` ends kInfeasible (see the file comment).
  std::optional<Strategy> fallback;
  /// Why, in one phrase (EXPLAIN prints it).
  const char* rationale = "";
};

/// True when rule 4 routes `aq` to kSketchRefine for a caller that keeps
/// maintained partitions, unless pruning proves it infeasible first:
/// PlanQuery chooses (no forced strategy), the query is ILP-translatable
/// with no MIN/MAX constraint, and its table is resident. The Engine keeps
/// such a query's QueryInputs as maintained state (see SketchRefineState).
bool SketchRefineEligible(const paql::AnalyzedQuery& aq,
                          const EvaluationOptions& options);

/// Chooses the route for `aq`, whose WHERE clause `num_candidates` rows
/// pass and whose cardinality bounds are `bounds`, by the policy above.
/// `maintained_partitions` says the caller keeps SketchRefine partitions
/// across calls. Forcing kPruning or kSketchRefine is InvalidArgument.
Result<QueryRoute> PlanQuery(const paql::AnalyzedQuery& aq,
                             const CardinalityBounds& bounds,
                             size_t num_candidates,
                             const EvaluationOptions& options,
                             bool maintained_partitions = false);

struct EvaluationResult {
  Package package;
  /// Objective value (0 when the query has none).
  double objective = 0.0;
  Strategy strategy_used = Strategy::kAuto;
  /// True when the strategy proves optimality (solver optimal / exhaustive
  /// brute force); local-search answers are valid but possibly suboptimal.
  bool proven_optimal = false;
  CardinalityBounds bounds;
  double seconds = 0.0;
  size_t num_candidates = 0;
};

/// Runs `step`, `route.strategy` or its fallback, over the `inputs`
/// PrepareQuery derived `bounds` from. kPruning reports kInfeasible. A
/// kLocalSearch step falling back to the solver is the short burst, and a
/// kBruteForce fallback is capped at 10 s. kSketchRefine is the Engine's.
Result<EvaluationResult> RunStep(Strategy step, const QueryRoute& route,
                                 const paql::AnalyzedQuery& aq,
                                 const EvaluationOptions& options,
                                 const CardinalityBounds& bounds,
                                 QueryInputs* inputs);

/// The ILP step's tail: the package, objective and proven flag of `r`, a
/// finished solve of `translation`, or the typed error when it holds none.
Result<EvaluationResult> FinishIlpStep(const paql::AnalyzedQuery& aq,
                                       const IlpTranslation& translation,
                                       const solver::MilpResult& r);

/// Evaluates PaQL queries against a catalog.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(const db::Catalog* catalog) : catalog_(catalog) {}

  /// Parses, analyzes, and evaluates PaQL text. Returns kInfeasible when no
  /// valid package exists (or, for heuristic paths, when none was found).
  Result<EvaluationResult> Evaluate(const std::string& paql,
                                    const EvaluationOptions& options = {});

  /// Evaluates an already-analyzed query.
  Result<EvaluationResult> Evaluate(const paql::AnalyzedQuery& aq,
                                    const EvaluationOptions& options = {});

  /// Evaluates the query's LIMIT clause: returns up to LIMIT packages
  /// (default 1), best-first when the query has an objective, by
  /// EnumeratePackages. An empty vector means infeasible.
  Result<std::vector<Package>> EvaluateAll(
      const paql::AnalyzedQuery& aq, const EvaluationOptions& options = {});

  Result<std::vector<Package>> EvaluateAll(
      const std::string& paql, const EvaluationOptions& options = {});

 private:
  const db::Catalog* catalog_;
};

}  // namespace pb::core

#endif  // PB_CORE_EVALUATOR_H_
