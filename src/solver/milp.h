// Branch-and-bound MILP solver on top of the bounded-variable simplex.
//
// This stands in for the "state-of-the-art constraint optimization solvers"
// the paper hands its translated package queries to (CPLEX in the authors'
// deployment). The search, node by node in best-first order of the parent's
// LP bound:
//
//   1. Solve the node's LP, warm from the parent's optimal basis (the dual
//      simplex re-optimizes after the branched bound moved).
//   2. Prune against the incumbent; accept an integral LP point as one.
//   3. Primal heuristics: LP rounding at every node, and one LP dive from
//      the root while no incumbent exists.
//   4. Reduced-cost tightening, once an incumbent exists: a nonbasic
//      integer column may move off its bound only as far as its reduced
//      cost allows before the LP bound falls behind the incumbent.
//   5. Branch on the fractional variable with the best pseudocost score
//      (the most fractional one until branching history exists), and
//      propagate each child's branched bound through the row activity
//      ranges (node presolve): implied integer fixings ride into the
//      child, and a child whose rows cannot be met is dropped unsolved.
//
// The search runs on the calling thread, through one LP workspace. It is
// deterministic: the same model and options give the same package, bounds
// and counters on every run (unless time_limit_s or cancellation stops
// it mid-search). Callers that want parallelism solve independent models
// concurrently, as the engine does with separate callers' queries.

#ifndef PB_SOLVER_MILP_H_
#define PB_SOLVER_MILP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "solver/model.h"
#include "solver/simplex.h"

namespace pb::solver {

enum class MilpStatus {
  kOptimal,     ///< proven optimal incumbent
  kInfeasible,  ///< no integer-feasible point exists
  kFeasible,    ///< stopped at a limit with an incumbent (not proven optimal)
  kNoSolution,  ///< stopped at a limit before finding any incumbent
  kUnbounded,   ///< LP relaxation unbounded in the optimization direction
};

const char* MilpStatusToString(MilpStatus s);

/// Per-variable branching history: average objective degradation observed
/// per unit of fractionality when branching a variable down (floor) or up
/// (ceil). Seeds branch-variable selection; sharing one history across
/// repeated solves of structurally identical models (SketchRefine's
/// refine/repair sub-ILP sequence) gives later solves better choices from
/// node one.
struct PseudocostHistory {
  struct Entry {
    double down_sum = 0.0;  ///< accumulated per-unit degradation, floor side
    double up_sum = 0.0;    ///< accumulated per-unit degradation, ceil side
    int32_t down_n = 0;
    int32_t up_n = 0;
  };
  std::vector<Entry> entries;  ///< indexed by variable
  /// Running aggregates over every observation, maintained alongside the
  /// per-entry sums: O(1) has_observations() and global fallback averages
  /// during branch selection instead of a full pass per node.
  double down_sum_all = 0.0;
  double up_sum_all = 0.0;
  int64_t down_n_all = 0;
  int64_t up_n_all = 0;

  bool has_observations() const { return down_n_all + up_n_all > 0; }
};

/// Reusable cross-solve warm-start state, owned by the caller and passed
/// via MilpOptions::warm. SolveMilp reads it on entry (root LP basis,
/// branching history) and updates it on exit. State is keyed on the
/// model's StructuralSignature(): a signature mismatch resets it, so it is
/// always safe to reuse one MilpWarmStart across arbitrary solves — it only
/// ever helps when the structure actually matches. NOT thread-safe: one
/// warm-start object must not be shared by concurrent solves.
struct MilpWarmStart {
  uint64_t model_signature = 0;
  LpBasis root_basis;
  PseudocostHistory pseudocosts;
};

struct MilpOptions {
  double int_tol = 1e-6;         ///< integrality tolerance
  double gap_abs = 1e-9;         ///< absolute bound-vs-incumbent gap to stop
  /// Branch-and-bound node budget. Counts LP solves, including the re-
  /// solves of a node whose LP hit its iteration limit (each retry doubles
  /// the LP budget, so retries are real work the cap must bound).
  int64_t max_nodes = 2'000'000;
  double time_limit_s = 300.0;   ///< wall-clock budget
  /// Optional cross-solve state (borrowed, in/out); see MilpWarmStart.
  MilpWarmStart* warm = nullptr;
  /// Cooperative cancellation, polled once per branch-and-bound node (and
  /// per dive step). The default token is inert. A cancelled solve stops
  /// exactly like a node/time-limit stop: it returns kFeasible with the
  /// incumbent found so far or kNoSolution without one — never a
  /// corrupted result — and MilpResult::cancelled is set so callers can
  /// tell interruption from budget exhaustion.
  CancelToken cancel;
  /// Per-LP options, inherited by every node solve — including the
  /// factorization backend, so a test that compares the sparse LU against
  /// the dense reference sets one field here and the whole tree follows.
  SimplexOptions lp;
};

struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  std::vector<double> x;     ///< incumbent (valid for kOptimal / kFeasible)
  double objective = 0.0;    ///< incumbent objective
  double best_bound = 0.0;   ///< proven bound on the optimum
  /// Node LP solves performed (iteration-limit re-solves of one node
  /// count individually — see MilpOptions::max_nodes).
  int64_t nodes = 0;
  int64_t lp_iterations = 0; ///< total simplex iterations
  /// Subset of lp_iterations spent in dual-simplex child re-solves.
  int64_t lp_dual_iterations = 0;
  /// Basis factorization work across every LP in the tree: full
  /// refactorizations and column-replace updates (see FactorizationStats).
  /// Deterministic, like the iteration counters.
  int64_t lp_refactorizations = 0;
  int64_t lp_basis_updates = 0;
  /// Variable bounds tightened by node presolve across the whole tree.
  int64_t presolve_fixed_bounds = 0;
  /// Children proven infeasible by bound propagation alone (no LP solved,
  /// not counted in `nodes`).
  int64_t presolve_infeasible_children = 0;
  /// Integer column bounds tightened by reduced cost across the whole tree
  /// (see the file comment). Bounds that propagation then implies count in
  /// presolve_fixed_bounds.
  int64_t reduced_cost_tightenings = 0;
  /// True when the solve stopped because MilpOptions::cancel requested it
  /// (the status is then kFeasible or kNoSolution, as for a limit stop).
  bool cancelled = false;
  double solve_seconds = 0.0;

  bool has_solution() const {
    return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible;
  }
};

/// is_integer[j] != 0 exactly when variable j of `model` is integer: the
/// integrality mask SolveMilp builds once and every per-column pass reads.
std::vector<char> IntegralityMask(const LpModel& model);

/// Index of the integer variable (per the mask `is_integer`) whose
/// fractional part is closest to 1/2 ("most fractional"), ignoring
/// variables within `int_tol` of an integer; -1 when x is integral. Ties
/// break to the lowest index. Exposed for testing and reused as the
/// branching fallback before pseudocost history accumulates.
int MostFractionalVariable(const std::vector<char>& is_integer,
                           const std::vector<double>& x, double int_tol);

/// Solves a MILP. Pure-LP models (no integer variables) degrade to a single
/// simplex solve. Statuses map: LP infeasible -> kInfeasible, LP unbounded ->
/// kUnbounded.
[[nodiscard]] Result<MilpResult> SolveMilp(const LpModel& model,
                                           const MilpOptions& options = {});

}  // namespace pb::solver

#endif  // PB_SOLVER_MILP_H_
