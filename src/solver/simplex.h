// Bounded-variable revised simplex: two-phase primal plus a dual simplex
// for warm re-solves.
//
//   SolveMilp ── validates the model once; one LpSolver per search thread
//     LpSolver ─ reusable workspace (arrays, factorization, pricing
//                weights); Solve() resets per-solve state, runs the loops
//   SolveLp ──── validate, then one Solve through a fresh LpSolver
//
// A branch-and-bound node LP therefore validates nothing and allocates no
// simplex state, yet performs the same floating-point operations in the
// same order as a fresh workspace would.
//
// This is the LP engine underneath the MILP branch-and-bound. It handles
// ranged constraints (lo <= ax <= hi) by introducing one slack per row
// (ax - s = 0, s in [lo, hi]) and runs a two-phase primal simplex:
//
//   Phase 1 starts from the always-valid slack basis and minimizes the total
//   bound violation of basic variables (piecewise-linear composite phase 1;
//   the cost vector is re-derived each iteration, and infeasible basics
//   block the ratio test at the bound where their cost segment changes).
//
//   Phase 2 is the standard bounded-variable primal simplex with devex
//   pricing (Dantzig as an ablation knob) and a Bland's-rule fallback for
//   anti-cycling after a stall threshold.
//
// The linear algebra lives behind two layers (see factorization.h and
// pricing.h): a BasisFactorization — sparse LU with eta updates by
// default, the historical dense inverse as the ablation baseline — and a
// Pricing object scoring entering columns / leaving rows. Reduced costs
// are maintained incrementally from the priced pivot row (a sparse BTRAN
// per pivot) instead of being recomputed by a dense scan each iteration,
// and are rebuilt from fresh duals on every refactorization and before
// any claim of optimality.
//
// When a warm-start basis arrives that is bound-infeasible but still
// dual-feasible — exactly what a branch-and-bound child inherits after the
// branch tightened one variable bound — the solve enters a bounded-variable
// DUAL simplex instead of the phase-1 primal repair: pick the most-violated
// basic variable (dual devex row weights; lowest-index Bland fallback for
// anti-cycling), run the dual ratio test over the priced pivot row, and
// pivot through the same factorization layer the primal uses.
// Primal feasibility is restored in a few dual pivots while dual
// feasibility (= optimality) is maintained throughout, so the follow-up
// primal phases exit immediately. A dual run that hits numerical trouble
// falls back to the cold primal path before ever concluding infeasible.
//
// Only columns that can move cost work. A fixed column (lb == ub: a binary
// that branching or node presolve pinned, an equality row's slack) is dual
// feasible at any reduced cost, so primal pricing never enters it, the
// dual ratio test never lists it, the dual entry check ignores it, and it
// is never flipped. The bound-flipping ratio test pops its breakpoints off
// a heap ordered by (ratio, larger |a|, lower index). That is a strict
// total order, so the walk meets them in exactly the order a full sort
// would give, and it stops at the first one that can pivot.

#ifndef PB_SOLVER_SIMPLEX_H_
#define PB_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "solver/factorization.h"
#include "solver/model.h"
#include "solver/pricing.h"

namespace pb::solver {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusToString(LpStatus s);

/// Where a variable rests in a simplex basis. Variables 0..n-1 are the
/// model's structural columns; n..n+m-1 are the per-row slacks.
enum class VarStat : int8_t { kBasic, kAtLower, kAtUpper, kFree };

/// Snapshot of a simplex basis, sufficient to warm-start a later solve of
/// the same model (or any model with identical dimensions — structural
/// compatibility is the caller's contract; SolveLp falls back to a cold
/// start whenever the snapshot does not fit or is singular).
struct LpBasis {
  /// basic[i] = index of the variable basic in row i (size m).
  std::vector<int> basic;
  /// Status of every variable, structural then slack (size n + m).
  /// stat[basic[i]] must be kBasic; exactly m entries are kBasic.
  std::vector<VarStat> stat;

  bool empty() const { return basic.empty(); }
  void clear() {
    basic.clear();
    stat.clear();
  }
};

/// Result of one LP solve.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  /// Structural variable values (model order); valid when kOptimal.
  std::vector<double> x;
  /// Objective under the model's sense; valid when kOptimal.
  double objective = 0.0;
  /// Primal pivots and bound flips plus dual pivots. A fixed column never
  /// costs one: it is never priced in or flipped. On package models, where
  /// node presolve fixes most binaries of a child, zero-length flips of
  /// fixed columns would otherwise be about 10 of every 11 iterations, so
  /// lp_iterations totals built from this counter read about 11x lower for
  /// the same search.
  int64_t iterations = 0;
  /// Subset of `iterations` spent in the dual simplex (0 for cold solves
  /// and for warm starts repaired by the primal phase 1).
  int64_t dual_iterations = 0;
  /// Full basis factorizations (initial, periodic, and recovery) and
  /// successful column-replace updates between them. Deterministic for a
  /// given model/options, so benches gate on them.
  int64_t refactorizations = 0;
  int64_t basis_updates = 0;
  /// Final basis; populated when kOptimal (for warm-starting related
  /// solves) and when kIterationLimit (so a re-solve with a raised limit
  /// resumes instead of restarting).
  LpBasis basis;
};

struct SimplexOptions {
  double feas_tol = 1e-7;     ///< bound/row feasibility tolerance
  double opt_tol = 1e-9;      ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;    ///< smallest acceptable pivot magnitude
  int64_t max_iterations = 0; ///< 0 = automatic (scaled to model size)
  int refactor_every = 64;    ///< basis refactorization period (pivots)
  /// Linear-algebra backend (see factorization.h). The sparse LU is the
  /// default engine; the dense inverse is the ablation baseline.
  FactorizationKind factorization = FactorizationKind::kSparseLu;
  /// Entering-column / leaving-row selection rule (see pricing.h). Devex
  /// by default; Dantzig restores the historical candidate ordering.
  PricingRule pricing = PricingRule::kDevex;
  /// Use Bland's rule from the first iteration (ablation knob; the default
  /// prices by `pricing` and falls back to Bland only on suspected
  /// cycling).
  bool always_bland = false;
  /// Enter the dual simplex when a warm basis is bound-infeasible but
  /// dual-feasible (the branch-and-bound child re-solve). Off restores the
  /// pre-dual behavior exactly: every warm repair goes through the
  /// composite primal phase 1 (ablation knob).
  bool use_dual_simplex = true;
};

/// The iteration budget SolveLp will use for `model` under `options`:
/// options.max_iterations when positive, otherwise the automatic limit
/// scaled to the model's size. Exposed so callers (branch-and-bound's
/// iteration-limit re-queue) can raise the limit meaningfully.
int64_t EffectiveIterationLimit(const LpModel& model,
                                const SimplexOptions& options);

/// A reusable LP workspace: everything a simplex solve of one model
/// allocates (bound, cost and reduced-cost arrays, the pivot-row scatter,
/// the factorization, the pricing weights), built once and reset by every
/// Solve. A branch-and-bound thread owns one and runs all of its node LPs
/// through it.
///
/// Contract: `model` must already pass LpModel::Validate() (the workspace
/// does not check), must outlive the workspace, and must not change while
/// it exists. One workspace serves one thread at a time.
///
/// Each Solve is a pure function of its arguments: it performs the same
/// floating-point operations in the same order as a fresh workspace would,
/// so reuse never changes a result, and every counter in the returned
/// LpSolution covers that one solve.
class LpSolver {
 public:
  LpSolver(const LpModel& model, const SimplexOptions& options);
  ~LpSolver();
  LpSolver(const LpSolver&) = delete;
  LpSolver& operator=(const LpSolver&) = delete;

  /// Solves the LP relaxation (integrality is ignored). `bounds`, when
  /// non-null, replaces the variable bounds (one (lb, ub) pair per
  /// variable; any lb > ub is reported infeasible without a pivot).
  /// `warm_start` is as for SolveLp. `max_iterations` is the iteration
  /// budget; EffectiveIterationLimit gives the one SolveLp would use.
  [[nodiscard]] Result<LpSolution> Solve(
      const std::vector<std::pair<double, double>>* bounds,
      const LpBasis* warm_start, int64_t max_iterations);

 private:
  class Simplex;
  std::unique_ptr<Simplex> simplex_;
};

/// Solves the LP relaxation of `model` (integrality is ignored): validates
/// the model, then runs one solve through a fresh LpSolver.
/// `bound_override`, when non-null, replaces variable bounds (used by
/// branch-and-bound nodes); it must have one (lb, ub) pair per variable.
/// `warm_start`, when non-null and non-empty, seeds the solve from a prior
/// basis of a dimensionally identical model: nonbasic variables snap to
/// their (possibly changed) bounds, a bound-infeasible basis is
/// re-optimized by the dual simplex when it is still dual-feasible
/// (options.use_dual_simplex) and repaired by the composite phase 1
/// otherwise, and a singular or ill-sized snapshot silently falls back to
/// the cold slack basis.
[[nodiscard]] Result<LpSolution> SolveLp(
    const LpModel& model, const SimplexOptions& options = {},
    const std::vector<std::pair<double, double>>* bound_override = nullptr,
    const LpBasis* warm_start = nullptr);

}  // namespace pb::solver

#endif  // PB_SOLVER_SIMPLEX_H_
