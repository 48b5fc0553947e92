#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "solver/factorization.h"
#include "solver/pricing.h"

namespace pb::solver {

namespace {

/// Pivots between scheduled basis refactorizations (the backend may ask
/// for one sooner; see BasisFactorization::ShouldRefactorize).
constexpr int kRefactorEvery = 64;

}  // namespace

const char* LpStatusToString(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal:        return "Optimal";
    case LpStatus::kInfeasible:     return "Infeasible";
    case LpStatus::kUnbounded:      return "Unbounded";
    case LpStatus::kIterationLimit: return "IterationLimit";
  }
  return "?";
}

/// The working state of the simplex: one per LpSolver, reused by every
/// Solve. Variables 0..n-1 are structural; n..n+m-1 are row slacks
/// (column -e_i, bounds = row range).
///
/// Linear algebra goes through the BasisFactorization layer; candidate
/// selection through the Pricing layer. Reduced costs d_ are maintained
/// incrementally: each pivot prices its row out of B^{-1} (one sparse
/// BTRAN plus a walk over the touched rows' terms) and applies the rank-one
/// update. d_ is rebuilt from fresh duals, row by row over the model's
/// rows (RecomputeReducedCosts), after every refactorization, on phase
/// entry, whenever the phase-1 composite cost vector changes segment, and
/// always before optimality is declared.
///
/// What depends only on the model and the options (costs, slack bounds,
/// the Bland threshold, the CSC view) is set once. Solve() resets the rest;
/// every other array is fully written before it is read within a solve.
/// No array is ever freed or shrunk: each is sized at construction or
/// grows to the largest size a solve has needed (the pivot-row pattern,
/// the dual ratio test's breakpoints, the factorization's factors), and
/// Finish() copies the result into the caller's LpSolution, reusing its
/// arrays. A solve that needs no more room than an earlier one allocates
/// nothing.
class LpSolver::Simplex {
 public:
  Simplex(const LpModel& model, const SimplexOptions& options)
      : opts_(options),
        model_(model),
        a_(ColumnsOf(model)),
        m_(model.num_constraints()),
        n_(model.num_variables()),
        total_(n_ + m_) {
    // Internally we always minimize; flip sign for maximize.
    sign_ = model.sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;

    lb_.resize(total_);
    ub_.resize(total_);
    cost_.assign(total_, 0.0);
    for (int j = 0; j < n_; ++j) {
      cost_[j] = sign_ * model.variable(j).objective;
    }
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model.constraint(i);
      int slack = n_ + i;
      lb_[slack] = c.lo;
      ub_[slack] = c.hi;
    }

    fact_ = MakeFactorization(options.factorization, a_, n_, m_,
                              options.pivot_tol);

    basis_.assign(m_, 0);
    stat_.assign(total_, VarStat::kAtLower);
    x_.assign(total_, 0.0);
    d_.assign(total_, 0.0);
    z_.assign(total_, 0.0);
    z_mark_.assign(total_, 0);
    c1_.assign(total_, 0);

    // Switch to Bland's rule after a generous pricing budget (immediately
    // under always_bland).
    bland_threshold_ =
        options.always_bland ? -1 : 50LL * (m_ + 1) + 2LL * total_ + 500;
  }

  int num_variables() const { return n_; }
  const CscMatrix& columns() const { return a_; }

  /// One solve under `bounds` (null: the model's own) into `out`. Resets
  /// every piece of state a solve reads before writing, then runs the
  /// solve loops; `out` is written only at the end, so `warm_start` may be
  /// `&out->basis`.
  void Solve(const std::vector<std::pair<double, double>>* bounds,
             const LpBasis* warm_start, int64_t max_iterations,
             LpSolution* out) {
    max_iter_ = max_iterations;
    iterations_ = 0;
    dual_iterations_ = 0;
    numerical_trouble_ = false;
    d_valid_ = false;
    d_phase1_ = false;
    for (int j : c1_nonzero_) c1_[j] = 0;
    c1_nonzero_.clear();
    // The factorization's counters run across solves; report this one's.
    stats_base_ = fact_->stats();
    for (int j = 0; j < n_ && bounds == nullptr; ++j) {
      lb_[j] = model_.variable(j).lb;
      ub_[j] = model_.variable(j).ub;
    }
    for (int j = 0; j < n_ && bounds != nullptr; ++j) {
      const auto& [lo, hi] = (*bounds)[j];
      if (lo > hi) {
        Finish(LpStatus::kInfeasible, out);
        return;
      }
      lb_[j] = lo;
      ub_[j] = hi;
    }
    Finish(Run(warm_start), out);
  }

 private:
  LpStatus Run(const LpBasis* warm_start) {
    bool warm_loaded = warm_start != nullptr && !warm_start->empty() &&
                       LoadBasis(*warm_start);
    if (!warm_loaded) InitBasis();
    for (;;) {
      LpStatus status = RunFromCurrentBasis(warm_loaded);
      // Never conclude infeasible/unbounded from a warm start that hit
      // numerical trouble (a singular refactorization aborts a phase
      // early and can fake either verdict on an ill-conditioned inherited
      // basis, and an aborted dual run reports infeasible as its trouble
      // signal): restart from the perfectly conditioned slack basis and
      // let the cold primal solve have the final word. Iterations
      // accumulate across the restart, so the accounting stays honest.
      if (warm_loaded && numerical_trouble_ &&
          (status == LpStatus::kInfeasible ||
           status == LpStatus::kUnbounded)) {
        warm_loaded = false;
        numerical_trouble_ = false;
        InitBasis();
        continue;
      }
      return status;
    }
  }

  /// How one phase of the solve ended.
  enum class PhaseResult {
    kConverged,    ///< no improving direction remains (optimal / stalled)
    kNoDirection,  ///< phase 2 found an unbounded improving ray
    kLimit,        ///< iteration budget exhausted with work remaining
  };

  /// The single end-of-solve report: every solve writes its LpSolution
  /// here and only here, so statuses, counters, and basis export can never
  /// drift apart (they used to be duplicated per exit and mislabeled an
  /// optimum proven exactly at the iteration limit). Every field of `out`
  /// is written; its arrays keep their capacity.
  void Finish(LpStatus status, LpSolution* out) const {
    out->status = status;
    out->iterations = iterations_;
    out->dual_iterations = dual_iterations_;
    out->refactorizations =
        fact_->stats().refactorizations - stats_base_.refactorizations;
    out->basis_updates = fact_->stats().updates - stats_base_.updates;
    out->objective = 0.0;
    out->x.clear();
    out->reduced_costs.clear();
    if (status == LpStatus::kOptimal) {
      out->x.assign(x_.begin(), x_.begin() + n_);
      double obj = 0.0;
      for (int j = 0; j < n_; ++j) obj += cost_[j] * x_[j];
      out->objective = sign_ * obj;
      // Phase 2 converges only on freshly recomputed reduced costs.
      PB_DCHECK(d_valid_ && !d_phase1_);
      out->reduced_costs.resize(total_);
      for (int j = 0; j < total_; ++j) out->reduced_costs[j] = sign_ * d_[j];
    }
    if (status == LpStatus::kOptimal || status == LpStatus::kIterationLimit) {
      out->basis.basic = basis_;
      out->basis.stat = stat_;
    } else {
      out->basis.clear();
    }
  }

  /// Solve from whatever basis is currently loaded: dual re-optimization
  /// when the basis qualifies, then the primal phases. The dual simplex is
  /// only ever entered on a warm basis: a cold slack basis is not
  /// dual-feasible in general, and the primal phases are the right engine
  /// for it anyway.
  LpStatus RunFromCurrentBasis(bool warm) {
    // ---- Dual simplex: a warm basis whose bounds moved is bound-
    // infeasible but (coming from a parent's optimum) still dual-feasible;
    // restore primal feasibility in a few dual pivots instead of a phase-1
    // repair. On success the primal phases below exit immediately.
    if (warm && TotalInfeasibility() > opts_.feas_tol && DualFeasible()) {
      switch (SolveDual()) {
        case DualOutcome::kPrimalFeasible:
          break;  // optimal up to tolerances; the primal phases confirm
        case DualOutcome::kInfeasible:
          // A violated row with no eligible entering column is a valid
          // infeasibility certificate (unless numerical trouble fired, in
          // which case Run() retries cold before trusting this verdict).
          return LpStatus::kInfeasible;
        case DualOutcome::kLimit:
          return LpStatus::kIterationLimit;
        case DualOutcome::kTrouble:
          // Numerically failed dual run: report infeasible WITH
          // numerical_trouble_ set, which Run() converts into a cold
          // primal restart — the dual path never concludes infeasible on
          // its own after trouble.
          numerical_trouble_ = true;
          return LpStatus::kInfeasible;
      }
    }

    // ---- Phase 1: drive basic bound violations to zero. A warm basis that
    // is primal feasible under the current bounds exits immediately; one
    // that inherited now-violated bounds gets repaired here.
    if (SolvePhase(/*phase1=*/true) == PhaseResult::kLimit) {
      return LpStatus::kIterationLimit;
    }
    if (TotalInfeasibility() > opts_.feas_tol * (1 + m_)) {
      return LpStatus::kInfeasible;
    }

    // ---- Phase 2: optimize the true objective.
    switch (SolvePhase(/*phase1=*/false)) {
      case PhaseResult::kLimit:
        return LpStatus::kIterationLimit;
      case PhaseResult::kNoDirection:
        return LpStatus::kUnbounded;
      case PhaseResult::kConverged:
        break;
    }
    return LpStatus::kOptimal;
  }

  static constexpr double kInf = kInfinity;

  /// Visits (row, value) of column j: CSC entries for structural columns,
  /// the synthesized single entry (j - n, -1) for slacks.
  template <typename Fn>
  void ForEachCol(int j, Fn&& fn) const {
    if (j < n_) {
      for (int64_t k = a_.col_start[j]; k < a_.col_start[j + 1]; ++k) {
        fn(static_cast<int>(a_.row[k]), a_.value[k]);
      }
    } else {
      fn(j - n_, -1.0);
    }
  }

  /// Puts every slack in the basis, structural variables at their "natural"
  /// bound (the finite bound nearest zero; free variables at 0).
  void InitBasis() {
    basis_.resize(m_);
    stat_.assign(total_, VarStat::kAtLower);
    x_.assign(total_, 0.0);
    for (int j = 0; j < total_; ++j) {
      if (lb_[j] == -kInf && ub_[j] == kInf) {
        stat_[j] = VarStat::kFree;
        x_[j] = 0.0;
      } else if (lb_[j] == -kInf) {
        stat_[j] = VarStat::kAtUpper;
        x_[j] = ub_[j];
      } else if (ub_[j] == kInf) {
        stat_[j] = VarStat::kAtLower;
        x_[j] = lb_[j];
      } else {
        // Both finite: start at the bound with smaller magnitude.
        bool lower = std::abs(lb_[j]) <= std::abs(ub_[j]);
        stat_[j] = lower ? VarStat::kAtLower : VarStat::kAtUpper;
        x_[j] = lower ? lb_[j] : ub_[j];
      }
    }
    for (int i = 0; i < m_; ++i) {
      basis_[i] = n_ + i;
      stat_[n_ + i] = VarStat::kBasic;
    }
    // The slack basis (B = -I) can never be singular.
    fact_->Refactorize(basis_);
    d_valid_ = false;
    RecomputeBasicValues();
  }

  /// Restores a prior basis: statuses are adopted, nonbasic variables snap
  /// to the current bounds (which may have moved since the snapshot — the
  /// branch-and-bound case), and the basis is refactorized from scratch.
  /// One pass over the statuses checks, adopts and snaps them together.
  /// Returns false (leaving reinitialization to the caller, which
  /// overwrites whatever was adopted) when the snapshot has the wrong
  /// shape, is internally inconsistent, or its basis matrix is singular.
  bool LoadBasis(const LpBasis& b) {
    if (static_cast<int>(b.basic.size()) != m_ ||
        static_cast<int>(b.stat.size()) != total_) {
      return false;
    }
    int basic_count = 0;
    for (int j = 0; j < total_; ++j) {
      VarStat s = b.stat[j];
      double x = 0.0;  // a basic value is recomputed below
      switch (s) {
        case VarStat::kBasic:
          ++basic_count;
          break;
        case VarStat::kAtLower:
          if (lb_[j] > -kInf) {
            x = lb_[j];
          } else if (ub_[j] < kInf) {
            s = VarStat::kAtUpper;
            x = ub_[j];
          } else {
            s = VarStat::kFree;
          }
          break;
        case VarStat::kAtUpper:
          if (ub_[j] < kInf) {
            x = ub_[j];
          } else if (lb_[j] > -kInf) {
            s = VarStat::kAtLower;
            x = lb_[j];
          } else {
            s = VarStat::kFree;
          }
          break;
        case VarStat::kFree:
          if (lb_[j] > -kInf || ub_[j] < kInf) {
            // Bounds appeared since the snapshot: rest on the nearer one.
            bool lower =
                ub_[j] == kInf ||
                (lb_[j] > -kInf && std::abs(lb_[j]) <= std::abs(ub_[j]));
            s = lower ? VarStat::kAtLower : VarStat::kAtUpper;
            x = lower ? lb_[j] : ub_[j];
          }
          break;
      }
      stat_[j] = s;
      x_[j] = x;
    }
    if (basic_count != m_) return false;
    for (int i = 0; i < m_; ++i) {
      const int j = b.basic[i];
      if (j < 0 || j >= total_ || b.stat[j] != VarStat::kBasic) return false;
      basis_[i] = j;
    }
    if (!fact_->Refactorize(basis_)) return false;
    d_valid_ = false;
    RecomputeBasicValues();
    return true;
  }

  /// x_B = B^{-1} (0 - N x_N).
  void RecomputeBasicValues() {
    rhs_.assign(m_, 0.0);
    for (int j = 0; j < total_; ++j) {
      if (stat_[j] == VarStat::kBasic || x_[j] == 0.0) continue;
      double v = x_[j];
      ForEachCol(j, [&](int row, double coeff) { rhs_[row] -= coeff * v; });
    }
    fact_->Ftran(&rhs_);
    for (int i = 0; i < m_; ++i) x_[basis_[i]] = rhs_[i];
  }

  /// Refactorizes the current basis and restores the derived state (basic
  /// values; reduced costs are invalidated for lazy rebuild). False means
  /// numerically singular.
  bool RefactorizeBasis() {
    d_valid_ = false;
    if (!fact_->Refactorize(basis_)) return false;
    RecomputeBasicValues();
    return true;
  }

  /// Nonbasic with room to move. A fixed column (lb == ub, e.g. a binary
  /// that node presolve fixed or an equality row's slack) can take no step
  /// in either direction, so it is dual feasible at any reduced cost and is
  /// never priced in, never a dual ratio-test candidate, and never flipped.
  bool CanMove(int j) const {
    return stat_[j] != VarStat::kBasic && lb_[j] < ub_[j];
  }

  double Violation(int j) const {
    if (x_[j] < lb_[j]) return lb_[j] - x_[j];
    if (x_[j] > ub_[j]) return x_[j] - ub_[j];
    return 0.0;
  }

  double TotalInfeasibility() const {
    double total = 0.0;
    for (int i = 0; i < m_; ++i) total += Violation(basis_[i]);
    return total;
  }

  /// Phase-1 cost segment of variable j: -1 below its lower bound (cost
  /// wants it to grow), +1 above its upper (shrink), 0 in range.
  int8_t Seg(int j) const {
    if (x_[j] < lb_[j] - opts_.feas_tol) return -1;
    if (x_[j] > ub_[j] + opts_.feas_tol) return +1;
    return 0;
  }

  /// y = B^{-T} c_B where c_B is the (phase-dependent) basic cost vector.
  void ComputeDuals(bool phase1, std::vector<double>* y) {
    y->assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      int b = basis_[i];
      (*y)[i] = phase1 ? static_cast<double>(Seg(b)) : cost_[b];
    }
    fact_->Btran(y);
  }

  /// Rebuilds every reduced cost from fresh duals, d = c - [A | -I]^T y —
  /// the O(nnz) pass the incremental updates exist to avoid; runs only on
  /// phase entry, after refactorizations, and to confirm convergence. The
  /// product is accumulated row by row over the model's rows, so each
  /// column's subtractions run in ascending row order, exactly as a walk
  /// down its column would, and basic entries are then set to 0. For
  /// phase 1 it also snapshots the composite cost vector (c1_) so the loop
  /// can detect when a segment change invalidates d_.
  void RecomputeReducedCosts(bool phase1) {
    ComputeDuals(phase1, &y_);
    if (phase1) {
      for (int j : c1_nonzero_) c1_[j] = 0;
      c1_nonzero_.clear();
      for (int i = 0; i < m_; ++i) {
        int b = basis_[i];
        int8_t s = Seg(b);
        if (s != 0) {
          c1_[b] = s;
          c1_nonzero_.push_back(b);
        }
      }
    }
    if (phase1) {
      std::fill(d_.begin(), d_.end(), 0.0);
    } else {
      std::copy(cost_.begin(), cost_.end(), d_.begin());
    }
    for (int i = 0; i < m_; ++i) {
      const double yi = y_[i];
      for (const LinearTerm& t : model_.constraint(i).terms) {
        d_[t.var] -= yi * t.coeff;
      }
      d_[n_ + i] -= yi * -1.0;  // slack column of row i: -e_i
    }
    for (int b : basis_) d_[b] = 0.0;
    d_valid_ = true;
    d_phase1_ = phase1;
  }

  /// True when some basic variable's phase-1 cost segment no longer
  /// matches the snapshot d_ was computed against (a bound was crossed or
  /// repaired): the composite cost vector changed and d_ is stale.
  bool Phase1CostChanged() const {
    for (int i = 0; i < m_; ++i) {
      int b = basis_[i];
      if (c1_[b] != Seg(b)) return true;
    }
    return false;
  }

  /// Prices pivot row `leave_row` out of the factorization: rho_ = row of
  /// B^{-1} (one sparse BTRAN), then z_ = rho^T [A | -I] accumulated by
  /// walking only the rows rho touches (row-major `constraints()`; the CSC
  /// view would transpose badly here). z_pattern_ lists the touched
  /// columns; z_ values outside it are stale.
  void ComputePivotRow(int leave_row) {
    fact_->BtranUnit(leave_row, &rho_);
    if (z_stamp_ == std::numeric_limits<int>::max()) {
      // One workspace prices rows for a whole branch-and-bound search,
      // which can outlast the stamp: restart it rather than wrap.
      std::fill(z_mark_.begin(), z_mark_.end(), 0);
      z_stamp_ = 0;
    }
    ++z_stamp_;
    z_pattern_.clear();
    for (int i = 0; i < m_; ++i) {
      double r = rho_[i];
      if (r == 0.0) continue;
      AddToZ(n_ + i, -r);  // slack column of row i
      for (const LinearTerm& t : model_.constraint(i).terms) {
        AddToZ(t.var, r * t.coeff);
      }
    }
  }

  void AddToZ(int j, double v) {
    if (z_mark_[j] != z_stamp_) {
      z_mark_[j] = z_stamp_;
      z_[j] = 0.0;
      z_pattern_.push_back(j);
    }
    z_[j] += v;
  }

  /// The rank-one reduced-cost update for a pivot with priced row
  /// z_/z_pattern_ and pivot element `pivot` (the entering column's Ftran
  /// value in the leaving row). Must run while stat_ still reflects the
  /// pre-pivot basis. No-op when d_ is already stale.
  void UpdateReducedCostsAfterPivot(int enter, int leave, double pivot) {
    if (!d_valid_) return;
    double theta = d_[enter] / pivot;
    for (int j : z_pattern_) {
      if (j == enter || stat_[j] == VarStat::kBasic) continue;
      d_[j] -= theta * z_[j];
    }
    d_[leave] = -theta;  // z over the leaving column is exactly e_r
    d_[enter] = 0.0;
    // Phase 1 only: the leaving variable lands on a bound, so its
    // composite cost drops to 0 — if it was nonzero, the whole cost
    // vector shifted and d_ must be rebuilt.
    if (d_phase1_ && c1_[leave] != 0) d_valid_ = false;
  }

  /// Scatters column j and applies B^{-1} through the factorization.
  void FtranColumn(int j, std::vector<double>* alpha) {
    alpha->assign(m_, 0.0);
    ForEachCol(j, [&](int row, double coeff) { (*alpha)[row] += coeff; });
    fact_->Ftran(alpha);
  }

  /// Shared post-pivot bookkeeping: replace the factorized column and
  /// refactorize on schedule (or when the backend asks). Returns false on
  /// numerical trouble (caller aborts the phase).
  bool CommitPivot(int leave_row, int* since_refactor) {
    int64_t refs_before = fact_->stats().refactorizations;
    if (!fact_->Update(leave_row, alpha_, basis_)) return false;
    if (fact_->stats().refactorizations != refs_before) {
      // A tiny pivot forced an internal refactorization: re-derive state.
      d_valid_ = false;
      RecomputeBasicValues();
    }
    if (++*since_refactor >= kRefactorEvery ||
        fact_->ShouldRefactorize()) {
      *since_refactor = 0;
      if (!RefactorizeBasis()) return false;
    }
    return true;
  }

  /// Runs one phase to completion. kConverged means no improving direction
  /// remains — phase 1 feasibility is then judged by TotalInfeasibility(),
  /// phase 2 is optimal; kNoDirection is phase 2's unbounded ray. The
  /// iteration limit is only reported when an improving direction still
  /// exists: a solve that proves optimality on the pricing pass after its
  /// last allowed pivot is kConverged, not kLimit (the old per-phase limit
  /// checks mislabeled exactly-at-limit optima). Optimality and
  /// unboundedness are only ever declared off freshly recomputed reduced
  /// costs, never off the incrementally maintained ones.
  PhaseResult SolvePhase(bool phase1) {
    d_valid_ = false;  // phase entry: the cost vector changed
    // The devex frame starts fresh on the phase's first pricing; a phase
    // that exits before pricing (phase 1 on a feasible basis) skips it.
    bool framed = false;
    int since_refactor = 0;
    for (;;) {
      if (phase1 && TotalInfeasibility() <= opts_.feas_tol) {
        return PhaseResult::kConverged;
      }
      if (d_valid_ && d_phase1_ == phase1 && phase1 && Phase1CostChanged()) {
        d_valid_ = false;
      }
      bool fresh = false;
      if (!d_valid_ || d_phase1_ != phase1) {
        RecomputeReducedCosts(phase1);
        fresh = true;
      }

      // Pricing: best score among eligible columns; Bland's (lowest
      // eligible index) once the iteration count suggests cycling.
      bool bland = iterations_ > bland_threshold_;
      int enter = -1;
      int enter_dir = 0;  // +1 increase, -1 decrease
      auto select = [&]() {
        enter = -1;
        enter_dir = 0;
        double best_score = 0.0;
        for (int j = 0; j < total_; ++j) {
          if (!CanMove(j)) continue;
          double d = d_[j];
          int dir = 0;
          if (stat_[j] == VarStat::kAtLower && d < -opts_.opt_tol) {
            dir = +1;
          } else if (stat_[j] == VarStat::kAtUpper && d > opts_.opt_tol) {
            dir = -1;
          } else if (stat_[j] == VarStat::kFree &&
                     std::abs(d) > opts_.opt_tol) {
            dir = d < 0 ? +1 : -1;
          }
          if (dir == 0) continue;
          if (bland) {
            enter = j;
            enter_dir = dir;
            return;
          }
          double score = pricing_.PrimalScore(j, d);
          if (score > best_score) {
            best_score = score;
            enter = j;
            enter_dir = dir;
          }
        }
      };
      if (!framed) {
        pricing_.ResetPrimal(total_);
        framed = true;
      }
      select();
      if (enter < 0 && !fresh) {
        // Maintained reduced costs say converged: confirm before claiming.
        RecomputeReducedCosts(phase1);
        fresh = true;
        select();
      }
      if (enter < 0) {
        // No improving direction: phase-1 stalls (feasible or not);
        // phase-2 is optimal — even when the budget is exactly spent.
        return PhaseResult::kConverged;
      }
      if (iterations_ >= max_iter_) {
        if (!fresh) {
          // Don't report kLimit off drifted costs: an exactly-at-limit
          // optimum must still classify as converged.
          RecomputeReducedCosts(phase1);
          fresh = true;
          select();
          if (enter < 0) return PhaseResult::kConverged;
        }
        return PhaseResult::kLimit;
      }

      FtranColumn(enter, &alpha_);

      // Ratio test. The entering variable moves by t >= 0 in direction
      // enter_dir; basic i changes at rate delta_i = -enter_dir * alpha_i.
      double limit = kInf;
      int leave_row = -1;
      double leave_to_bound = 0.0;  // bound value the leaving var lands on
      VarStat leave_stat = VarStat::kAtLower;
      // Entering variable's own opposite bound (bound flip).
      if (stat_[enter] == VarStat::kAtLower && ub_[enter] < kInf) {
        limit = ub_[enter] - lb_[enter];
      } else if (stat_[enter] == VarStat::kAtUpper && lb_[enter] > -kInf) {
        limit = ub_[enter] - lb_[enter];
      }
      for (int i = 0; i < m_; ++i) {
        double rate = -enter_dir * alpha_[i];
        if (std::abs(rate) < opts_.pivot_tol) continue;
        int b = basis_[i];
        double t;
        VarStat to_stat;
        double to_bound;
        bool below = x_[b] < lb_[b] - opts_.feas_tol;
        bool above = x_[b] > ub_[b] + opts_.feas_tol;
        if (phase1 && below) {
          // Infeasible-below basic blocks where its cost segment changes:
          // at its lower bound when moving up; never when moving down.
          if (rate <= 0) continue;
          t = (lb_[b] - x_[b]) / rate;
          to_stat = VarStat::kAtLower;
          to_bound = lb_[b];
        } else if (phase1 && above) {
          if (rate >= 0) continue;
          t = (ub_[b] - x_[b]) / rate;
          to_stat = VarStat::kAtUpper;
          to_bound = ub_[b];
        } else if (rate > 0) {
          if (ub_[b] == kInf) continue;
          t = (ub_[b] - x_[b]) / rate;
          to_stat = VarStat::kAtUpper;
          to_bound = ub_[b];
        } else {
          if (lb_[b] == -kInf) continue;
          t = (lb_[b] - x_[b]) / rate;
          to_stat = VarStat::kAtLower;
          to_bound = lb_[b];
        }
        t = std::max(t, 0.0);
        if (t < limit - 1e-12 ||
            (leave_row >= 0 && t < limit + 1e-12 &&
             std::abs(alpha_[i]) > std::abs(alpha_[leave_row]))) {
          limit = t;
          leave_row = i;
          leave_stat = to_stat;
          leave_to_bound = to_bound;
        }
      }

      if (limit == kInf) {
        if (!fresh) {
          // The improving direction came from drifted reduced costs; get
          // fresh ones before believing an unbounded ray.
          RecomputeReducedCosts(phase1);
          continue;
        }
        // Unbounded direction. In phase 1 this cannot lower a
        // nonnegative objective forever — treat as numerical trouble and
        // report converged (the caller's infeasibility check decides).
        if (phase1) {
          numerical_trouble_ = true;
          return PhaseResult::kConverged;
        }
        return PhaseResult::kNoDirection;
      }

      ++iterations_;

      // Apply the step.
      double t = limit;
      if (leave_row < 0) {
        // Bound flip of the entering variable: no basis change, reduced
        // costs untouched.
        x_[enter] += enter_dir * t;
        stat_[enter] =
            stat_[enter] == VarStat::kAtLower ? VarStat::kAtUpper
                                              : VarStat::kAtLower;
        for (int i = 0; i < m_; ++i) {
          x_[basis_[i]] += -enter_dir * alpha_[i] * t;
        }
        continue;
      }

      // Pivot: enter replaces basis_[leave_row]. Price the pivot row
      // first (while the factorization still holds the old basis), fold
      // the rank-one update into d_ and the devex weights, then commit.
      int leave = basis_[leave_row];
      ComputePivotRow(leave_row);
      UpdateReducedCostsAfterPivot(enter, leave, alpha_[leave_row]);
      pricing_.PrimalUpdate(z_pattern_, z_, enter, leave, alpha_[leave_row]);

      for (int i = 0; i < m_; ++i) {
        x_[basis_[i]] += -enter_dir * alpha_[i] * t;
      }
      x_[enter] += enter_dir * t;
      x_[leave] = leave_to_bound;
      stat_[leave] = leave_stat;
      stat_[enter] = VarStat::kBasic;
      basis_[leave_row] = enter;

      if (!CommitPivot(leave_row, &since_refactor)) {
        numerical_trouble_ = true;
        return phase1 ? PhaseResult::kConverged : PhaseResult::kNoDirection;
      }
    }
  }

  /// A dual ratio-test breakpoint.
  struct Cand {
    int j;
    double a;      // priced pivot-row coefficient
    double ratio;  // dual ratio d_j / (s * a_j), clamped >= 0
  };

  /// Heap order of the breakpoints: true when x is walked after y. The walk
  /// goes by ratio, then larger |a| (pivot stability), then lower index;
  /// the index makes this a strict total order.
  static bool BreaksAfter(const Cand& x, const Cand& y) {
    if (x.ratio != y.ratio) return x.ratio > y.ratio;
    if (std::abs(x.a) != std::abs(y.a)) return std::abs(x.a) < std::abs(y.a);
    return x.j > y.j;
  }

  /// How a dual-simplex run ended.
  enum class DualOutcome {
    kPrimalFeasible,  ///< all basics back in bounds: optimal up to tolerance
    kInfeasible,      ///< a violated row admits no entering column
    kLimit,           ///< iteration budget exhausted
    kTrouble,         ///< numerical failure; caller must re-solve primally
  };

  /// True when the current basis satisfies the phase-2 optimality (= dual
  /// feasibility) conditions: nonbasic-at-lower reduced costs nonnegative,
  /// at-upper nonpositive, free near zero; a fixed column is dual feasible
  /// at any reduced cost (see CanMove). The entry gate for the dual
  /// simplex; the tolerance is looser than opt_tol because the inherited
  /// basis was refactorized from scratch. Leaves d_ freshly computed for
  /// the dual loop.
  bool DualFeasible() {
    RecomputeReducedCosts(/*phase1=*/false);
    const double tol = 100.0 * opts_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (!CanMove(j)) continue;
      double d = d_[j];
      switch (stat_[j]) {
        case VarStat::kAtLower:
          if (d < -tol) return false;
          break;
        case VarStat::kAtUpper:
          if (d > tol) return false;
          break;
        case VarStat::kFree:
          if (std::abs(d) > tol) return false;
          break;
        case VarStat::kBasic:
          break;
      }
    }
    return true;
  }

  /// Bounded-variable dual simplex. Precondition: the basis is
  /// dual-feasible (DualFeasible()). Each iteration picks the leaving row
  /// by dual pricing (devex row weights; lowest basic index under Bland's
  /// fallback), prices the pivot row through the factorization, runs the
  /// dual ratio test over the row's nonzero columns to preserve dual
  /// feasibility, and pivots through the shared commit path. Terminates
  /// with primal feasibility (= optimality), a proven-infeasible row, the
  /// iteration limit, or numerical trouble.
  DualOutcome SolveDual() {
    pricing_.ResetDual(m_);
    int since_refactor = 0;
    int bad_pivots = 0;
    for (;;) {
      if (!d_valid_ || d_phase1_) RecomputeReducedCosts(/*phase1=*/false);

      // ---- Leaving variable: a basic outside its bounds.
      bool bland = iterations_ > bland_threshold_;
      int leave_row = -1;
      double best_score = 0.0;
      for (int i = 0; i < m_; ++i) {
        int b = basis_[i];
        double viol = std::max(lb_[b] - x_[b], x_[b] - ub_[b]);
        if (viol <= opts_.feas_tol) continue;
        if (bland) {
          // Anti-cycling: lowest basic variable index among the violated.
          if (leave_row < 0 || b < basis_[leave_row]) leave_row = i;
        } else {
          double score = pricing_.DualScore(i, viol);
          if (score > best_score) {
            best_score = score;
            leave_row = i;
          }
        }
      }
      if (leave_row < 0) return DualOutcome::kPrimalFeasible;
      if (iterations_ >= max_iter_) return DualOutcome::kLimit;

      int leave = basis_[leave_row];
      // s = +1: above its upper bound, must decrease onto it;
      // s = -1: below its lower bound, must increase onto it.
      int s = x_[leave] > ub_[leave] ? +1 : -1;
      double target = s > 0 ? ub_[leave] : lb_[leave];

      // ---- Dual ratio test over the priced pivot row: one sparse BTRAN,
      // then only the columns the row actually touches (z_pattern_) are
      // candidates — the old dense scan priced every nonbasic column.
      // Eligibility keeps the basic moving toward its violated bound;
      // walking the candidates in ratio order keeps every reduced cost on
      // its feasible side after the step.
      ComputePivotRow(leave_row);
      cands_.clear();
      for (int j : z_pattern_) {
        if (!CanMove(j)) continue;
        double a = z_[j];
        double sa = s * a;
        bool eligible;
        if (stat_[j] == VarStat::kAtLower) {
          eligible = sa > opts_.pivot_tol;
        } else if (stat_[j] == VarStat::kAtUpper) {
          eligible = sa < -opts_.pivot_tol;
        } else {  // kFree
          eligible = std::abs(sa) > opts_.pivot_tol;
        }
        if (!eligible) continue;
        double d = d_[j];
        // Nonnegative by dual feasibility (at-lower: d >= 0, sa > 0;
        // at-upper: d <= 0, sa < 0; free: d ~ 0); clamp entry-tolerance
        // slack so degenerate steps stay degenerate.
        double ratio = stat_[j] == VarStat::kFree ? std::abs(d / sa) : d / sa;
        cands_.push_back({j, a, std::max(ratio, 0.0)});
      }

      // The signed excursion the step must absorb.
      double delta = x_[leave] - target;
      int enter = -1;
      flips_.clear();
      if (bland) {
        // Anti-cycling: plain min-ratio with lowest index on ties, no
        // flips (the termination argument wants one pivot per iteration).
        // z_pattern_ is not index-sorted, so the tie-break is explicit.
        double best_ratio = kInf;
        for (const Cand& c : cands_) {
          if (c.ratio < best_ratio - 1e-12 ||
              (c.ratio < best_ratio + 1e-12 && enter >= 0 && c.j < enter)) {
            best_ratio = std::min(best_ratio, c.ratio);
            enter = c.j;
          }
        }
      } else {
        // Bound-flipping ratio test: walk the breakpoints in dual-ratio
        // order (ties prefer the larger |a| for pivot stability). A boxed
        // candidate whose full range cannot absorb the remaining
        // excursion is flipped to its other bound — no basis change, and
        // its reduced cost legitimately crosses zero at this dual step —
        // and the first candidate that can absorb the rest becomes the
        // pivot column. On 0/1 package models this replaces strings of
        // single-bound dual pivots with one pivot plus cheap flips.
        // The walk usually stops after a few breakpoints, so they are
        // popped off a heap rather than fully sorted; BreaksAfter is a
        // strict total order, so the pops follow exactly the order a full
        // sort would give.
        std::make_heap(cands_.begin(), cands_.end(), BreaksAfter);
        for (auto end = cands_.end(); end != cands_.begin(); --end) {
          std::pop_heap(cands_.begin(), end, BreaksAfter);
          const Cand& c = *(end - 1);
          double dx = delta / c.a;
          double range = ub_[c.j] - lb_[c.j];
          if (stat_[c.j] == VarStat::kFree ||
              std::abs(dx) <= range + opts_.feas_tol) {
            enter = c.j;
            break;
          }
          double t = dx > 0 ? range : -range;
          flips_.push_back({c.j, t});
          // |a * t| < |delta|: the excursion shrinks but keeps its sign.
          delta -= c.a * t;
        }
      }
      if (enter < 0) {
        // Even with every eligible column at its most helpful bound the
        // row cannot reach its range: a primal infeasibility certificate
        // regardless of the reduced costs (the row is a fixed combination
        // of original rows). Nothing was applied; the basis is intact.
        return DualOutcome::kInfeasible;
      }

      FtranColumn(enter, &alpha_);
      if (std::abs(alpha_[leave_row]) < opts_.pivot_tol) {
        // The priced row and the Ftran column disagree about the pivot:
        // the factorization has drifted. Refactorize and retry (the flips
        // were not applied yet); give up after repeated disagreement.
        numerical_trouble_ = true;
        if (++bad_pivots > 2 || !RefactorizeBasis()) {
          return DualOutcome::kTrouble;
        }
        continue;
      }

      ++iterations_;
      ++dual_iterations_;

      // The rank-one updates use pre-pivot statuses; flips don't touch
      // reduced costs, so fold them in before anything moves.
      UpdateReducedCostsAfterPivot(enter, leave, alpha_[leave_row]);
      pricing_.DualUpdate(alpha_, leave_row);

      // ---- Apply the bound flips: each moves a nonbasic column to its
      // opposite bound and shifts every basic accordingly (an Ftran per
      // flip, but no pricing pass and no basis change — far cheaper than
      // the dual pivots they replace).
      for (const auto& [fj, t] : flips_) {
        FtranColumn(fj, &fcol_);
        for (int i = 0; i < m_; ++i) x_[basis_[i]] -= fcol_[i] * t;
        x_[fj] = t > 0 ? ub_[fj] : lb_[fj];
        stat_[fj] = t > 0 ? VarStat::kAtUpper : VarStat::kAtLower;
      }

      // ---- Pivot: the entering variable absorbs what is left of the
      // leaving basic's excursion past its bound.
      double dx = (x_[leave] - target) / alpha_[leave_row];
      for (int i = 0; i < m_; ++i) {
        if (i == leave_row) continue;
        x_[basis_[i]] -= alpha_[i] * dx;
      }
      x_[enter] += dx;
      x_[leave] = target;
      stat_[leave] = s > 0 ? VarStat::kAtUpper : VarStat::kAtLower;
      stat_[enter] = VarStat::kBasic;
      basis_[leave_row] = enter;

      if (!CommitPivot(leave_row, &since_refactor)) {
        numerical_trouble_ = true;
        return DualOutcome::kTrouble;
      }
    }
  }

  SimplexOptions opts_;
  const LpModel& model_;
  CscMatrix a_;  ///< ColumnsOf(model_), lent to fact_
  int m_, n_, total_;
  double sign_ = 1.0;
  int64_t max_iter_ = 0;
  int64_t iterations_ = 0;
  int64_t dual_iterations_ = 0;
  int64_t bland_threshold_ = 0;
  /// A phase aborted early on a singular refactorization (or phase 1 found
  /// an "unbounded" improving direction): any infeasible/unbounded verdict
  /// is suspect. Run() retries cold when this fires under a warm start.
  bool numerical_trouble_ = false;

  std::vector<double> lb_, ub_, cost_;
  std::vector<int> basis_;
  std::vector<VarStat> stat_;
  std::vector<double> x_;

  std::unique_ptr<BasisFactorization> fact_;
  FactorizationStats stats_base_;  ///< fact_->stats() when this solve began
  Pricing pricing_;

  /// Incrementally maintained reduced costs (see class comment).
  std::vector<double> d_;
  bool d_valid_ = false;
  bool d_phase1_ = false;  ///< cost vector d_ was computed against
  /// Phase-1 composite cost snapshot: c1_[j] in {-1, 0, +1}, nonzeros
  /// listed in c1_nonzero_ for O(active) clearing.
  std::vector<int8_t> c1_;
  std::vector<int> c1_nonzero_;

  // Workspaces.
  std::vector<double> y_, alpha_, rho_, rhs_, fcol_;
  std::vector<double> z_;       ///< priced pivot row (scatter)
  std::vector<int> z_mark_;     ///< stamp per column: z_[j] valid this row
  std::vector<int> z_pattern_;  ///< columns touched by the current row
  int z_stamp_ = 0;
  std::vector<Cand> cands_;     ///< dual ratio-test breakpoints (heap)
  /// Bound flips chosen by the dual ratio test: (column, signed step).
  std::vector<std::pair<int, double>> flips_;
};

int64_t EffectiveIterationLimit(const LpModel& model,
                                const SimplexOptions& options) {
  if (options.max_iterations > 0) return options.max_iterations;
  int64_t m = model.num_constraints();
  int64_t n = model.num_variables();
  return 200LL * (m + 1) + 20LL * (n + m) + 2000;
}

LpSolver::LpSolver(const LpModel& model, const SimplexOptions& options)
    : simplex_(std::make_unique<Simplex>(model, options)) {}

LpSolver::~LpSolver() = default;

const CscMatrix& LpSolver::columns() const { return simplex_->columns(); }

Status LpSolver::Solve(const std::vector<std::pair<double, double>>* bounds,
                       const LpBasis* warm_start, int64_t max_iterations,
                       LpSolution* out) {
  if (bounds != nullptr &&
      static_cast<int>(bounds->size()) != simplex_->num_variables()) {
    return Status::InvalidArgument(
        "bound_override size does not match variable count");
  }
  simplex_->Solve(bounds, warm_start, max_iterations, out);
  return Status::OK();
}

Result<LpSolution> LpSolver::Solve(
    const std::vector<std::pair<double, double>>* bounds,
    const LpBasis* warm_start, int64_t max_iterations) {
  LpSolution out;
  PB_RETURN_IF_ERROR(Solve(bounds, warm_start, max_iterations, &out));
  return out;
}

Result<LpSolution> SolveLp(
    const LpModel& model, const SimplexOptions& options,
    const std::vector<std::pair<double, double>>* bound_override,
    const LpBasis* warm_start) {
  PB_RETURN_IF_ERROR(model.Validate());
  return LpSolver(model, options)
      .Solve(bound_override, warm_start,
             EffectiveIterationLimit(model, options));
}

}  // namespace pb::solver
