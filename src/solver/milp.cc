#include "solver/milp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace pb::solver {

const char* MilpStatusToString(MilpStatus s) {
  switch (s) {
    case MilpStatus::kOptimal:    return "Optimal";
    case MilpStatus::kInfeasible: return "Infeasible";
    case MilpStatus::kFeasible:   return "Feasible";
    case MilpStatus::kNoSolution: return "NoSolution";
    case MilpStatus::kUnbounded:  return "Unbounded";
  }
  return "?";
}

std::vector<char> IntegralityMask(const LpModel& model) {
  std::vector<char> is_integer(model.num_variables());
  for (int j = 0; j < model.num_variables(); ++j) {
    is_integer[j] = model.variable(j).is_integer ? 1 : 0;
  }
  return is_integer;
}

namespace {

/// |x - round(x)| without a libm call: x - floor(x) and its complement
/// 1 - (x - floor(x)) are both exact, so this is that same double.
double DistanceToInteger(double x) {
  const double f = x - std::floor(x);
  return f <= 0.5 ? f : 1.0 - f;
}

/// std::round(x), calling libm only for a fractional x: an integral x
/// (most columns of a package LP's point sit on a 0/1 bound) rounds to
/// itself, signed zero included.
double RoundToInteger(double x) {
  return std::floor(x) == x ? x : std::round(x);
}

}  // namespace

int MostFractionalVariable(const std::vector<char>& is_integer,
                           const std::vector<double>& x, double int_tol) {
  int best = -1;
  double best_dist = kInfinity;  // distance of the fractional part to 1/2
  const int n = static_cast<int>(is_integer.size());
  for (int j = 0; j < n; ++j) {
    if (!is_integer[j]) continue;
    double frac = DistanceToInteger(x[j]);
    if (frac <= int_tol) continue;
    double dist_half = std::abs(frac - 0.5);
    if (dist_half < best_dist) {
      best_dist = dist_half;
      best = j;
    }
  }
  return best;
}

namespace {

using Bounds = std::vector<std::pair<double, double>>;

/// The range a row's activity a_i'x can take over a variable box: [min,
/// max] with +-kInfinity when an unbounded variable contributes.
struct RowActivityBounds {
  double min = 0.0;
  double max = 0.0;
};

/// The [min, max] contribution of one term coeff * x over x in [lb, ub]
/// (coeff must be nonzero; infinite bounds give infinite endpoints).
RowActivityBounds TermActivityRange(double coeff, double lb, double ub) {
  double a = coeff * lb;
  double b = coeff * ub;
  return a <= b ? RowActivityBounds{a, b} : RowActivityBounds{b, a};
}

struct Node {
  Bounds bounds;
  double bound;      // parent LP objective (optimistic bound for this node)
  LpBasis basis;     // parent's optimal basis (empty = cold start)
  /// Per-row activity ranges under `bounds`, maintained incrementally down
  /// the tree by node presolve.
  std::vector<RowActivityBounds> acts;
  int branch_var = -1;      // variable branched on to create this node
  double branch_frac = 0.0; // fractional part of the parent's LP value
  bool branch_up = false;   // ceil side (vs floor side)
  int lp_limit_boost = 0;   // times the LP iteration limit was doubled
};

/// Best-first: larger is better for max problems, smaller for min.
struct NodeOrder {
  bool maximize;
  bool operator()(const Node& a, const Node& b) const {
    return maximize ? a.bound < b.bound : a.bound > b.bound;
  }
};

/// Computes one row's activity range from scratch under the bounds
/// `bounds_of(v)` gives each variable: once per row at the root, and
/// below it as the fallback when infinite contributions make the
/// incremental form ill-defined.
template <typename BoundsOf>
RowActivityBounds RowActivityUnder(const LpModel& model, int row,
                                   const BoundsOf& bounds_of) {
  double lo = 0.0, hi = 0.0;
  for (const LinearTerm& t : model.constraint(row).terms) {
    const auto& [lb, ub] = bounds_of(t.var);
    RowActivityBounds r = TermActivityRange(t.coeff, lb, ub);
    lo += r.min;
    hi += r.max;
  }
  return {lo, hi};
}

/// Node presolve's scratch, sized once per solve and reused by every
/// PropagateBoundChanges call. Between calls every flag is zero and both
/// queues are empty, except for the variables a caller has just queued.
struct PresolveScratch {
  PresolveScratch() = default;
  PresolveScratch(int num_vars, int num_rows)
      : var_queued(num_vars, 0), row_queued(num_rows, 0), saved(num_vars) {}

  /// Queues v for propagation once: `folded` is the pair of bounds the row
  /// activity ranges still reflect for v, from before its tightening.
  void QueueVar(int v, std::pair<double, double> folded) {
    if (var_queued[v]) return;
    var_queued[v] = 1;
    saved[v] = folded;
    var_queue.push_back(v);
  }

  std::vector<int> var_queue, row_queue;
  std::vector<char> var_queued, row_queued;
  /// saved[v], while v is queued: the bounds `acts` still reflects for v
  /// (its bounds before the tightening that queued it).
  Bounds saved;
};

/// Node presolve: propagates tightened bounds through the row activity
/// ranges. On entry `bounds` holds the node's bounds with every variable
/// queued in `scratch` (a branched bound, reduced-cost tightenings)
/// already tightened, while `acts` still reflects the bounds each was
/// queued with; both are updated in place. Tightening is applied to
/// integer variables only, and the ceil/floor step may cut LP-fractional
/// points of the node's relaxation (e.g. 2x <= 1 rounds x's bound from
/// 0.5 to 0) — what is preserved exactly is the node's INTEGER feasible
/// set, so the MILP answer never changes, only the relaxation bounds and
/// the search path. A COUNT = k row whose minimum activity reaches k this
/// way fixes every remaining binary to 0 at once. Returns false when a
/// row's activity range can no longer meet its bounds: the node is
/// infeasible and needs no LP at all. `tightened` counts bound changes
/// beyond the queued ones. `cols` is the model by columns (the LP
/// workspace's view): a popped variable's rows are queued in its column's
/// ascending row order. `row_move[r]` is row r's largest single-term move
/// over the root bounds (see SolveMilp). `is_integer` is the model's
/// integrality mask. `scratch` is borrowed and left with every flag zero
/// and both queues empty.
bool PropagateBoundChanges(const LpModel& model, const CscMatrix& cols,
                           const std::vector<char>& is_integer,
                           const std::vector<double>& row_move,
                           double int_tol, Bounds* bounds,
                           std::vector<RowActivityBounds>* acts,
                           int64_t* tightened, PresolveScratch* scratch) {
  constexpr double kFeasEps = 1e-7;
  const int m = model.num_constraints();
  std::vector<int>& var_queue = scratch->var_queue;
  std::vector<int>& row_queue = scratch->row_queue;
  std::vector<char>& var_queued = scratch->var_queued;
  std::vector<char>& row_queued = scratch->row_queued;

  // A tightened variable goes onto the queue with the bounds `acts` still
  // reflects for it; popping it folds the delta into its rows. Only queued
  // variables lag `bounds`: for every other variable, `acts` reflects its
  // current bounds.
  auto reflected = [&](int v) -> const std::pair<double, double>& {
    return var_queued[v] ? scratch->saved[v] : (*bounds)[v];
  };
  // Every exit leaves the scratch as the next call expects it; a feasible
  // one has drained both queues already.
  auto infeasible = [&] {
    for (int v : var_queue) var_queued[v] = 0;
    for (int r : row_queue) row_queued[r] = 0;
    var_queue.clear();
    row_queue.clear();
    return false;
  };

  // Tightening budget (row visits). Float drift on dense package rows
  // could otherwise re-tighten forever; once spent, rows still drain for
  // their activity updates and infeasibility checks but produce no new
  // tightenings — stopping early is sound, never wrong.
  int row_budget = 8 * m + 64;

  while (!var_queue.empty() || !row_queue.empty()) {
    if (!var_queue.empty()) {
      // Fold one variable's bound delta into every row it touches. This
      // queue always drains fully so `acts` ends consistent with `bounds`
      // (children inherit it).
      int v = var_queue.back();
      var_queue.pop_back();
      auto [olb, oub] = scratch->saved[v];
      var_queued[v] = 0;  // from here on `acts` reflects v's bounds
      auto [nlb, nub] = (*bounds)[v];
      for (int64_t k = cols.col_start[v]; k < cols.col_start[v + 1]; ++k) {
        const int row = cols.row[k];
        RowActivityBounds& ra = (*acts)[row];
        RowActivityBounds was = TermActivityRange(cols.value[k], olb, oub);
        RowActivityBounds now = TermActivityRange(cols.value[k], nlb, nub);
        if (std::isfinite(was.min) && std::isfinite(was.max) &&
            std::isfinite(ra.min) && std::isfinite(ra.max)) {
          ra.min += now.min - was.min;
          ra.max += now.max - was.max;
        } else {
          // `reflected` is exactly what this row's range must mirror
          // mid-propagation (v's entry was just advanced).
          ra = RowActivityUnder(model, row, reflected);
        }
        if (!row_queued[row]) {
          row_queued[row] = 1;
          row_queue.push_back(row);
        }
      }
      continue;
    }

    int r = row_queue.back();
    row_queue.pop_back();
    row_queued[r] = 0;
    const Constraint& con = model.constraint(r);
    const RowActivityBounds& ra = (*acts)[r];
    if (ra.min > con.hi + kFeasEps || ra.max < con.lo - kFeasEps) {
      return infeasible();  // the row cannot be satisfied
    }
    if (--row_budget < 0) continue;
    // A term tightens its bound only when one of the row's slacks is
    // smaller than the term's own move |a| * (ub - lb) under the bounds
    // `acts` reflects, and those widths never exceed the root's. The
    // relative margin keeps the skip clear of rounding in the scan below,
    // and a skipped row is still charged to the budget above, so
    // skipping changes nothing.
    const double move = row_move[r];
    const double margin =
        move + 1e-9 * (std::abs(ra.min) + std::abs(ra.max) + move);
    if (con.hi - ra.min > margin && ra.max - con.lo > margin) continue;

    for (const LinearTerm& t : con.terms) {
      if (!is_integer[t.var]) continue;
      double l = (*bounds)[t.var].first, u = (*bounds)[t.var].second;
      if (l == u) continue;
      // Residual row range without this term, against the bounds `acts`
      // reflects for it (which may lag `bounds` while the var is queued).
      RowActivityBounds self = TermActivityRange(
          t.coeff, reflected(t.var).first, reflected(t.var).second);
      double rest_min = ra.min - self.min;
      double rest_max = ra.max - self.max;
      double new_l = l, new_u = u;
      if (t.coeff > 0) {
        if (std::isfinite(con.hi) && std::isfinite(rest_min)) {
          new_u = std::min(new_u, (con.hi - rest_min) / t.coeff);
        }
        if (std::isfinite(con.lo) && std::isfinite(rest_max)) {
          new_l = std::max(new_l, (con.lo - rest_max) / t.coeff);
        }
      } else {
        if (std::isfinite(con.hi) && std::isfinite(rest_min)) {
          new_l = std::max(new_l, (con.hi - rest_min) / t.coeff);
        }
        if (std::isfinite(con.lo) && std::isfinite(rest_max)) {
          new_u = std::min(new_u, (con.lo - rest_max) / t.coeff);
        }
      }
      if (std::isfinite(new_l)) new_l = std::ceil(new_l - int_tol);
      if (std::isfinite(new_u)) new_u = std::floor(new_u + int_tol);
      if (new_l <= l && new_u >= u) continue;  // no improvement
      if (new_l > new_u) return infeasible();  // empty domain
      scratch->QueueVar(t.var, {l, u});
      (*bounds)[t.var] = {new_l, new_u};
      ++*tightened;
    }
  }
  return true;
}

/// Reduced-cost tightening of a node whose LP `lp` solved to optimality,
/// against the incumbent objective `incumbent_obj`. In the minimization
/// form, every point v of the node's relaxation satisfies
///   c.v - z = sum over nonbasic k of d_k * (v_k - x_k)
/// (z, x, d: the LP's objective, point and reduced costs), with d_k >= 0
/// at a lower bound and d_k <= 0 at an upper one. A package that beats the
/// incumbent has c.v - z < gap = incumbent - z, so an integer column j at
/// its lower bound with d_j > 0 rises by at most floor((gap + margin) /
/// d_j) in it; a column at its upper bound likewise falls by at most
/// floor((gap + margin) / -d_j). Only packages that cannot beat the
/// incumbent are cut, so the optimum never changes.
///
/// The margin covers the LP's tolerances: each movable nonbasic variable
/// whose reduced cost sits on the wrong side (as far as opt_tol allows)
/// could pay back |d_k| times its range — a column's bound range, or for a
/// row slack the row's activity range at the node within the row's bounds
/// — plus 1e-6 * max(1, |z|, |incumbent|) for rounding in z and d.
///
/// Tightens `bounds` in place and folds the tightened columns through
/// PropagateBoundChanges, so the row activity ranges `acts` stay in step
/// and implied fixings follow; false means propagation proved the node
/// empty. Counts into `tallies`.
bool TightenByReducedCosts(const LpModel& model, const CscMatrix& cols,
                           const std::vector<char>& is_integer,
                           const LpSolution& lp, double incumbent_obj,
                           double int_tol, const std::vector<double>& row_move,
                           Bounds* bounds, std::vector<RowActivityBounds>* acts,
                           MilpResult* tallies, PresolveScratch* scratch) {
  const int n = model.num_variables();
  const int m = model.num_constraints();
  const double sign = model.sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;
  const std::vector<VarStat>& stat = lp.basis.stat;

  double margin = 1e-6 * std::max({1.0, std::abs(lp.objective),
                                   std::abs(incumbent_obj)});
  for (int k = 0; k < n + m; ++k) {
    const double d = sign * lp.reduced_costs[k];
    double wrong = 0.0;
    switch (stat[k]) {
      case VarStat::kBasic:   continue;
      case VarStat::kAtLower: wrong = -d; break;
      case VarStat::kAtUpper: wrong = d; break;
      case VarStat::kFree:    wrong = std::abs(d); break;
    }
    if (wrong <= 0.0) continue;
    double range;
    if (k < n) {
      range = (*bounds)[k].second - (*bounds)[k].first;
    } else {
      const Constraint& con = model.constraint(k - n);
      const RowActivityBounds& act = (*acts)[k - n];
      range = std::min(con.hi, act.max) - std::max(con.lo, act.min);
    }
    if (!(range <= 0.0)) margin += wrong * range;  // NaN poisons the budget
  }
  const double budget = sign * (incumbent_obj - lp.objective) + margin;
  // An unbounded range (or NaN from one) leaves nothing to conclude.
  if (!std::isfinite(budget) || budget < 0.0) return true;

  const int64_t before = tallies->reduced_cost_tightenings;
  for (int j = 0; j < n; ++j) {
    if (!is_integer[j]) continue;
    const auto [l, u] = (*bounds)[j];
    if (l == u) continue;
    const double d = sign * lp.reduced_costs[j];
    double new_l = l, new_u = u;
    if (stat[j] == VarStat::kAtLower && d > 0.0) {
      const double steps = budget / d;
      if (!(steps < u - l)) continue;
      new_u = l + std::floor(steps);
    } else if (stat[j] == VarStat::kAtUpper && d < 0.0) {
      const double steps = budget / -d;
      if (!(steps < u - l)) continue;
      new_l = u - std::floor(steps);
    } else {
      continue;
    }
    scratch->QueueVar(j, {l, u});
    (*bounds)[j] = {new_l, new_u};
    ++tallies->reduced_cost_tightenings;
  }
  if (tallies->reduced_cost_tightenings == before) return true;
  return PropagateBoundChanges(model, cols, is_integer, row_move, int_tol,
                               bounds, acts, &tallies->presolve_fixed_bounds,
                               scratch);
}

/// Branch-variable selection: pseudocost scoring once any history exists,
/// the caller's most-fractional pick (`fallback`) before that. The score
/// is the product of the estimated objective degradations of the two
/// children (the standard product rule); variables without observations on
/// a side borrow the global average (O(1) from the history's running
/// aggregates). Fully deterministic: ties break to the lowest index via
/// strict >.
int SelectBranchVariable(const std::vector<char>& is_integer,
                         const std::vector<double>& x, double int_tol,
                         const PseudocostHistory& pc, int fallback) {
  const int n = static_cast<int>(is_integer.size());
  if (pc.entries.size() != static_cast<size_t>(n) ||
      !pc.has_observations()) {
    return fallback;
  }
  double global_down =
      pc.down_n_all > 0 ? pc.down_sum_all / pc.down_n_all : 1.0;
  double global_up = pc.up_n_all > 0 ? pc.up_sum_all / pc.up_n_all : 1.0;

  int best = -1;
  double best_score = -1.0;
  constexpr double kEps = 1e-9;
  for (int j = 0; j < n; ++j) {
    if (!is_integer[j]) continue;
    double frac = x[j] - std::floor(x[j]);
    if (frac <= int_tol || frac >= 1.0 - int_tol) continue;
    const PseudocostHistory::Entry& e = pc.entries[j];
    double down = e.down_n > 0 ? e.down_sum / e.down_n : global_down;
    double up = e.up_n > 0 ? e.up_sum / e.up_n : global_up;
    double score =
        std::max(down * frac, kEps) * std::max(up * (1.0 - frac), kEps);
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

/// Rounds integer variables to the nearest integer within bounds into
/// `rounded` (the caller's buffer, reused node after node); returns true
/// if the rounded point is feasible for the whole model.
bool TryRound(const LpModel& model, const std::vector<char>& is_integer,
              const Bounds& bounds, const std::vector<double>& x, double tol,
              std::vector<double>* rounded) {
  *rounded = x;
  for (size_t j = 0; j < is_integer.size(); ++j) {
    if (!is_integer[j]) continue;
    double r = RoundToInteger(x[j]);
    r = std::min(std::max(r, bounds[j].first), bounds[j].second);
    (*rounded)[j] = r;
  }
  return model.IsFeasible(*rounded, tol);
}

/// Rounds the integer entries of `x` in place (an integral LP point's
/// snap before it becomes an incumbent).
void SnapIntegers(const std::vector<char>& is_integer,
                  std::vector<double>* x) {
  for (size_t j = 0; j < is_integer.size(); ++j) {
    if (is_integer[j]) (*x)[j] = RoundToInteger((*x)[j]);
  }
}

/// Diving heuristic: repeatedly fixes the most fractional integer variable
/// to its nearest integer and re-solves the LP. Package models (equality
/// COUNT rows) rarely round feasibly, but they dive very well — this is how
/// the solver finds its first incumbent without exploring the tree. The
/// caller's basis `seed` starts the chain (the first dive LP is exactly the
/// caller's LP, so it prices out immediately) and each step's basis
/// warm-starts the next: every step solves into one LpSolution, warm from
/// its own previous basis. The dive's LPs run through the caller's
/// workspace with the node LPs' iteration budget `lp_limit`. Returns true
/// with an integer-feasible point in *out on success.
bool TryDive(const LpModel& model, const std::vector<char>& is_integer,
             Bounds bounds, LpSolver* lp_solver, int64_t lp_limit,
             double int_tol, const LpBasis& seed, const CancelToken& cancel,
             MilpResult* tallies, std::vector<double>* out) {
  constexpr int kMaxDepth = 400;
  LpSolution lp;
  const LpBasis* warm = &seed;
  for (int depth = 0; depth < kMaxDepth; ++depth) {
    // The dive is a chain of up to kMaxDepth LP solves; without this check
    // a cancel issued mid-dive would only take effect at the next node pop.
    if (cancel.cancel_requested()) return false;
    if (!lp_solver->Solve(&bounds, warm, lp_limit, &lp).ok()) return false;
    tallies->lp_iterations += lp.iterations;
    tallies->lp_dual_iterations += lp.dual_iterations;
    tallies->lp_refactorizations += lp.refactorizations;
    tallies->lp_basis_updates += lp.basis_updates;
    if (lp.status != LpStatus::kOptimal) return false;
    warm = &lp.basis;
    int j = MostFractionalVariable(is_integer, lp.x, int_tol);
    if (j < 0) {
      *out = std::move(lp.x);
      SnapIntegers(is_integer, out);
      return model.IsFeasible(*out, int_tol);
    }
    double fixed = RoundToInteger(lp.x[j]);
    fixed = std::min(std::max(fixed, bounds[j].first), bounds[j].second);
    bounds[j] = {fixed, fixed};
  }
  return false;
}

}  // namespace

Result<MilpResult> SolveMilp(const LpModel& model, const MilpOptions& options) {
  PB_RETURN_IF_ERROR(model.Validate());
  Stopwatch timer;
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;
  auto better = [&](double a, double b) {
    return maximize ? a > b + options.gap_abs : a < b - options.gap_abs;
  };

  MilpResult result;
  const int n = model.num_variables();
  // Read by every per-column pass below instead of each Variable record.
  const std::vector<char> is_integer = IntegralityMask(model);

  const int64_t base_lp_limit = EffectiveIterationLimit(model, options.lp);
  // The solve's one LP workspace: every node LP and every dive LP runs
  // through it (the model was validated above). Node presolve walks its
  // column view.
  LpSolver lp_solver(model, options.lp);
  const CscMatrix& cols = lp_solver.columns();

  // Cross-solve warm-start state: usable only while the model's structure
  // matches what the state was learned on; reset otherwise.
  MilpWarmStart* warm = options.warm;
  if (warm != nullptr) {
    uint64_t sig = model.StructuralSignature();
    if (warm->model_signature != sig) {
      warm->root_basis.clear();
      warm->pseudocosts = PseudocostHistory{};
      warm->model_signature = sig;
    }
  }
  PseudocostHistory local_pc;
  PseudocostHistory& pc = warm != nullptr ? warm->pseudocosts : local_pc;
  pc.entries.resize(n);

  Bounds root_bounds(n);
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    double lo = v.lb, hi = v.ub;
    // Integer variables get their bounds tightened to integers up front.
    if (is_integer[j]) {
      if (std::isfinite(lo)) lo = std::ceil(lo - options.int_tol);
      if (std::isfinite(hi)) hi = std::floor(hi + options.int_tol);
    }
    root_bounds[j] = {lo, hi};
  }

  // Root activity ranges for node presolve, under the root bounds.
  std::vector<RowActivityBounds> root_acts(model.num_constraints());
  for (int i = 0; i < model.num_constraints(); ++i) {
    root_acts[i] = RowActivityUnder(
        model, i, [&](int v) -> const auto& { return root_bounds[v]; });
  }
  // Each row's largest single-term move, max |a_ij| * (ub_j - lb_j) over
  // its integer columns at the root. Bounds only narrow down the tree, so
  // this caps every term's move at every node (PropagateBoundChanges).
  std::vector<double> row_move(model.num_constraints(), 0.0);
  for (int i = 0; i < model.num_constraints(); ++i) {
    for (const LinearTerm& t : model.constraint(i).terms) {
      if (!is_integer[t.var]) continue;
      const auto& [lo, hi] = root_bounds[t.var];
      row_move[i] = std::max(row_move[i], std::abs(t.coeff) * (hi - lo));
    }
  }
  PresolveScratch presolve_scratch(n, model.num_constraints());

  // The open heap, managed with push_heap/pop_heap rather than a
  // std::priority_queue so that popping moves the best node out (top()
  // could only copy it).
  NodeOrder node_order{maximize};
  std::vector<Node> open;
  auto push_open = [&](Node node) {
    open.push_back(std::move(node));
    std::push_heap(open.begin(), open.end(), node_order);
  };
  auto pop_open = [&] {
    std::pop_heap(open.begin(), open.end(), node_order);
    Node top = std::move(open.back());
    open.pop_back();
    return top;
  };

  {
    Node root;
    root.bounds = std::move(root_bounds);
    root.acts = std::move(root_acts);
    root.bound = maximize ? kInfinity : -kInfinity;
    if (warm != nullptr) root.basis = warm->root_basis;
    push_open(std::move(root));
  }

  bool have_incumbent = false;
  std::vector<double> incumbent;
  double incumbent_obj = 0.0;
  bool root_unbounded = false;
  bool root_basis_captured = false;
  // Optimistic bounds of subtrees abandoned because their LP would not
  // finish within the (repeatedly doubled) iteration limit. These must
  // survive into best_bound / status reporting: an abandoned subtree may
  // hold the true optimum.
  bool abandoned_any = false;
  double abandoned_bound = maximize ? -kInfinity : kInfinity;
  // Doubling the LP budget this many times (~4000x) before giving up on a
  // node keeps pathological LPs from stalling the whole solve forever.
  constexpr int kMaxLpLimitBoost = 12;

  // Every node LP solves into `lp`, and every rounding or snap goes through
  // `point`; both keep their storage from node to node.
  LpSolution lp;
  std::vector<double> point;

  while (!open.empty()) {
    if (options.cancel.cancel_requested()) {
      // Cooperative cancellation: identical to a limit stop (open stays
      // non-empty, so the status honestly reports unexplored work), plus
      // the `cancelled` flag for callers that need to tell the two apart.
      result.cancelled = true;
      break;
    }
    if (result.nodes >= options.max_nodes ||
        timer.ElapsedSeconds() > options.time_limit_s) {
      break;  // open is non-empty here, so work_remaining stays true
    }
    Node node = pop_open();

    // Bound-based pruning against the incumbent.
    if (have_incumbent && !better(node.bound, incumbent_obj)) continue;

    ++result.nodes;
    const LpBasis* start = node.basis.empty() ? nullptr : &node.basis;
    PB_RETURN_IF_ERROR(lp_solver.Solve(
        &node.bounds, start, base_lp_limit << node.lp_limit_boost, &lp));
    result.lp_iterations += lp.iterations;
    result.lp_dual_iterations += lp.dual_iterations;
    result.lp_refactorizations += lp.refactorizations;
    result.lp_basis_updates += lp.basis_updates;

    if (lp.status == LpStatus::kInfeasible) continue;
    if (lp.status == LpStatus::kUnbounded) {
      // An unbounded relaxation with no incumbent yet (the root included)
      // means the MILP may be unbounded; surface it conservatively.
      if (!have_incumbent) {
        root_unbounded = true;
        break;
      }
      continue;
    }
    if (lp.status == LpStatus::kIterationLimit) {
      // The node's subtree must not be lost: re-queue it with a doubled
      // LP budget, resuming from the partial basis. Only after the boost
      // cap is the subtree abandoned — and then its optimistic bound
      // still reaches the reported best_bound below.
      if (node.lp_limit_boost < kMaxLpLimitBoost) {
        ++node.lp_limit_boost;
        node.basis = lp.basis;
        push_open(std::move(node));
      } else {
        abandoned_any = true;
        abandoned_bound = maximize ? std::max(abandoned_bound, node.bound)
                                   : std::min(abandoned_bound, node.bound);
      }
      continue;
    }

    double node_bound = lp.objective;
    if (!root_basis_captured && node.branch_var < 0 && warm != nullptr) {
      // First optimal solve of the root (re-queues included): remember its
      // basis for the next structurally identical model.
      warm->root_basis = lp.basis;
      root_basis_captured = true;
    }

    // Pseudocost observation: objective degradation from the parent's LP
    // bound, normalized by the branching distance.
    if (node.branch_var >= 0 && std::isfinite(node.bound)) {
      double degradation = maximize ? node.bound - node_bound
                                    : node_bound - node.bound;
      degradation = std::max(degradation, 0.0);
      double denom =
          node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
      if (denom > 1e-9) {
        PseudocostHistory::Entry& e = pc.entries[node.branch_var];
        if (node.branch_up) {
          e.up_sum += degradation / denom;
          ++e.up_n;
          pc.up_sum_all += degradation / denom;
          ++pc.up_n_all;
        } else {
          e.down_sum += degradation / denom;
          ++e.down_n;
          pc.down_sum_all += degradation / denom;
          ++pc.down_n_all;
        }
      }
    }

    if (have_incumbent && !better(node_bound, incumbent_obj)) continue;

    int frac_var = MostFractionalVariable(is_integer, lp.x, options.int_tol);
    if (frac_var < 0) {
      // Integer feasible: snap and accept as incumbent.
      point = lp.x;
      SnapIntegers(is_integer, &point);
      double obj = model.ObjectiveValue(point);
      if (!have_incumbent || better(obj, incumbent_obj)) {
        have_incumbent = true;
        incumbent.swap(point);
        incumbent_obj = obj;
      }
      continue;
    }

    // Primal heuristics: cheap rounding at every node; one LP dive from the
    // root when rounding produced nothing (package models have equality
    // rows that defeat rounding but dive well).
    if (TryRound(model, is_integer, node.bounds, lp.x, options.int_tol,
                 &point)) {
      double obj = model.ObjectiveValue(point);
      if (!have_incumbent || better(obj, incumbent_obj)) {
        have_incumbent = true;
        incumbent.swap(point);
        incumbent_obj = obj;
      }
    }
    // Root identified by branch_var (result.nodes would miss a root that
    // was re-queued after an LP iteration limit).
    if (!have_incumbent && node.branch_var < 0) {
      std::vector<double> dived;
      if (TryDive(model, is_integer, node.bounds, &lp_solver, base_lp_limit,
                  options.int_tol, lp.basis, options.cancel, &result,
                  &dived)) {
        have_incumbent = true;
        incumbent_obj = model.ObjectiveValue(dived);
        incumbent = std::move(dived);
      }
    }

    // Reduced-cost tightening, after the heuristics (which may have
    // improved the incumbent) and before the children copy the node's
    // bounds, so both inherit it.
    if (have_incumbent &&
        !TightenByReducedCosts(model, cols, is_integer, lp, incumbent_obj,
                               options.int_tol, row_move, &node.bounds,
                               &node.acts, &result, &presolve_scratch)) {
      continue;  // propagation proved the node empty
    }

    // Branch: floor side and ceil side, both warm-started from this node's
    // optimal basis (they differ from it by one variable bound). Node
    // presolve then propagates that one bound through the row activity
    // ranges: children whose rows become unsatisfiable are discarded with
    // zero LP work, and implied integer fixings ride into the child's
    // bound set, which the dual re-solve picks up directly.
    int branch_var =
        SelectBranchVariable(is_integer, lp.x, options.int_tol, pc, frac_var);
    if (branch_var < 0) branch_var = frac_var;
    double xv = lp.x[branch_var];
    double frac = xv - std::floor(xv);
    const double parent_lb = node.bounds[branch_var].first;
    const double parent_ub = node.bounds[branch_var].second;
    node.basis.clear();  // superseded by lp.basis; don't copy it into `down`
    Node down = node;
    down.bound = node_bound;
    down.basis = lp.basis;
    down.branch_var = branch_var;
    down.branch_frac = frac;
    down.branch_up = false;
    down.lp_limit_boost = 0;
    down.bounds[branch_var].second =
        std::min(down.bounds[branch_var].second, std::floor(xv));
    bool push_down =
        down.bounds[branch_var].first <= down.bounds[branch_var].second;
    if (push_down) {
      presolve_scratch.QueueVar(branch_var, {parent_lb, parent_ub});
      if (!PropagateBoundChanges(model, cols, is_integer, row_move,
                                 options.int_tol, &down.bounds, &down.acts,
                                 &result.presolve_fixed_bounds,
                                 &presolve_scratch)) {
        ++result.presolve_infeasible_children;
        push_down = false;
      }
    }
    if (push_down) push_open(std::move(down));
    Node up = std::move(node);
    up.bound = node_bound;
    up.basis = lp.basis;  // into node.basis's storage; lp keeps its own
    up.branch_var = branch_var;
    up.branch_frac = frac;
    up.branch_up = true;
    up.lp_limit_boost = 0;
    up.bounds[branch_var].first =
        std::max(up.bounds[branch_var].first, std::ceil(xv));
    bool push_up = up.bounds[branch_var].first <= up.bounds[branch_var].second;
    if (push_up) {
      presolve_scratch.QueueVar(branch_var, {parent_lb, parent_ub});
      if (!PropagateBoundChanges(model, cols, is_integer, row_move,
                                 options.int_tol, &up.bounds, &up.acts,
                                 &result.presolve_fixed_bounds,
                                 &presolve_scratch)) {
        ++result.presolve_infeasible_children;
        push_up = false;
      }
    }
    if (push_up) push_open(std::move(up));
  }

  // Best remaining optimistic bound over ALL unexplored work: open nodes
  // (the heap is bound-ordered, so the front is the best) plus any
  // abandoned subtrees.
  bool work_remaining = !open.empty() || abandoned_any;
  double remaining_bound = maximize ? -kInfinity : kInfinity;
  if (!open.empty()) remaining_bound = open.front().bound;
  if (abandoned_any) {
    remaining_bound = maximize ? std::max(remaining_bound, abandoned_bound)
                               : std::min(remaining_bound, abandoned_bound);
  }

  result.solve_seconds = timer.ElapsedSeconds();
  if (root_unbounded && !have_incumbent) {
    result.status = MilpStatus::kUnbounded;
    return result;
  }
  if (have_incumbent) {
    result.x = std::move(incumbent);
    result.objective = incumbent_obj;
    // Optimality is proven when no unexplored work remains, or when none of
    // it can beat the incumbent (a bound-based proof is valid even when a
    // node/time limit stopped the search).
    bool proven = !work_remaining || !better(remaining_bound, incumbent_obj);
    result.best_bound = proven ? incumbent_obj : remaining_bound;
    result.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    return result;
  }
  result.status = work_remaining ? MilpStatus::kNoSolution
                                 : MilpStatus::kInfeasible;
  result.best_bound = remaining_bound;
  return result;
}

}  // namespace pb::solver
