#include "solver/milp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

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

int MostFractionalVariable(const LpModel& model, const std::vector<double>& x,
                           double int_tol) {
  int best = -1;
  double best_dist = kInfinity;  // distance of the fractional part to 1/2
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double frac = std::abs(x[j] - std::round(x[j]));
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

/// Heap entry: the node plus its speculation slot. A node's LP inputs
/// (bounds, basis, lp_limit_boost) are immutable from push to pop, so its
/// relaxation can be solved by any thread at any point in that window; the
/// slot records who did and holds the result. Slot transitions happen
/// under SpecPool::mu; the LP itself runs unlocked.
struct OpenNode {
  Node node;

  enum class Spec : uint8_t {
    kIdle,     ///< nobody has started this node's LP
    kClaimed,  ///< some thread is solving it right now
    kDone,     ///< lp_status / lp below hold the finished solve
  };
  Spec spec = Spec::kIdle;
  /// Popped (or pruned) by the main thread: helpers must not pick it up
  /// even if a stale frontier snapshot still lists it.
  bool dead = false;
  Status lp_status = Status::OK();
  LpSolution lp;
};

using OpenNodePtr = std::shared_ptr<OpenNode>;

/// Best-first: larger is better for max problems, smaller for min. Applied
/// through std::push_heap/pop_heap this reproduces std::priority_queue's
/// ordering decisions exactly (same algorithm, same comparator calls), so
/// the pop order matches the serial solver byte for byte.
struct NodeOrder {
  bool maximize;
  bool operator()(const OpenNodePtr& a, const OpenNodePtr& b) const {
    return maximize ? a->node.bound < b->node.bound
                    : a->node.bound > b->node.bound;
  }
};

/// Shared state between the committing main thread and the speculative LP
/// helpers. The open heap itself stays main-thread-local; helpers only see
/// the published `frontier` snapshot and write into claimed nodes' slots.
struct SpecPool {
  const LpModel* model = nullptr;
  SimplexOptions base_lp;
  int64_t base_lp_limit = 0;  // EffectiveIterationLimit(model, base_lp)
  bool maximize = false;
  double gap_abs = 0.0;

  Mutex mu;
  CondVar work_cv;  ///< helpers: frontier refreshed / stop
  CondVar done_cv;  ///< main thread: a claimed LP finished
  /// Speculation candidates, best bound first (refreshed by the main
  /// thread after every commit). Which nodes appear here only affects how
  /// much helper work is useful — never the result. (The OpenNode
  /// spec/dead slots the frontier points at are likewise only touched
  /// under mu while helpers run; they cannot carry PB_GUARDED_BY because
  /// the serial path owns them lock-free when no helpers exist.)
  std::vector<OpenNodePtr> frontier PB_GUARDED_BY(mu);
  bool stop PB_GUARDED_BY(mu) = false;

  /// Incumbent objective, published on every improvement so helpers can
  /// skip frontier nodes the serial commit will prune anyway. Relaxed
  /// reads: a stale value costs at most one wasted LP, never correctness.
  std::atomic<double> incumbent_obj{0.0};
  std::atomic<bool> have_incumbent{false};
  /// LPs solved by helpers (useful and wasted alike; timing-dependent).
  std::atomic<int64_t> speculative_lps{0};
};

/// Helper-thread body: repeatedly claim the best idle frontier node that
/// still beats the published incumbent, solve its LP, and post the result
/// into the node's slot. Each helper owns its LP workspace; a node LP is a
/// pure function of the node's inputs, so which workspace solves it never
/// shows in the result.
void SpeculationLoop(SpecPool* pool) {
  LpSolver lp_solver(*pool->model, pool->base_lp);
  MutexLock lock(&pool->mu);
  for (;;) {
    if (pool->stop) return;
    OpenNodePtr pick;
    for (const OpenNodePtr& cand : pool->frontier) {
      if (cand->spec != OpenNode::Spec::kIdle || cand->dead) continue;
      if (pool->have_incumbent.load(std::memory_order_relaxed)) {
        double inc = pool->incumbent_obj.load(std::memory_order_relaxed);
        bool beats = pool->maximize
                         ? cand->node.bound > inc + pool->gap_abs
                         : cand->node.bound < inc - pool->gap_abs;
        if (!beats) continue;  // the commit loop will prune it unsolved
      }
      pick = cand;
      break;
    }
    if (!pick) {
      pool->work_cv.Wait(&pool->mu);
      continue;
    }
    pick->spec = OpenNode::Spec::kClaimed;
    lock.Unlock();

    const LpBasis* start =
        pick->node.basis.empty() ? nullptr : &pick->node.basis;
    Result<LpSolution> r =
        lp_solver.Solve(&pick->node.bounds, start,
                        pool->base_lp_limit << pick->node.lp_limit_boost);
    pool->speculative_lps.fetch_add(1, std::memory_order_relaxed);

    lock.Lock();
    if (r.ok()) {
      pick->lp = std::move(*r);
    } else {
      pick->lp_status = r.status();
    }
    pick->spec = OpenNode::Spec::kDone;
    pool->done_cv.NotifyAll();
  }
}

/// Recomputes one row's activity range from scratch under the bounds
/// `bounds_of(v)` gives each variable (the fallback when infinite
/// contributions make the incremental form ill-defined).
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
/// beyond the queued ones. `row_move[r]` is row r's largest single-term
/// move over the root bounds (see SolveMilp). `scratch` is borrowed and
/// left with every flag zero and both queues empty.
bool PropagateBoundChanges(const LpModel& model,
                           const std::vector<double>& row_move,
                           double int_tol, Bounds* bounds,
                           std::vector<RowActivityBounds>* acts,
                           int64_t* tightened, PresolveScratch* scratch) {
  constexpr double kFeasEps = 1e-7;
  const auto& vrows = model.variable_rows();
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
      for (const RowTerm& rt : vrows[v]) {
        RowActivityBounds& ra = (*acts)[rt.row];
        RowActivityBounds was = TermActivityRange(rt.coeff, olb, oub);
        RowActivityBounds now = TermActivityRange(rt.coeff, nlb, nub);
        if (std::isfinite(was.min) && std::isfinite(was.max) &&
            std::isfinite(ra.min) && std::isfinite(ra.max)) {
          ra.min += now.min - was.min;
          ra.max += now.max - was.max;
        } else {
          // `reflected` is exactly what this row's range must mirror
          // mid-propagation (v's entry was just advanced).
          ra = RowActivityUnder(model, rt.row, reflected);
        }
        if (!row_queued[rt.row]) {
          row_queued[rt.row] = 1;
          row_queue.push_back(rt.row);
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
      if (!model.variable(t.var).is_integer) continue;
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
bool TightenByReducedCosts(const LpModel& model, const LpSolution& lp,
                           double incumbent_obj, double int_tol,
                           const std::vector<double>& row_move, Bounds* bounds,
                           std::vector<RowActivityBounds>* acts,
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
    if (!model.variable(j).is_integer) continue;
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
  return PropagateBoundChanges(model, row_move, int_tol, bounds, acts,
                               &tallies->presolve_fixed_bounds, scratch);
}

/// Branch-variable selection: pseudocost scoring once any history exists,
/// the caller's most-fractional pick (`fallback`) before that. The score
/// is the product of the estimated objective degradations of the two
/// children (the standard product rule); variables without observations on
/// a side borrow the global average (O(1) from the history's running
/// aggregates). Fully deterministic: ties break to the lowest index via
/// strict >.
int SelectBranchVariable(const LpModel& model, const std::vector<double>& x,
                         double int_tol, const PseudocostHistory& pc,
                         int fallback) {
  if (pc.entries.size() != static_cast<size_t>(model.num_variables()) ||
      !pc.has_observations()) {
    return fallback;
  }
  double global_down =
      pc.down_n_all > 0 ? pc.down_sum_all / pc.down_n_all : 1.0;
  double global_up = pc.up_n_all > 0 ? pc.up_sum_all / pc.up_n_all : 1.0;

  int best = -1;
  double best_score = -1.0;
  constexpr double kEps = 1e-9;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
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

/// Rounds integer variables to the nearest integer within bounds; returns
/// true if the rounded point is feasible for the whole model.
bool TryRound(const LpModel& model, const Bounds& bounds,
              const std::vector<double>& x, double tol,
              std::vector<double>* rounded) {
  *rounded = x;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double r = std::round(x[j]);
    r = std::min(std::max(r, bounds[j].first), bounds[j].second);
    (*rounded)[j] = r;
  }
  return model.IsFeasible(*rounded, tol);
}

/// Diving heuristic: repeatedly fixes the most fractional integer variable
/// to its nearest integer and re-solves the LP. Package models (equality
/// COUNT rows) rarely round feasibly, but they dive very well — this is how
/// the solver finds its first incumbent without exploring the tree. The
/// caller's basis `seed` starts the chain (the first dive LP is exactly the
/// caller's LP, so it prices out immediately) and each step's basis
/// warm-starts the next. The dive's LPs run through the caller's workspace
/// with the node LPs' iteration budget `lp_limit`. Returns true with an
/// integer-feasible point in *out on success.
bool TryDive(const LpModel& model, Bounds bounds, LpSolver* lp_solver,
             int64_t lp_limit, double int_tol, const LpBasis& seed,
             const CancelToken& cancel, MilpResult* tallies,
             std::vector<double>* out) {
  constexpr int kMaxDepth = 400;
  LpBasis chain = seed;
  for (int depth = 0; depth < kMaxDepth; ++depth) {
    // The dive is a chain of up to kMaxDepth LP solves; without this check
    // a cancel issued mid-dive would only take effect at the next node pop.
    if (cancel.cancel_requested()) return false;
    auto lp = lp_solver->Solve(&bounds, &chain, lp_limit);
    if (!lp.ok()) return false;
    tallies->lp_iterations += lp->iterations;
    tallies->lp_dual_iterations += lp->dual_iterations;
    tallies->lp_refactorizations += lp->refactorizations;
    tallies->lp_basis_updates += lp->basis_updates;
    if (lp->status != LpStatus::kOptimal) return false;
    chain = std::move(lp->basis);
    int j = MostFractionalVariable(model, lp->x, int_tol);
    if (j < 0) {
      *out = lp->x;
      for (int v = 0; v < model.num_variables(); ++v) {
        if (model.variable(v).is_integer) (*out)[v] = std::round((*out)[v]);
      }
      return model.IsFeasible(*out, int_tol);
    }
    double fixed = std::round(lp->x[j]);
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

  const int64_t base_lp_limit = EffectiveIterationLimit(model, options.lp);
  // This thread's LP workspace: every node LP it solves and every dive LP
  // (the model was validated above).
  LpSolver lp_solver(model, options.lp);

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
    if (v.is_integer) {
      if (std::isfinite(lo)) lo = std::ceil(lo - options.int_tol);
      if (std::isfinite(hi)) hi = std::floor(hi + options.int_tol);
    }
    root_bounds[j] = {lo, hi};
  }

  // Root activity ranges for node presolve: the model-level cache when the
  // integer tightening above changed nothing (the common case — package
  // binaries already have integral bounds), a fresh per-row pass otherwise.
  std::vector<RowActivityBounds> root_acts = model.row_activity_bounds();
  bool bounds_match_model = true;
  for (int j = 0; j < n && bounds_match_model; ++j) {
    const Variable& v = model.variable(j);
    bounds_match_model =
        root_bounds[j].first == v.lb && root_bounds[j].second == v.ub;
  }
  if (!bounds_match_model) {
    for (int i = 0; i < model.num_constraints(); ++i) {
      root_acts[i] = RowActivityUnder(
          model, i, [&](int v) -> const auto& { return root_bounds[v]; });
    }
  }
  // Each row's largest single-term move, max |a_ij| * (ub_j - lb_j) over
  // its integer columns at the root. Bounds only narrow down the tree, so
  // this caps every term's move at every node (PropagateBoundChanges).
  std::vector<double> row_move(model.num_constraints(), 0.0);
  for (int i = 0; i < model.num_constraints(); ++i) {
    for (const LinearTerm& t : model.constraint(i).terms) {
      if (!model.variable(t.var).is_integer) continue;
      const auto& [lo, hi] = root_bounds[t.var];
      row_move[i] = std::max(row_move[i], std::abs(t.coeff) * (hi - lo));
    }
  }
  PresolveScratch presolve_scratch(n, model.num_constraints());

  // ---- Speculative parallelism (see MilpOptions::compute). The open
  // heap and every commit stay on this thread; helpers only pre-solve LPs
  // of published frontier nodes. A pure LP (no integer variables) is a
  // single solve — nothing to speculate on.
  const int num_threads = std::max(1, options.compute.threads);
  const bool parallel = num_threads > 1 && model.has_integer_variables();
  SpecPool spec;
  std::unique_ptr<ThreadPool> helper_pool;
  std::unique_ptr<TaskGroup> helper_group;
  if (parallel) {
    // Helpers read the model concurrently: each helper's LpSolver reads
    // csc() once, when it is built. `lp_solver` above already filled that
    // lazy cache on this thread, so no helper pays for (or waits on) the
    // fill. Node presolve's variable_rows() stays on this thread.
    spec.model = &model;
    spec.base_lp = options.lp;
    spec.base_lp_limit = base_lp_limit;
    spec.maximize = maximize;
    spec.gap_abs = options.gap_abs;
  }
  auto stop_helpers = [&] {
    if (helper_group == nullptr) return;
    {
      MutexLock lock(&spec.mu);
      spec.stop = true;
    }
    spec.work_cv.NotifyAll();
    helper_group->Wait();
    helper_group.reset();
    result.speculative_lps =
        spec.speculative_lps.load(std::memory_order_relaxed);
  };
  // Early returns (LP solve errors) must drain helpers before the locals
  // they reference go out of scope.
  struct StopGuard {
    decltype(stop_helpers)* fn;
    ~StopGuard() { (*fn)(); }
  } stop_guard{&stop_helpers};

  // The open heap, managed with push_heap/pop_heap (== priority_queue's
  // internals) so the serial pop order is preserved exactly while nodes
  // get the stable addresses speculation needs.
  NodeOrder node_order{maximize};
  std::vector<OpenNodePtr> open;
  auto push_open = [&](OpenNodePtr entry) {
    open.push_back(std::move(entry));
    std::push_heap(open.begin(), open.end(), node_order);
  };
  auto pop_open = [&] {
    std::pop_heap(open.begin(), open.end(), node_order);
    OpenNodePtr top = std::move(open.back());
    open.pop_back();
    return top;
  };
  // Publish the speculation frontier: the best few open nodes, taken from
  // the heap array's prefix (the shallow levels hold the best bounds) and
  // sorted best-first. Approximate by design — what helpers pre-solve only
  // affects how much of their work is useful, never the result.
  const size_t frontier_width = static_cast<size_t>(num_threads) * 4;
  std::vector<OpenNodePtr> frontier_scratch;
  auto publish_frontier = [&] {
    // Helpers spawn lazily on the first non-empty frontier: a solve that
    // ends at the root (the common SketchRefine sub-ILP case) never pays
    // for thread creation at all.
    if (helper_pool == nullptr) {
      if (open.empty()) return;
      helper_pool = std::make_unique<ThreadPool>(num_threads - 1);
      helper_group = std::make_unique<TaskGroup>(helper_pool.get());
      for (int t = 0; t < num_threads - 1; ++t) {
        helper_group->Spawn([&spec] { SpeculationLoop(&spec); });
      }
    }
    frontier_scratch.assign(
        open.begin(),
        open.begin() +
            static_cast<ptrdiff_t>(std::min(open.size(), frontier_width * 2)));
    std::sort(frontier_scratch.begin(), frontier_scratch.end(),
              [&](const OpenNodePtr& a, const OpenNodePtr& b) {
                return node_order(b, a);  // best bound first
              });
    if (frontier_scratch.size() > frontier_width) {
      frontier_scratch.resize(frontier_width);
    }
    // Wake one helper per node still up for grabs, not every helper: a
    // node LP takes about as long as a wake-up, and helpers woken for no
    // work only contend with this thread for the lock and the cores.
    int idle = 0;
    {
      MutexLock lock(&spec.mu);
      spec.frontier = frontier_scratch;
      for (const OpenNodePtr& cand : spec.frontier) {
        if (cand->spec == OpenNode::Spec::kIdle && !cand->dead) ++idle;
      }
    }
    for (int k = std::min(idle, num_threads - 1); k > 0; --k) {
      spec.work_cv.NotifyOne();
    }
  };

  {
    auto root = std::make_shared<OpenNode>();
    root->node.bounds = std::move(root_bounds);
    root->node.acts = std::move(root_acts);
    root->node.bound = maximize ? kInfinity : -kInfinity;
    if (warm != nullptr) root->node.basis = warm->root_basis;
    push_open(std::move(root));
  }

  bool have_incumbent = false;
  std::vector<double> incumbent;
  double incumbent_obj = 0.0;
  // Mirror every incumbent improvement into the helpers' prune bar.
  auto publish_incumbent = [&] {
    spec.incumbent_obj.store(incumbent_obj, std::memory_order_relaxed);
    spec.have_incumbent.store(true, std::memory_order_relaxed);
  };
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
    OpenNodePtr cur = pop_open();
    Node& node = cur->node;

    // Take the node off the speculation market. Whatever its slot says
    // now is final: kIdle means this thread solves it (nobody else will
    // start — dead nodes are never claimed), kClaimed/kDone means a helper
    // got there first and the result is (or will be) in the slot.
    OpenNode::Spec slot = OpenNode::Spec::kIdle;
    if (parallel) {
      MutexLock lock(&spec.mu);
      cur->dead = true;
      slot = cur->spec;
    }

    // Bound-based pruning against the incumbent. A helper may be solving
    // this node right now; the shared_ptr keeps it alive until that solve
    // finishes, and nobody reads the wasted result.
    if (have_incumbent && !better(node.bound, incumbent_obj)) continue;

    ++result.nodes;
    // Refresh the helpers' frontier before touching this node's LP: while
    // this thread waits for (or computes) the current relaxation, helpers
    // pre-solve the nodes most likely to be popped next.
    if (parallel) publish_frontier();
    LpSolution lp;
    if (slot != OpenNode::Spec::kIdle) {
      // Committed speculation: identical to solving here (a node LP is a
      // pure function of inputs the node has owned since push, whichever
      // workspace runs it), so every counter below stays bit-identical to
      // the serial solver's.
      MutexLock lock(&spec.mu);
      while (cur->spec != OpenNode::Spec::kDone) spec.done_cv.Wait(&spec.mu);
      PB_RETURN_IF_ERROR(cur->lp_status);
      lp = std::move(cur->lp);
    } else {
      const LpBasis* start = node.basis.empty() ? nullptr : &node.basis;
      PB_ASSIGN_OR_RETURN(
          lp, lp_solver.Solve(&node.bounds, start,
                              base_lp_limit << node.lp_limit_boost));
    }
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
        auto retry = std::make_shared<OpenNode>();
        retry->node = std::move(node);
        ++retry->node.lp_limit_boost;
        retry->node.basis = std::move(lp.basis);
        push_open(std::move(retry));
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
    // bound, normalized by the branching distance. Commits happen in the
    // serial pop order, so the history every later branch decision sees is
    // identical for any thread count.
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

    int frac_var = MostFractionalVariable(model, lp.x, options.int_tol);
    if (frac_var < 0) {
      // Integer feasible: snap and accept as incumbent.
      std::vector<double> snapped = lp.x;
      for (int j = 0; j < n; ++j) {
        if (model.variable(j).is_integer) snapped[j] = std::round(snapped[j]);
      }
      double obj = model.ObjectiveValue(snapped);
      if (!have_incumbent || better(obj, incumbent_obj)) {
        have_incumbent = true;
        incumbent = std::move(snapped);
        incumbent_obj = obj;
        publish_incumbent();
      }
      continue;
    }

    // Primal heuristics: cheap rounding at every node; one LP dive from the
    // root when rounding produced nothing (package models have equality
    // rows that defeat rounding but dive well).
    if (options.rounding_heuristic) {
      std::vector<double> rounded;
      if (TryRound(model, node.bounds, lp.x, options.int_tol, &rounded)) {
        double obj = model.ObjectiveValue(rounded);
        if (!have_incumbent || better(obj, incumbent_obj)) {
          have_incumbent = true;
          incumbent = std::move(rounded);
          incumbent_obj = obj;
          publish_incumbent();
        }
      }
      // Root identified by branch_var (result.nodes would miss a root that
      // was re-queued after an LP iteration limit).
      if (!have_incumbent && node.branch_var < 0) {
        std::vector<double> dived;
        if (TryDive(model, node.bounds, &lp_solver, base_lp_limit,
                    options.int_tol, lp.basis, options.cancel, &result,
                    &dived)) {
          have_incumbent = true;
          incumbent_obj = model.ObjectiveValue(dived);
          incumbent = std::move(dived);
          publish_incumbent();
        }
      }
    }

    // Reduced-cost tightening, after the heuristics (which may have
    // improved the incumbent) and before the children copy the node's
    // bounds, so both inherit it. It runs here on the committing thread,
    // so the tree stays identical for every thread count.
    if (have_incumbent &&
        !TightenByReducedCosts(model, lp, incumbent_obj, options.int_tol,
                               row_move, &node.bounds, &node.acts, &result,
                               &presolve_scratch)) {
      continue;  // propagation proved the node empty
    }

    // Branch: floor side and ceil side, both warm-started from this node's
    // optimal basis (they differ from it by one variable bound). Node
    // presolve then propagates that one bound through the row activity
    // ranges: children whose rows become unsatisfiable are discarded with
    // zero LP work, and implied integer fixings ride into the child's
    // bound set, which the dual re-solve picks up directly.
    int branch_var =
        SelectBranchVariable(model, lp.x, options.int_tol, pc, frac_var);
    if (branch_var < 0) branch_var = frac_var;
    double xv = lp.x[branch_var];
    double frac = xv - std::floor(xv);
    const double parent_lb = node.bounds[branch_var].first;
    const double parent_ub = node.bounds[branch_var].second;
    node.basis.clear();  // superseded by lp.basis; don't copy it into `down`
    auto down = std::make_shared<OpenNode>();
    down->node = node;
    down->node.bound = node_bound;
    down->node.basis = lp.basis;
    down->node.branch_var = branch_var;
    down->node.branch_frac = frac;
    down->node.branch_up = false;
    down->node.lp_limit_boost = 0;
    down->node.bounds[branch_var].second =
        std::min(down->node.bounds[branch_var].second, std::floor(xv));
    bool push_down = down->node.bounds[branch_var].first <=
                     down->node.bounds[branch_var].second;
    if (push_down) {
      presolve_scratch.QueueVar(branch_var, {parent_lb, parent_ub});
      if (!PropagateBoundChanges(model, row_move, options.int_tol,
                                 &down->node.bounds, &down->node.acts,
                                 &result.presolve_fixed_bounds,
                                 &presolve_scratch)) {
        ++result.presolve_infeasible_children;
        push_down = false;
      }
    }
    if (push_down) push_open(std::move(down));
    auto up = std::make_shared<OpenNode>();
    up->node = std::move(node);
    up->node.bound = node_bound;
    up->node.basis = std::move(lp.basis);
    up->node.branch_var = branch_var;
    up->node.branch_frac = frac;
    up->node.branch_up = true;
    up->node.lp_limit_boost = 0;
    up->node.bounds[branch_var].first =
        std::max(up->node.bounds[branch_var].first, std::ceil(xv));
    bool push_up =
        up->node.bounds[branch_var].first <= up->node.bounds[branch_var].second;
    if (push_up) {
      presolve_scratch.QueueVar(branch_var, {parent_lb, parent_ub});
      if (!PropagateBoundChanges(model, row_move, options.int_tol,
                                 &up->node.bounds, &up->node.acts,
                                 &result.presolve_fixed_bounds,
                                 &presolve_scratch)) {
        ++result.presolve_infeasible_children;
        push_up = false;
      }
    }
    if (push_up) push_open(std::move(up));
  }

  // Drain helpers before reading their shared tallies (and before any of
  // the locals they reference can die). Idempotent with the guard.
  stop_helpers();

  // Best remaining optimistic bound over ALL unexplored work: open nodes
  // (the heap is bound-ordered, so the front is the best) plus any
  // abandoned subtrees.
  bool work_remaining = !open.empty() || abandoned_any;
  double remaining_bound = maximize ? -kInfinity : kInfinity;
  if (!open.empty()) remaining_bound = open.front()->node.bound;
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

Result<MilpResult> SolveMilpOrFail(const LpModel& model,
                                   const MilpOptions& options) {
  PB_ASSIGN_OR_RETURN(MilpResult r, SolveMilp(model, options));
  switch (r.status) {
    case MilpStatus::kOptimal:
    case MilpStatus::kFeasible:
      return r;
    case MilpStatus::kInfeasible:
      return Status::Infeasible("no integer-feasible solution exists");
    case MilpStatus::kUnbounded:
      return Status::Unbounded("objective is unbounded");
    case MilpStatus::kNoSolution:
      return Status::ResourceExhausted(
          "solver limits reached before finding a solution");
  }
  return Status::Internal("unknown MILP status");
}

}  // namespace pb::solver
