#include "core/brute_force.h"

#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "db/ops.h"

namespace pb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFeasTol = 1e-9;

/// DFS state for the exhaustive enumeration.
class Enumerator {
 public:
  Enumerator(const paql::AnalyzedQuery& aq, const BruteForceOptions& options,
             std::vector<size_t> candidates, CardinalityBounds bounds)
      : aq_(aq),
        opts_(options),
        candidates_(std::move(candidates)),
        bounds_(bounds),
        n_(candidates_.size()) {}

  Status Prepare() {
    // Per-candidate combined weight for each linear constraint, plus suffix
    // min/max achievable contributions for interval bounding.
    const size_t rows = aq_.linear_constraints.size();
    std::vector<std::vector<double>> agg_w(aq_.aggs.size());
    for (size_t a = 0; a < aq_.aggs.size(); ++a) {
      PB_ASSIGN_OR_RETURN(
          agg_w[a], ComputeAggWeights(aq_.aggs[a], *aq_.table, candidates_));
    }
    w_.assign(rows, std::vector<double>(n_, 0.0));
    suffix_max_.assign(rows, std::vector<double>(n_ + 1, 0.0));
    suffix_min_.assign(rows, std::vector<double>(n_ + 1, 0.0));
    lo_.resize(rows);
    hi_.resize(rows);
    const double k = static_cast<double>(aq_.max_multiplicity);
    for (size_t r = 0; r < rows; ++r) {
      const paql::LinearConstraint& lc = aq_.linear_constraints[r];
      lo_[r] = lc.lo;
      hi_[r] = lc.hi;
      for (size_t i = 0; i < n_; ++i) {
        for (const paql::LinearAggTerm& t : lc.terms) {
          w_[r][i] += t.coeff * agg_w[t.agg_index][i];
        }
      }
      for (size_t i = n_; i-- > 0;) {
        suffix_max_[r][i] =
            suffix_max_[r][i + 1] + std::max(0.0, w_[r][i]) * k;
        suffix_min_[r][i] =
            suffix_min_[r][i + 1] + std::min(0.0, w_[r][i]) * k;
      }
    }
    sums_.assign(rows, 0.0);

    // Exact validity needs the original expression whenever the linear rows
    // do not capture the whole SUCH THAT clause.
    exact_check_needed_ = !aq_.ilp_translatable ||
                          !aq_.extreme_constraints.empty() ||
                          aq_.requires_nonempty;
    // Linear objective fast path.
    if (aq_.has_objective && aq_.objective_linear) {
      obj_w_.assign(n_, 0.0);
      for (const paql::LinearAggTerm& t : aq_.objective_terms) {
        for (size_t i = 0; i < n_; ++i) {
          obj_w_[i] += t.coeff * agg_w[t.agg_index][i];
        }
      }
    }
    return Status::OK();
  }

  Result<BruteForceResult> Run() {
    BruteForceResult out;
    out.bounds = bounds_;
    if (bounds_.infeasible) {
      out.exhausted = true;
      return out;
    }
    result_ = &out;
    best_obj_ = aq_.maximize ? -kInf : kInf;
    PB_RETURN_IF_ERROR(Dfs(0));
    out.found = found_;
    if (found_) {
      out.best = best_;
      out.best_objective = best_obj_valid_ ? best_obj_ : 0.0;
    }
    // "Exhausted" means the result is definitive: the tree was fully
    // explored, or a feasibility query was answered by its first valid
    // package. Budget stops and full collect buffers are not definitive.
    out.exhausted = stop_reason_ == StopReason::kNone ||
                    stop_reason_ == StopReason::kAnswered;
    return out;
  }

 private:
  int64_t CardLo() const {
    return opts_.use_cardinality_pruning ? bounds_.lo : 0;
  }
  int64_t CardHi() const {
    return opts_.use_cardinality_pruning
               ? bounds_.hi
               : static_cast<int64_t>(n_) * aq_.max_multiplicity;
  }

  bool stopped() const { return stop_reason_ != StopReason::kNone; }

  Status Dfs(size_t idx) {
    if (stopped()) return Status::OK();
    ++result_->nodes;
    if ((result_->nodes & 1023) == 0) {
      if (result_->nodes > opts_.max_nodes ||
          timer_.ElapsedSeconds() > opts_.time_limit_s) {
        stop_reason_ = StopReason::kBudget;
        return Status::OK();
      }
    }
    // Cardinality pruning (§4.1): can the count still reach [l, u]?
    int64_t remaining_max =
        static_cast<int64_t>(n_ - idx) * aq_.max_multiplicity;
    if (count_ > CardHi()) return Status::OK();
    if (count_ + remaining_max < CardLo()) return Status::OK();
    // Linear interval bounding: each row must still be able to land in
    // [lo, hi] given the best/worst remaining contributions.
    if (opts_.use_linear_bounding) {
      for (size_t r = 0; r < sums_.size(); ++r) {
        double reach_max = sums_[r] + suffix_max_[r][idx];
        double reach_min = sums_[r] + suffix_min_[r][idx];
        if (reach_max < lo_[r] - kFeasTol || reach_min > hi_[r] + kFeasTol) {
          return Status::OK();
        }
      }
    }
    if (idx == n_) {
      return CheckLeaf();
    }
    // Choose multiplicity 0..k for candidate idx. Trying 0 first biases the
    // search toward small packages (cheap leaves early).
    for (int64_t m = 0; m <= aq_.max_multiplicity; ++m) {
      if (m > 0) {
        Push(idx, 1);
      }
      PB_RETURN_IF_ERROR(Dfs(idx + 1));
      if (stopped()) break;
    }
    PopAll(idx);
    return Status::OK();
  }

  void Push(size_t idx, int64_t m) {
    stack_mult_.resize(std::max(stack_mult_.size(), idx + 1), 0);
    stack_mult_[idx] += m;
    count_ += m;
    for (size_t r = 0; r < sums_.size(); ++r) {
      sums_[r] += w_[r][idx] * static_cast<double>(m);
    }
  }

  void PopAll(size_t idx) {
    if (idx >= stack_mult_.size() || stack_mult_[idx] == 0) return;
    int64_t m = stack_mult_[idx];
    stack_mult_[idx] = 0;
    count_ -= m;
    for (size_t r = 0; r < sums_.size(); ++r) {
      sums_[r] -= w_[r][idx] * static_cast<double>(m);
    }
  }

  Status CheckLeaf() {
    if (count_ < CardLo() || count_ > CardHi()) return Status::OK();
    ++result_->leaves_checked;
    // Linear rows first (cheap, already maintained incrementally).
    for (size_t r = 0; r < sums_.size(); ++r) {
      if (sums_[r] < lo_[r] - kFeasTol || sums_[r] > hi_[r] + kFeasTol) {
        return Status::OK();
      }
    }
    Package pkg = CurrentPackage();
    if (exact_check_needed_) {
      PB_ASSIGN_OR_RETURN(bool ok, SatisfiesGlobalConstraints(aq_, pkg));
      if (!ok) return Status::OK();
    }
    // Valid package.
    if (opts_.collect_limit > 0 &&
        result_->all.size() < opts_.collect_limit) {
      result_->all.push_back(pkg);
      if (result_->all.size() >= opts_.collect_limit) {
        stop_reason_ = StopReason::kCollectFull;
      }
    }
    double obj = 0.0;
    if (aq_.has_objective) {
      if (!obj_w_.empty()) {
        for (size_t i = 0; i < stack_mult_.size(); ++i) {
          obj += obj_w_[i] * static_cast<double>(stack_mult_[i]);
        }
      } else {
        PB_ASSIGN_OR_RETURN(obj, PackageObjective(aq_, pkg));
      }
    }
    bool better = !found_ || (aq_.has_objective &&
                              (aq_.maximize ? obj > best_obj_
                                            : obj < best_obj_));
    if (better) {
      found_ = true;
      best_ = std::move(pkg);
      best_obj_ = obj;
      best_obj_valid_ = true;
    }
    // Without an objective and without collection, the first valid package
    // answers the query definitively.
    if (!aq_.has_objective && opts_.collect_limit == 0) {
      stop_reason_ = StopReason::kAnswered;
    }
    return Status::OK();
  }

  Package CurrentPackage() const {
    Package pkg;
    for (size_t i = 0; i < stack_mult_.size(); ++i) {
      if (stack_mult_[i] > 0) pkg.Add(candidates_[i], stack_mult_[i]);
    }
    return pkg;
  }

  const paql::AnalyzedQuery& aq_;
  const BruteForceOptions& opts_;
  std::vector<size_t> candidates_;
  CardinalityBounds bounds_;
  size_t n_;

  std::vector<std::vector<double>> w_;           // [row][candidate]
  std::vector<std::vector<double>> suffix_max_;  // [row][idx]
  std::vector<std::vector<double>> suffix_min_;
  std::vector<double> lo_, hi_, sums_, obj_w_;
  std::vector<int64_t> stack_mult_;
  int64_t count_ = 0;
  bool exact_check_needed_ = false;

  enum class StopReason { kNone, kAnswered, kCollectFull, kBudget };

  BruteForceResult* result_ = nullptr;
  bool found_ = false;
  StopReason stop_reason_ = StopReason::kNone;
  Package best_;
  double best_obj_ = 0.0;
  bool best_obj_valid_ = false;
  Stopwatch timer_;
};

}  // namespace

Result<BruteForceResult> BruteForceSearch(const paql::AnalyzedQuery& aq,
                                          const BruteForceOptions& options) {
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  PB_ASSIGN_OR_RETURN(CardinalityBounds bounds,
                      DeriveCardinalityBounds(aq, candidates));
  return BruteForceSearch(aq, std::move(candidates), bounds, options);
}

Result<BruteForceResult> BruteForceSearch(const paql::AnalyzedQuery& aq,
                                          std::vector<size_t> candidates,
                                          const CardinalityBounds& bounds,
                                          const BruteForceOptions& options) {
  Enumerator e(aq, options, std::move(candidates), bounds);
  PB_RETURN_IF_ERROR(e.Prepare());
  return e.Run();
}

}  // namespace pb::core
