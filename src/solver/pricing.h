// Pricing: the column/row-selection layer shared by the primal phase-1 and
// phase-2 loops and by the dual simplex's leaving-row choice.
//
// Devex: score = d^2 / w_j with reference-framework weights updated on
// every pivot (Forrest & Goldfarb). Weights approximate the steepest-edge
// norms ||B^{-1} a_j||^2, which on long thin package LPs stops the
// classic most-negative-reduced-cost rule's hallmark stall: entering
// columns picked on raw reduced cost but with huge pivot rows that barely
// move the objective. The dual loop runs the analogous row-weight scheme
// (score = violation^2 / w_i). Weight explosion resets the reference
// frame.
//
// Bland's anti-cycling rule is NOT here: the simplex loops fall back to
// lowest-eligible-index selection themselves once the iteration count
// crosses the stall threshold, bypassing scores entirely.

#ifndef PB_SOLVER_PRICING_H_
#define PB_SOLVER_PRICING_H_

#include <vector>

namespace pb::solver {

class Pricing {
 public:
  /// Starts a fresh primal reference frame over `total` columns
  /// (structural + slack). Call on phase entry.
  void ResetPrimal(int total) { primal_w_.assign(total, 1.0); }

  /// Starts a fresh dual reference frame over `m` rows.
  void ResetDual(int m) { dual_w_.assign(m, 1.0); }

  /// Score of entering candidate j with reduced cost d (larger is better;
  /// all scores are comparable across statuses/directions).
  double PrimalScore(int j, double d) const { return d * d / primal_w_[j]; }

  /// Score of leaving-row candidate i with bound violation v.
  double DualScore(int i, double v) const { return v * v / dual_w_[i]; }

  /// Devex weight update after a primal pivot. `pattern`/`z` hold the
  /// priced pivot row (z_j = rho . a_j over nonbasic columns), `enter` the
  /// entering column, `leave` the leaving variable, `z_enter` the pivot
  /// element.
  void PrimalUpdate(const std::vector<int>& pattern,
                    const std::vector<double>& z, int enter, int leave,
                    double z_enter);

  /// Devex weight update after a dual pivot with Ftran column `alpha` and
  /// pivot row `leave_row`.
  void DualUpdate(const std::vector<double>& alpha, int leave_row);

 private:
  std::vector<double> primal_w_;  // per column
  std::vector<double> dual_w_;    // per row
};

}  // namespace pb::solver

#endif  // PB_SOLVER_PRICING_H_
