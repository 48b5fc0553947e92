#include "solver/pricing.h"

#include <algorithm>
#include <cmath>

namespace pb::solver {

namespace {
// When any weight outgrows this, the reference framework has drifted far
// from the current basis and the scores stop meaning anything: start a
// fresh frame (all weights 1), as Forrest & Goldfarb prescribe.
constexpr double kFrameResetThreshold = 1e10;
}  // namespace

void Pricing::PrimalUpdate(const std::vector<int>& pattern,
                           const std::vector<double>& z, int enter, int leave,
                           double z_enter) {
  if (z_enter == 0.0) return;
  // w_j <- max(w_j, (z_j / z_e)^2 w_e); the leaving variable re-enters the
  // nonbasic pool with the entering column's transformed weight.
  const double we = primal_w_[enter];
  const double ratio2 = we / (z_enter * z_enter);
  double maxw = 0.0;
  for (int j : pattern) {
    if (j == enter) continue;
    double zj = z[j];
    if (zj == 0.0) continue;
    double cand = zj * zj * ratio2;
    if (cand > primal_w_[j]) primal_w_[j] = cand;
    maxw = std::max(maxw, primal_w_[j]);
  }
  primal_w_[leave] = std::max(ratio2, 1.0);
  if (std::max(maxw, primal_w_[leave]) > kFrameResetThreshold) {
    primal_w_.assign(primal_w_.size(), 1.0);
  }
}

void Pricing::DualUpdate(const std::vector<double>& alpha, int leave_row) {
  const double ar = alpha[leave_row];
  if (ar == 0.0) return;
  const double wr = dual_w_[leave_row];
  const double ratio2 = wr / (ar * ar);
  double maxw = 0.0;
  const int m = static_cast<int>(dual_w_.size());
  for (int i = 0; i < m; ++i) {
    if (i == leave_row) continue;
    double ai = alpha[i];
    if (ai == 0.0) continue;
    double cand = ai * ai * ratio2;
    if (cand > dual_w_[i]) dual_w_[i] = cand;
    maxw = std::max(maxw, dual_w_[i]);
  }
  dual_w_[leave_row] = std::max(ratio2, 1.0);
  if (std::max(maxw, dual_w_[leave_row]) > kFrameResetThreshold) {
    dual_w_.assign(dual_w_.size(), 1.0);
  }
}

}  // namespace pb::solver
