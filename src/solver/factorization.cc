#include "solver/factorization.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace pb::solver {

const char* FactorizationKindToString(FactorizationKind k) {
  switch (k) {
    case FactorizationKind::kDense:    return "dense";
    case FactorizationKind::kSparseLu: return "sparse-lu";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Dense backend: the original engine, verbatim — an explicit m x m inverse
// rebuilt by Gauss-Jordan and patched by product-form row operations.
// ---------------------------------------------------------------------------

class DenseFactorization final : public BasisFactorization {
 public:
  DenseFactorization(const CscMatrix& a, int n, int m, double pivot_tol)
      : BasisFactorization(a, n, m, pivot_tol) {}

  bool Refactorize(const std::vector<int>& basis) override {
    mat_.assign(static_cast<size_t>(m_) * m_, 0.0);  // B
    inv_.assign(static_cast<size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) inv_[i * m_ + i] = 1.0;
    for (int c = 0; c < m_; ++c) {
      ForEachColumnEntry(basis[c], [&](int row, double coeff) {
        mat_[row * m_ + c] = coeff;
      });
    }
    for (int c = 0; c < m_; ++c) {
      int piv = -1;
      double best = pivot_tol_;
      for (int r = c; r < m_; ++r) {
        if (std::abs(mat_[r * m_ + c]) > best) {
          best = std::abs(mat_[r * m_ + c]);
          piv = r;
        }
      }
      if (piv < 0) return false;
      if (piv != c) {
        for (int k = 0; k < m_; ++k) {
          std::swap(mat_[piv * m_ + k], mat_[c * m_ + k]);
          std::swap(inv_[piv * m_ + k], inv_[c * m_ + k]);
        }
      }
      double d = mat_[c * m_ + c];
      for (int k = 0; k < m_; ++k) {
        mat_[c * m_ + k] /= d;
        inv_[c * m_ + k] /= d;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == c) continue;
        double f = mat_[r * m_ + c];
        if (f == 0.0) continue;
        for (int k = 0; k < m_; ++k) {
          mat_[r * m_ + k] -= f * mat_[c * m_ + k];
          inv_[r * m_ + k] -= f * inv_[c * m_ + k];
        }
      }
    }
    std::swap(binv_, inv_);  // the old inverse's storage is next call's
    ++stats_.refactorizations;
    return true;
  }

  void Ftran(std::vector<double>* x) override {
    // binv_ * x, accumulated column-by-column so a sparse input pays only
    // for its nonzeros (entering columns have a handful).
    work_.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) {
      double v = (*x)[k];
      if (v == 0.0) continue;
      for (int i = 0; i < m_; ++i) work_[i] += binv_[i * m_ + k] * v;
    }
    std::swap(*x, work_);
  }

  void Btran(std::vector<double>* y) override {
    work_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double v = (*y)[i];
      if (v == 0.0) continue;
      const double* row = &binv_[static_cast<size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) work_[k] += v * row[k];
    }
    std::swap(*y, work_);
  }

  void BtranUnit(int r, std::vector<double>* rho) override {
    rho->assign(binv_.begin() + static_cast<size_t>(r) * m_,
                binv_.begin() + static_cast<size_t>(r + 1) * m_);
  }

  bool Update(int leave_row, const std::vector<double>& alpha,
              const std::vector<int>& basis) override {
    double piv = alpha[leave_row];
    if (std::abs(piv) < pivot_tol_) return Refactorize(basis);
    double* prow = &binv_[static_cast<size_t>(leave_row) * m_];
    for (int k = 0; k < m_; ++k) prow[k] /= piv;
    for (int i = 0; i < m_; ++i) {
      if (i == leave_row) continue;
      double f = alpha[i];
      if (f == 0.0) continue;
      double* row = &binv_[static_cast<size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) row[k] -= f * prow[k];
    }
    ++stats_.updates;
    return true;
  }

  bool ShouldRefactorize() const override { return false; }

  const char* name() const override { return "dense"; }

 private:
  std::vector<double> binv_;  // m x m row-major
  // Workspaces (persist across calls to avoid reallocation).
  std::vector<double> mat_, inv_;  // Refactorize's B and its inverse
  std::vector<double> work_;
};

// ---------------------------------------------------------------------------
// Sparse backend: left-looking LU (Gilbert-Peierls) with threshold
// Markowitz pivoting, plus a product-form eta file between
// refactorizations. Everything is O(nnz) of the factors.
//
// Index spaces: "rows" are original row indices, "steps" are elimination
// order (step k pivots row pivot_row_[k]), "positions" are basis slots
// (step k factors basis column step_pos_[k]). L columns store original row
// indices; U columns store earlier step indices.
// ---------------------------------------------------------------------------

class SparseLuFactorization final : public BasisFactorization {
 public:
  SparseLuFactorization(const CscMatrix& a, int n, int m, double pivot_tol)
      : BasisFactorization(a, n, m, pivot_tol) {}

  bool Refactorize(const std::vector<int>& basis) override {
    // Every array is cleared or overwritten, never reallocated: after the
    // first factorizations of a solve their capacity covers the next ones.
    lents_.clear();
    uents_.clear();
    lstart_.assign(m_ + 1, 0);
    ustart_.assign(m_ + 1, 0);
    udiag_.assign(m_, 0.0);
    pivot_row_.assign(m_, -1);
    row_step_.assign(m_, -1);
    step_pos_.assign(m_, -1);
    etas_.clear();
    eta_ents_.clear();
    eta_nnz_ = 0;
    lu_nnz_ = 0;
    work_.assign(m_, 0.0);
    mark_.assign(m_, 0);
    smark_.assign(m_, 0);
    solve_.resize(m_);

    // Static Markowitz surrogate: process columns sparsest-first, break
    // pivot ties toward the sparsest row. Slacks are singletons, so a
    // package basis factors with its dense-ish COUNT rows last.
    colnnz_.assign(m_, 0);
    rownnz_.assign(m_, 0);
    for (int p = 0; p < m_; ++p) {
      ForEachColumnEntry(basis[p], [&](int i, double) {
        ++colnnz_[p];
        ++rownnz_[i];
      });
    }
    order_.resize(m_);
    for (int p = 0; p < m_; ++p) order_[p] = p;
    std::sort(order_.begin(), order_.end(), [&](int x, int y) {
      if (colnnz_[x] != colnnz_[y]) return colnnz_[x] < colnnz_[y];
      return x < y;
    });

    for (int k = 0; k < m_; ++k) {
      int pos = order_[k];
      // Scatter the basis column into the dense workspace.
      pattern_.clear();
      ForEachColumnEntry(basis[pos], [&](int i, double v) {
        if (!mark_[i]) {
          mark_[i] = 1;
          pattern_.push_back(i);
        }
        work_[i] += v;
      });

      // Symbolic phase: the earlier steps whose updates reach this column,
      // found by DFS through the L columns' fill rows. Every edge goes
      // from a step to a later one, so ascending step order is a valid
      // topological order for the numeric pass.
      reach_.clear();
      for (int i : pattern_) {
        int t0 = row_step_[i];
        if (t0 < 0 || smark_[t0]) continue;
        smark_[t0] = 1;
        reach_.push_back(t0);
        dfs_.assign(1, t0);
        while (!dfs_.empty()) {
          int t = dfs_.back();
          dfs_.pop_back();
          for (const Entry& e : LCol(t)) {
            int ts = row_step_[e.idx];
            if (ts >= 0 && !smark_[ts]) {
              smark_[ts] = 1;
              reach_.push_back(ts);
              dfs_.push_back(ts);
            }
          }
        }
      }
      std::sort(reach_.begin(), reach_.end());

      // Numeric phase: record U entries and apply the multipliers.
      for (int t : reach_) {
        smark_[t] = 0;
        double d = work_[pivot_row_[t]];
        if (d == 0.0) continue;
        uents_.push_back({t, d});
        work_[pivot_row_[t]] = 0.0;
        for (const Entry& e : LCol(t)) {
          if (!mark_[e.idx]) {
            mark_[e.idx] = 1;
            pattern_.push_back(e.idx);
          }
          work_[e.idx] -= d * e.val;
        }
      }

      // Threshold pivot: the sparsest row whose magnitude is within a
      // factor of the best one (classic Markowitz-with-threshold, tau=0.1).
      double maxabs = 0.0;
      for (int i : pattern_) {
        if (row_step_[i] < 0) maxabs = std::max(maxabs, std::abs(work_[i]));
      }
      if (maxabs < pivot_tol_) {
        for (int i : pattern_) {
          mark_[i] = 0;
          work_[i] = 0.0;
        }
        return false;  // numerically singular
      }
      const double thresh = std::max(0.1 * maxabs, pivot_tol_);
      int pr = -1;
      for (int i : pattern_) {
        if (row_step_[i] >= 0 || std::abs(work_[i]) < thresh) continue;
        if (pr < 0 || rownnz_[i] < rownnz_[pr] ||
            (rownnz_[i] == rownnz_[pr] && i < pr)) {
          pr = i;
        }
      }
      double pv = work_[pr];
      pivot_row_[k] = pr;
      row_step_[pr] = k;
      step_pos_[k] = pos;
      udiag_[k] = pv;
      work_[pr] = 0.0;
      mark_[pr] = 0;
      for (int i : pattern_) {
        if (i == pr) continue;
        mark_[i] = 0;
        if (row_step_[i] < 0 && work_[i] != 0.0) {
          lents_.push_back({i, work_[i] / pv});
        }
        work_[i] = 0.0;
      }
      lstart_[k + 1] = static_cast<int64_t>(lents_.size());
      ustart_[k + 1] = static_cast<int64_t>(uents_.size());
      lu_nnz_ += lstart_[k + 1] - lstart_[k] + ustart_[k + 1] - ustart_[k] + 1;
    }
    ++stats_.refactorizations;
    return true;
  }

  void Ftran(std::vector<double>* x) override {
    std::vector<double>& b = *x;
    // Forward L solve in original row space: after step t fires, the value
    // parked at pivot_row_[t] is (L^{-1} P b)_t.
    for (int t = 0; t < m_; ++t) {
      double d = b[pivot_row_[t]];
      if (d == 0.0) continue;
      for (const Entry& e : LCol(t)) b[e.idx] -= d * e.val;
    }
    // Backward U solve, column-oriented.
    for (int k = m_ - 1; k >= 0; --k) {
      double z = b[pivot_row_[k]] / udiag_[k];
      solve_[k] = z;
      if (z != 0.0) {
        for (const Entry& e : UCol(k)) b[pivot_row_[e.idx]] -= e.val * z;
      }
    }
    // Undo the column permutation (step k factored basis position
    // step_pos_[k]), then roll the eta file forward.
    for (int k = 0; k < m_; ++k) b[step_pos_[k]] = solve_[k];
    for (const Eta& eta : etas_) {
      double d = b[eta.r] / eta.diag;
      b[eta.r] = d;
      if (d != 0.0) {
        for (const Entry& e : EtaEntries(eta)) b[e.idx] -= e.val * d;
      }
    }
  }

  void Btran(std::vector<double>* y) override {
    std::vector<double>& c = *y;
    // Eta file transposed, newest first.
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = 0.0;
      for (const Entry& e : EtaEntries(*it)) s += e.val * c[e.idx];
      c[it->r] = (c[it->r] - s) / it->diag;
    }
    // U^T forward solve in step space...
    for (int k = 0; k < m_; ++k) {
      double g = c[step_pos_[k]];
      for (const Entry& e : UCol(k)) g -= e.val * solve_[e.idx];
      solve_[k] = g / udiag_[k];
    }
    // ...then L^T backward (unit diagonal; L entries' rows map to later steps).
    for (int t = m_ - 1; t >= 0; --t) {
      double g = solve_[t];
      for (const Entry& e : LCol(t)) g -= e.val * solve_[row_step_[e.idx]];
      solve_[t] = g;
    }
    for (int t = 0; t < m_; ++t) c[pivot_row_[t]] = solve_[t];
  }

  void BtranUnit(int r, std::vector<double>* rho) override {
    rho->assign(m_, 0.0);
    (*rho)[r] = 1.0;
    Btran(rho);
  }

  bool Update(int leave_row, const std::vector<double>& alpha,
              const std::vector<int>& basis) override {
    double piv = alpha[leave_row];
    if (std::abs(piv) < pivot_tol_) return Refactorize(basis);
    const size_t begin = eta_ents_.size();
    for (int i = 0; i < m_; ++i) {
      if (i != leave_row && alpha[i] != 0.0) eta_ents_.push_back({i, alpha[i]});
    }
    etas_.push_back({leave_row, piv, begin, eta_ents_.size()});
    eta_nnz_ += static_cast<int64_t>(eta_ents_.size() - begin) + 1;
    ++stats_.updates;
    return true;
  }

  bool ShouldRefactorize() const override {
    // Once the eta file outweighs the factors, solves cost more than a
    // fresh factorization would save.
    return !etas_.empty() && eta_nnz_ > 2 * (lu_nnz_ + m_);
  }

  const char* name() const override { return "sparse-lu"; }

 private:
  struct Entry {
    int idx;     // L: original row; U: earlier step
    double val;
  };
  struct Eta {
    int r = -1;         // replaced basis position
    double diag = 0.0;  // alpha[r]
    size_t begin = 0;   // alpha's other nonzeros (position space) are
    size_t end = 0;     // eta_ents_[begin, end)
  };

  std::span<const Entry> LCol(int t) const {
    return {lents_.data() + lstart_[t], lents_.data() + lstart_[t + 1]};
  }
  std::span<const Entry> UCol(int k) const {
    return {uents_.data() + ustart_[k], uents_.data() + ustart_[k + 1]};
  }
  std::span<const Entry> EtaEntries(const Eta& eta) const {
    return {eta_ents_.data() + eta.begin, eta_ents_.data() + eta.end};
  }

  // L and U by step, each in one array: step k's below-diagonal part is
  // lents_[lstart_[k], lstart_[k+1]), its above-diagonal part likewise in
  // uents_. Steps are factored in order, so each array only grows.
  std::vector<Entry> lents_, uents_;
  std::vector<int64_t> lstart_, ustart_;
  std::vector<double> udiag_;
  std::vector<int> pivot_row_;  // step -> original row
  std::vector<int> row_step_;   // original row -> step (-1 = unpivoted)
  std::vector<int> step_pos_;   // step -> basis position
  std::vector<Eta> etas_;
  std::vector<Entry> eta_ents_;
  int64_t lu_nnz_ = 0;
  int64_t eta_nnz_ = 0;

  // Workspaces (persist across calls to avoid reallocation).
  std::vector<double> work_;
  std::vector<double> solve_;
  std::vector<int> pattern_;
  std::vector<int> reach_;
  std::vector<int> dfs_;
  std::vector<int> colnnz_, rownnz_, order_;  // Refactorize's column order
  std::vector<unsigned char> mark_;   // row in pattern_
  std::vector<unsigned char> smark_;  // step in reach_
};

}  // namespace

std::unique_ptr<BasisFactorization> MakeFactorization(FactorizationKind kind,
                                                      const CscMatrix& a,
                                                      int num_structural,
                                                      int num_rows,
                                                      double pivot_tol) {
  switch (kind) {
    case FactorizationKind::kDense:
      return std::make_unique<DenseFactorization>(a, num_structural, num_rows,
                                                  pivot_tol);
    case FactorizationKind::kSparseLu:
      return std::make_unique<SparseLuFactorization>(a, num_structural,
                                                     num_rows, pivot_tol);
  }
  return nullptr;
}

}  // namespace pb::solver
