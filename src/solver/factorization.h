// BasisFactorization: the linear-algebra layer of the revised simplex.
//
// The simplex loops (primal phase 1/2 and the dual) never touch the basis
// matrix directly; they go through this interface for the four operations
// revised simplex needs:
//
//   Refactorize(basis)      factor B from scratch (basis[i] = column basic
//                           in row i; columns >= n are row slacks, -e_i)
//   Ftran(x)                x := B^{-1} x        (entering column, RHS)
//   Btran(y)                y := B^{-T} y        (duals from basic costs)
//   BtranUnit(r, rho)       rho := row r of B^{-1} (the priced pivot row)
//   Update(r, alpha, basis) column-replace: basic in row r swapped for the
//                           column whose Ftran image is alpha
//
// Two implementations:
//
//   kDense     the original engine: an explicit m x m inverse maintained by
//              Gauss-Jordan refactorization and product-form row updates.
//              O(m^2) per solve, O(m^3) per refactorization — fine for the
//              handful of global constraints in a classic package query,
//              hopeless at scale. Kept as the reference backend tests
//              compare the sparse LU against.
//
//   kSparseLu  sparse LU in the spirit of Suhl & Suhl: a left-looking
//              Gilbert-Peierls factorization with a static minimum-count
//              column order and Markowitz-flavored threshold pivoting
//              (among numerically acceptable rows, prefer the sparsest),
//              updated between refactorizations by a product-form eta
//              file. All solves run in O(nnz(L+U) + nnz(etas)).
//
// Both backends keep their storage across refactorizations and updates:
// the factors, the eta file and the scratch arrays are cleared, never
// freed, so once a few factorizations have sized them neither allocates.
//
// Both backends are deterministic: column order, pivot choice, and
// tie-breaks depend only on the basis and the matrix, never on timing or
// addresses — the branch-and-bound determinism rule (the same model and
// options give bit-identical results) extends through this layer.

#ifndef PB_SOLVER_FACTORIZATION_H_
#define PB_SOLVER_FACTORIZATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/model.h"

namespace pb::solver {

enum class FactorizationKind : int8_t { kDense, kSparseLu };

const char* FactorizationKindToString(FactorizationKind k);

struct FactorizationStats {
  int64_t refactorizations = 0;  ///< full factorizations computed
  int64_t updates = 0;           ///< successful column-replace updates
};

class BasisFactorization {
 public:
  virtual ~BasisFactorization() = default;

  /// Factors the basis from scratch. Returns false when the basis matrix
  /// is numerically singular (no acceptable pivot); the factorization is
  /// then unusable until a successful Refactorize.
  virtual bool Refactorize(const std::vector<int>& basis) = 0;

  /// x := B^{-1} x. `x` is dense, size m.
  virtual void Ftran(std::vector<double>* x) = 0;

  /// y := B^{-T} y. `y` is dense, size m.
  virtual void Btran(std::vector<double>* y) = 0;

  /// rho := row r of B^{-1} (equivalently B^{-T} e_r) — the priced pivot
  /// row the dual ratio test and the reduced-cost update consume.
  virtual void BtranUnit(int r, std::vector<double>* rho) = 0;

  /// Replaces the basic column in row `leave_row`; `alpha` is the Ftran
  /// image B^{-1} a_enter of the incoming column, `basis` the already-
  /// updated basis (used only if a small pivot forces an internal
  /// refactorization). Returns false on a singular refactorization.
  virtual bool Update(int leave_row, const std::vector<double>& alpha,
                      const std::vector<int>& basis) = 0;

  /// True when accumulated updates have degraded the representation enough
  /// that the caller should refactorize before its periodic schedule (the
  /// sparse backend's eta file outgrowing the LU factors).
  virtual bool ShouldRefactorize() const = 0;

  virtual const char* name() const = 0;

  const FactorizationStats& stats() const { return stats_; }

 protected:
  BasisFactorization(const CscMatrix& a, int num_structural, int num_rows,
                     double pivot_tol)
      : a_(a), n_(num_structural), m_(num_rows), pivot_tol_(pivot_tol) {}

  /// Visits (row, value) of basis column j: CSC entries for structural
  /// columns, the synthesized single entry (j - n, -1) for slacks.
  template <typename Fn>
  void ForEachColumnEntry(int j, Fn&& fn) const {
    if (j < n_) {
      for (int64_t k = a_.col_start[j]; k < a_.col_start[j + 1]; ++k) {
        fn(static_cast<int>(a_.row[k]), a_.value[k]);
      }
    } else {
      fn(j - n_, -1.0);
    }
  }

  const CscMatrix& a_;  ///< structural columns (ColumnsOf); not owned
  int n_;               ///< structural column count
  int m_;               ///< row count == basis size
  double pivot_tol_;
  FactorizationStats stats_;
};

/// Factory. `a` is the model's ColumnsOf view (an LpSolver lends its own)
/// and must outlive the returned object.
std::unique_ptr<BasisFactorization> MakeFactorization(FactorizationKind kind,
                                                      const CscMatrix& a,
                                                      int num_structural,
                                                      int num_rows,
                                                      double pivot_tol);

}  // namespace pb::solver

#endif  // PB_SOLVER_FACTORIZATION_H_
