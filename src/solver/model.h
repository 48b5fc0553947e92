// LpModel: the constraint-optimization model PackageBuilder translates PaQL
// queries into (§7 of the paper: "a PaQL query is translated into a linear
// program and then solved using existing constraint solvers").
//
// The model is a mixed-integer linear program:
//     min/max  c'x
//     s.t.     lo_i <= a_i'x <= hi_i        (ranged rows)
//              lb_j <= x_j  <= ub_j         (variable bounds)
//              x_j integer for j in I
//
// Infinite bounds use +/- kInfinity. The builder API mirrors OSI/CBC so the
// translator code reads like it would against a production solver.

#ifndef PB_SOLVER_MODEL_H_
#define PB_SOLVER_MODEL_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace pb::solver {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One term of a linear expression: coeff * var.
struct LinearTerm {
  int var = -1;
  double coeff = 0.0;
};

/// One decision variable.
struct Variable {
  std::string name;
  double lb = 0.0;
  double ub = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
};

/// One ranged linear constraint: lo <= terms . x <= hi.
struct Constraint {
  std::string name;
  std::vector<LinearTerm> terms;
  double lo = -kInfinity;
  double hi = kInfinity;
};

/// The range a row's activity a_i'x can take over the variable box:
/// [min, max] with +-kInfinity when an unbounded variable contributes.
/// Branch-and-bound's node presolve seeds its bound propagation from the
/// model-level cache of these and maintains them incrementally per node.
struct RowActivityBounds {
  double min = 0.0;
  double max = 0.0;
};

/// One entry of the transposed sparsity pattern: variable j appears in
/// `row` with coefficient `coeff`.
struct RowTerm {
  int row = -1;
  double coeff = 0.0;
};

/// Column-compressed (CSC) storage of the constraint matrix — the
/// solver-facing layout. Column j's entries occupy
/// [col_start[j], col_start[j+1]); row indices ascend within a column.
/// The builder keeps rows (`Constraint::terms`) authoritative and derives
/// this view lazily: the revised simplex walks columns (FTRAN, pricing the
/// entering column) through here, while row-major consumers — the
/// translator's span-gather path, node presolve's activity ranges, the
/// sparse pivot-row pass — keep reading `constraints()`. One shared index
/// replaces the per-solve column copy the simplex used to build, which at
/// a million variables was the dominant allocation of every solve.
struct CscMatrix {
  std::vector<int64_t> col_start;  ///< size num_cols() + 1
  std::vector<int32_t> row;
  std::vector<double> value;

  int num_cols() const { return static_cast<int>(col_start.size()) - 1; }
  int64_t nnz() const { return static_cast<int64_t>(row.size()); }
};

enum class ObjectiveSense { kMinimize, kMaximize };

/// A MILP under construction. Indices returned by AddVariable/AddConstraint
/// are dense and stable.
///
/// Thread-safety: the builder calls (AddVariable/AddConstraint/SetSense)
/// require exclusive access, but every const accessor — including the lazy
/// caches row_activity_bounds()/variable_rows()/csc() — is safe to call
/// from any number of threads concurrently once building is done: the
/// first caller fills the cache under an internal mutex (double-checked
/// with an acquire/release flag) and later callers read immutable data.
/// One Engine serving concurrent sessions may therefore share a translated
/// model freely across solver threads.
class LpModel {
 public:
  LpModel() = default;
  /// Copies/moves transfer the authoritative data (variables, constraints,
  /// sense) and leave the destination's lazy caches cold: copying a cache
  /// mid-fill from another thread would race, and a rebuild is cheap.
  LpModel(const LpModel& other);
  LpModel& operator=(const LpModel& other);
  LpModel(LpModel&& other) noexcept;
  LpModel& operator=(LpModel&& other) noexcept;

  /// Adds a variable; returns its index.
  int AddVariable(std::string name, double lb, double ub, double objective,
                  bool is_integer);

  /// Adds a ranged constraint; returns its index. Terms with duplicate
  /// variables are merged; zero coefficients are dropped.
  int AddConstraint(std::string name, std::vector<LinearTerm> terms, double lo,
                    double hi);

  void SetSense(ObjectiveSense sense) { sense_ = sense; }
  ObjectiveSense sense() const { return sense_; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  bool has_integer_variables() const;

  const Variable& variable(int j) const { return variables_[j]; }
  Variable& mutable_variable(int j) { return variables_[j]; }
  const Constraint& constraint(int i) const { return constraints_[i]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Structural sanity: finite lb<=ub where both finite, valid term indices,
  /// at least one variable.
  Status Validate() const;

  /// Objective value of a point under this model's sense (no feasibility
  /// check).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Activity of constraint i at point x.
  double Activity(int i, const std::vector<double>& x) const;

  /// True if x satisfies all rows and bounds within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// CPLEX LP-format text (for debugging / interop with external solvers).
  std::string ToLpFormat() const;

  /// Per-row activity ranges under the model's own variable bounds,
  /// computed lazily on first call and cached until the next
  /// AddVariable/AddConstraint. Size == num_constraints(). Safe to call
  /// concurrently (see the class comment).
  const std::vector<RowActivityBounds>& row_activity_bounds() const;

  /// Transposed sparsity: variable_rows()[j] lists every (row, coeff) the
  /// variable appears in. Lazily cached alongside row_activity_bounds();
  /// safe to call concurrently.
  const std::vector<std::vector<RowTerm>>& variable_rows() const;

  /// The constraint matrix in CSC form (structural columns only; the
  /// simplex synthesizes slack columns on the fly). Lazily built on first
  /// call and cached until the next AddVariable/AddConstraint. Safe to
  /// call concurrently.
  const CscMatrix& csc() const;

  /// Order-sensitive hash of the model's structure: dimensions, sense,
  /// integrality pattern, and row sparsity (variable indices, not
  /// coefficient values). Warm-start state (bases, pseudocost history) is
  /// transferable between two solves exactly when their signatures match;
  /// SolveMilp resets any inherited MilpWarmStart whose signature differs.
  uint64_t StructuralSignature() const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  ObjectiveSense sense_ = ObjectiveSense::kMinimize;
  // Lazy structural caches (see row_activity_bounds() / variable_rows());
  // invalidated by the builder calls. Fills are serialized by cache_mu_
  // and published through the atomic flags (acquire/release), so const
  // accessors are safe from any thread. The accessors' post-publication
  // reads are the one sanctioned double-checked-locking escape from the
  // thread-safety analysis (PB_NO_THREAD_SAFETY_ANALYSIS in model.cc);
  // every other touch of these members must hold cache_mu_.
  mutable Mutex cache_mu_;
  mutable std::vector<RowActivityBounds> row_activity_cache_
      PB_GUARDED_BY(cache_mu_);
  mutable std::vector<std::vector<RowTerm>> variable_rows_cache_
      PB_GUARDED_BY(cache_mu_);
  mutable std::atomic<bool> structural_caches_valid_{false};
  mutable CscMatrix csc_cache_ PB_GUARDED_BY(cache_mu_);
  mutable std::atomic<bool> csc_valid_{false};
};

/// The [min, max] contribution of one term coeff * x over x in [lb, ub]
/// (coeff must be nonzero; infinite bounds give infinite endpoints).
inline RowActivityBounds TermActivityRange(double coeff, double lb,
                                           double ub) {
  double a = coeff * lb;
  double b = coeff * ub;
  return a <= b ? RowActivityBounds{a, b} : RowActivityBounds{b, a};
}

}  // namespace pb::solver

#endif  // PB_SOLVER_MODEL_H_
