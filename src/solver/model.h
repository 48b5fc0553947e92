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

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

/// Column-compressed (CSC) storage of the constraint matrix — the
/// solver-facing layout. Column j's entries occupy
/// [col_start[j], col_start[j+1]); row indices ascend within a column.
/// The model keeps only rows (`Constraint::terms`); ColumnsOf derives this
/// view, and each LpSolver builds it once and owns it. The revised simplex
/// walks columns through it (FTRAN, pricing the entering column), and
/// branch-and-bound's node presolve walks the rows a tightened column
/// touches in the order they are stored here.
struct CscMatrix {
  std::vector<int64_t> col_start;  ///< size num_cols() + 1
  std::vector<int32_t> row;
  std::vector<double> value;

  int num_cols() const { return static_cast<int>(col_start.size()) - 1; }
  int64_t nnz() const { return static_cast<int64_t>(row.size()); }
};

enum class ObjectiveSense { kMinimize, kMaximize };

/// A MILP: variables, rows and the objective sense, nothing derived.
/// Indices returned by AddVariable/AddConstraint are dense and stable.
/// Solvers build whatever view they walk (ColumnsOf) per solve, so a model
/// may be edited between solves and copied freely.
class LpModel {
 public:
  /// Adds a variable; returns its index.
  int AddVariable(std::string name, double lb, double ub, double objective,
                  bool is_integer);

  /// Adds a ranged constraint; returns its index. The row keeps `terms`'
  /// storage, canonicalized: variables ascend, each variable's
  /// coefficients are summed in input order starting from 0.0, and a zero
  /// sum drops the term (the doubles a `std::map<int, double>` merge with
  /// `merged[var] += coeff` gives). Terms that already ascend strictly, as
  /// every translator row does, are kept in place without a sort.
  int AddConstraint(std::string name, std::vector<LinearTerm> terms, double lo,
                    double hi);

  /// Reserves room for this many variables and constraints in all, so a
  /// builder that knows its model's size grows each array once.
  void Reserve(int num_variables, int num_constraints) {
    variables_.reserve(static_cast<size_t>(num_variables));
    constraints_.reserve(static_cast<size_t>(num_constraints));
  }

  void SetSense(ObjectiveSense sense) { sense_ = sense; }
  ObjectiveSense sense() const { return sense_; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const Variable& variable(int j) const { return variables_[j]; }
  Variable& mutable_variable(int j) { return variables_[j]; }
  const Constraint& constraint(int i) const { return constraints_[i]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Structural sanity: lb <= ub, lo <= hi, no NaN bound, valid term
  /// indices, finite row and objective coefficients. A model with no
  /// variables is valid; its only point is x = ().
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
};

/// The constraint matrix of `model` by columns (structural columns only;
/// the simplex synthesizes slack columns on the fly). Rows ascend within
/// every column.
CscMatrix ColumnsOf(const LpModel& model);

}  // namespace pb::solver

#endif  // PB_SOLVER_MODEL_H_
