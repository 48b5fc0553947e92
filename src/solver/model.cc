#include "solver/model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/strings.h"

namespace pb::solver {

int LpModel::AddVariable(std::string name, double lb, double ub,
                         double objective, bool is_integer) {
  if (name.empty()) name = "x" + std::to_string(variables_.size());
  variables_.push_back({std::move(name), lb, ub, objective, is_integer});
  return static_cast<int>(variables_.size()) - 1;
}

int LpModel::AddConstraint(std::string name, std::vector<LinearTerm> terms,
                           double lo, double hi) {
  if (name.empty()) name = "c" + std::to_string(constraints_.size());
  // Canonical form: ascending variables, duplicates summed in input order
  // starting from 0.0, zero sums dropped. Every caller in the library
  // passes strictly ascending variables already, so the sort is skipped.
  const bool ascending =
      std::adjacent_find(terms.begin(), terms.end(),
                         [](const LinearTerm& a, const LinearTerm& b) {
                           return a.var >= b.var;
                         }) == terms.end();
  if (!ascending) {
    std::stable_sort(terms.begin(), terms.end(),
                     [](const LinearTerm& a, const LinearTerm& b) {
                       return a.var < b.var;
                     });
  }
  size_t kept = 0;
  for (size_t k = 0; k < terms.size();) {
    const int var = terms[k].var;
    double coeff = 0.0;
    for (; k < terms.size() && terms[k].var == var; ++k) {
      coeff += terms[k].coeff;
    }
    if (coeff != 0.0) terms[kept++] = {var, coeff};
  }
  terms.resize(kept);
  constraints_.push_back({std::move(name), std::move(terms), lo, hi});
  return static_cast<int>(constraints_.size()) - 1;
}

CscMatrix ColumnsOf(const LpModel& model) {
  // Two row-major passes: count entries per column, then fill. Scanning
  // rows in order 0..m-1 leaves every column's row indices ascending,
  // which the sparse LU's symbolic phase relies on.
  CscMatrix a;
  const int n = model.num_variables();
  a.col_start.assign(n + 1, 0);
  for (const Constraint& c : model.constraints()) {
    for (const LinearTerm& t : c.terms) ++a.col_start[t.var + 1];
  }
  for (int j = 0; j < n; ++j) a.col_start[j + 1] += a.col_start[j];
  a.row.assign(static_cast<size_t>(a.col_start[n]), 0);
  a.value.assign(static_cast<size_t>(a.col_start[n]), 0.0);
  std::vector<int64_t> next(a.col_start.begin(), a.col_start.end() - 1);
  for (int i = 0; i < model.num_constraints(); ++i) {
    for (const LinearTerm& t : model.constraint(i).terms) {
      int64_t k = next[t.var]++;
      a.row[k] = static_cast<int32_t>(i);
      a.value[k] = t.coeff;
    }
  }
  return a;
}

Status LpModel::Validate() const {
  for (const Variable& v : variables_) {
    if (std::isnan(v.lb) || std::isnan(v.ub)) {
      return Status::InvalidArgument("variable '" + v.name + "' has NaN bound");
    }
    if (!std::isfinite(v.objective)) {
      return Status::InvalidArgument(
          "variable '" + v.name + "' has a non-finite objective coefficient");
    }
    if (v.lb > v.ub) {
      return Status::Infeasible("variable '" + v.name + "' has lb > ub");
    }
  }
  for (const Constraint& c : constraints_) {
    if (c.lo > c.hi) {
      return Status::Infeasible("constraint '" + c.name + "' has lo > hi");
    }
    for (const LinearTerm& t : c.terms) {
      if (t.var < 0 || t.var >= num_variables()) {
        return Status::InvalidArgument("constraint '" + c.name +
                                       "' references unknown variable");
      }
      if (!std::isfinite(t.coeff)) {
        return Status::InvalidArgument("constraint '" + c.name +
                                       "' has a non-finite coefficient");
      }
    }
  }
  return Status::OK();
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  double obj = 0.0;
  for (size_t j = 0; j < variables_.size() && j < x.size(); ++j) {
    obj += variables_[j].objective * x[j];
  }
  return obj;
}

double LpModel::Activity(int i, const std::vector<double>& x) const {
  double a = 0.0;
  for (const LinearTerm& t : constraints_[i].terms) a += t.coeff * x[t.var];
  return a;
}

bool LpModel::IsFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (size_t j = 0; j < variables_.size(); ++j) {
    if (x[j] < variables_[j].lb - tol || x[j] > variables_[j].ub + tol) {
      return false;
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    double a = Activity(i, x);
    if (a < constraints_[i].lo - tol || a > constraints_[i].hi + tol) {
      return false;
    }
  }
  return true;
}

uint64_t LpModel::StructuralSignature() const {
  // FNV-1a over the structural facts warm-start state depends on.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(variables_.size()));
  mix(static_cast<uint64_t>(constraints_.size()));
  mix(sense_ == ObjectiveSense::kMaximize ? 0x9e3779b9ULL : 0x85ebca6bULL);
  for (const Variable& v : variables_) mix(v.is_integer ? 2u : 1u);
  for (const Constraint& c : constraints_) {
    mix(static_cast<uint64_t>(c.terms.size()));
    for (const LinearTerm& t : c.terms) {
      mix(static_cast<uint64_t>(t.var) + 0x9e3779b97f4a7c15ULL);
    }
  }
  return h;
}

namespace {
std::string BoundToLp(double v) {
  if (v == kInfinity) return "+inf";
  if (v == -kInfinity) return "-inf";
  return FormatDouble(v);
}
}  // namespace

std::string LpModel::ToLpFormat() const {
  std::ostringstream out;
  out << (sense_ == ObjectiveSense::kMaximize ? "Maximize" : "Minimize")
      << "\n obj:";
  for (size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    if (v.objective == 0.0) continue;
    out << (v.objective >= 0 ? " + " : " - ")
        << FormatDouble(std::abs(v.objective)) << " " << v.name;
  }
  out << "\nSubject To\n";
  for (const Constraint& c : constraints_) {
    // Ranged rows are emitted as two inequalities for maximum portability.
    auto emit = [&](const char* suffix, const char* op, double rhs) {
      out << " " << c.name << suffix << ":";
      for (const LinearTerm& t : c.terms) {
        out << (t.coeff >= 0 ? " + " : " - ")
            << FormatDouble(std::abs(t.coeff)) << " "
            << variables_[t.var].name;
      }
      out << " " << op << " " << FormatDouble(rhs) << "\n";
    };
    if (c.lo == c.hi) {
      emit("", "=", c.lo);
    } else {
      if (c.lo != -kInfinity) emit("_lo", ">=", c.lo);
      if (c.hi != kInfinity) emit("_hi", "<=", c.hi);
    }
  }
  out << "Bounds\n";
  for (const Variable& v : variables_) {
    out << " " << BoundToLp(v.lb) << " <= " << v.name
        << " <= " << BoundToLp(v.ub) << "\n";
  }
  bool any_int = false;
  for (const Variable& v : variables_) {
    if (v.is_integer) {
      if (!any_int) {
        out << "General\n";
        any_int = true;
      }
      out << " " << v.name << "\n";
    }
  }
  out << "End\n";
  return out.str();
}

}  // namespace pb::solver
