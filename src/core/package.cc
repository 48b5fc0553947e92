#include "core/package.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "db/ops.h"

namespace pb::core {

int64_t Package::TotalCount() const {
  int64_t total = 0;
  for (int64_t m : multiplicity) total += m;
  return total;
}

void Package::Add(size_t row, int64_t count) {
  PB_DCHECK(count >= 1);
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  size_t pos = static_cast<size_t>(it - rows.begin());
  if (it != rows.end() && *it == row) {
    multiplicity[pos] += count;
    return;
  }
  rows.insert(it, row);
  multiplicity.insert(multiplicity.begin() + pos, count);
}

int64_t Package::Remove(size_t row, int64_t count) {
  PB_DCHECK(count >= 1);
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) return 0;
  size_t pos = static_cast<size_t>(it - rows.begin());
  int64_t removed = std::min(count, multiplicity[pos]);
  multiplicity[pos] -= removed;
  if (multiplicity[pos] == 0) {
    rows.erase(it);
    multiplicity.erase(multiplicity.begin() + pos);
  }
  return removed;
}

int64_t Package::MultiplicityOf(size_t row) const {
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) return 0;
  return multiplicity[static_cast<size_t>(it - rows.begin())];
}

void Package::Normalize() {
  std::vector<std::pair<size_t, int64_t>> pairs;
  pairs.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (multiplicity[i] > 0) pairs.emplace_back(rows[i], multiplicity[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  rows.clear();
  multiplicity.clear();
  for (auto& [r, m] : pairs) {
    if (!rows.empty() && rows.back() == r) {
      multiplicity.back() += m;
    } else {
      rows.push_back(r);
      multiplicity.push_back(m);
    }
  }
}

std::string Package::Fingerprint() const {
  std::string out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(rows[i]) + "x" + std::to_string(multiplicity[i]);
  }
  return out;
}

Result<db::Value> EvalPackageAgg(const paql::AggCall& agg,
                                 const db::Table& table, const Package& pkg) {
  PB_ASSIGN_OR_RETURN(
      db::Value v, db::AggregateRows(table, agg.func, agg.arg, pkg.rows,
                                     pkg.multiplicity));
  // Package semantics: SUM over the empty package is 0, not NULL.
  if (agg.func == db::AggFunc::kSum && v.is_null()) {
    return db::Value::Int(0);
  }
  return v;
}

namespace {

Result<db::Value> CompareValues(db::BinaryOp op, const db::Value& l,
                                const db::Value& r) {
  if (l.is_null() || r.is_null()) return db::Value::Null();
  int c = l.Compare(r);
  bool result;
  switch (op) {
    case db::BinaryOp::kEq: result = (c == 0); break;
    case db::BinaryOp::kNe: result = (c != 0); break;
    case db::BinaryOp::kLt: result = (c < 0); break;
    case db::BinaryOp::kLe: result = (c <= 0); break;
    case db::BinaryOp::kGt: result = (c > 0); break;
    case db::BinaryOp::kGe: result = (c >= 0); break;
    default:
      return Status::Internal("not a comparison");
  }
  return db::Value::Bool(result);
}

Result<db::Value> ArithValues(db::BinaryOp op, const db::Value& l,
                              const db::Value& r) {
  if (l.is_null() || r.is_null()) return db::Value::Null();
  PB_ASSIGN_OR_RETURN(double a, l.ToDouble());
  PB_ASSIGN_OR_RETURN(double b, r.ToDouble());
  switch (op) {
    case db::BinaryOp::kAdd: return db::Value::Double(a + b);
    case db::BinaryOp::kSub: return db::Value::Double(a - b);
    case db::BinaryOp::kMul: return db::Value::Double(a * b);
    case db::BinaryOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return db::Value::Double(a / b);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

}  // namespace

Result<db::Value> EvalGExpr(const paql::GExpr& e, const db::Table& table,
                            const Package& pkg) {
  using paql::GExprKind;
  switch (e.kind) {
    case GExprKind::kLiteral:
      return e.literal;
    case GExprKind::kAgg:
      return EvalPackageAgg(e.agg, table, pkg);
    case GExprKind::kArith: {
      PB_ASSIGN_OR_RETURN(db::Value l, EvalGExpr(*e.children[0], table, pkg));
      PB_ASSIGN_OR_RETURN(db::Value r, EvalGExpr(*e.children[1], table, pkg));
      return ArithValues(e.op, l, r);
    }
    case GExprKind::kCompare: {
      PB_ASSIGN_OR_RETURN(db::Value l, EvalGExpr(*e.children[0], table, pkg));
      PB_ASSIGN_OR_RETURN(db::Value r, EvalGExpr(*e.children[1], table, pkg));
      return CompareValues(e.op, l, r);
    }
    case GExprKind::kBetween: {
      PB_ASSIGN_OR_RETURN(db::Value v, EvalGExpr(*e.children[0], table, pkg));
      PB_ASSIGN_OR_RETURN(db::Value lo, EvalGExpr(*e.children[1], table, pkg));
      PB_ASSIGN_OR_RETURN(db::Value hi, EvalGExpr(*e.children[2], table, pkg));
      if (v.is_null() || lo.is_null() || hi.is_null()) {
        return db::Value::Null();
      }
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return db::Value::Bool(e.negated ? !in : in);
    }
    case GExprKind::kBool: {
      PB_ASSIGN_OR_RETURN(db::Value l, EvalGExpr(*e.children[0], table, pkg));
      PB_ASSIGN_OR_RETURN(db::Value r, EvalGExpr(*e.children[1], table, pkg));
      // Kleene logic: encode {false=0, null=1, true=2}.
      auto rank = [](const db::Value& v) -> Result<int> {
        if (v.is_null()) return 1;
        if (v.is_bool()) return v.AsBool() ? 2 : 0;
        return Status::TypeError("logical operand must be BOOL");
      };
      PB_ASSIGN_OR_RETURN(int a, rank(l));
      PB_ASSIGN_OR_RETURN(int b, rank(r));
      int res = e.op == db::BinaryOp::kAnd ? std::min(a, b) : std::max(a, b);
      if (res == 1) return db::Value::Null();
      return db::Value::Bool(res == 2);
    }
    case GExprKind::kNot: {
      PB_ASSIGN_OR_RETURN(db::Value v, EvalGExpr(*e.children[0], table, pkg));
      if (v.is_null()) return db::Value::Null();
      if (!v.is_bool()) return Status::TypeError("NOT requires BOOL");
      return db::Value::Bool(!v.AsBool());
    }
  }
  return Status::Internal("unknown GExpr kind");
}

Result<bool> SatisfiesGlobalConstraints(const paql::AnalyzedQuery& aq,
                                        const Package& pkg) {
  if (!aq.query.such_that) return true;
  PB_ASSIGN_OR_RETURN(db::Value v,
                      EvalGExpr(*aq.query.such_that, *aq.table, pkg));
  return v.is_bool() && v.AsBool();
}

Result<bool> SatisfiesBaseConstraints(const paql::AnalyzedQuery& aq,
                                      const Package& pkg) {
  if (!aq.query.where) return true;
  db::ExprPtr bound = aq.query.where->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(aq.table->schema()));
  for (size_t row : pkg.rows) {
    if (row >= aq.table->num_rows()) {
      return Status::OutOfRange("package references row " +
                                std::to_string(row) + " beyond table size");
    }
    PB_ASSIGN_OR_RETURN(bool ok, bound->Matches(*aq.table, row));
    if (!ok) return false;
  }
  return true;
}

Result<bool> IsValidPackage(const paql::AnalyzedQuery& aq,
                            const Package& pkg) {
  for (size_t row : pkg.rows) {
    if (row >= aq.table->num_rows()) {
      return Status::OutOfRange("package references row " +
                                std::to_string(row) + " beyond table size");
    }
  }
  for (int64_t m : pkg.multiplicity) {
    if (m < 1 || m > aq.max_multiplicity) return false;
  }
  PB_ASSIGN_OR_RETURN(bool base, SatisfiesBaseConstraints(aq, pkg));
  if (!base) return false;
  return SatisfiesGlobalConstraints(aq, pkg);
}

Result<double> PackageObjective(const paql::AnalyzedQuery& aq,
                                const Package& pkg) {
  if (!aq.query.objective) return 0.0;
  PB_ASSIGN_OR_RETURN(db::Value v,
                      EvalGExpr(*aq.query.objective->expr, *aq.table, pkg));
  if (v.is_null()) {
    // Mirrors aggregate semantics: an undefined objective (e.g. AVG of an
    // empty package) is worst-possible rather than an error.
    return aq.maximize ? -std::numeric_limits<double>::infinity()
                       : std::numeric_limits<double>::infinity();
  }
  return v.ToDouble();
}

db::Table MaterializePackage(const db::Table& table, const Package& pkg,
                             const std::string& name) {
  db::Table out(name, table.schema());
  for (size_t i = 0; i < pkg.rows.size(); ++i) {
    for (int64_t m = 0; m < pkg.multiplicity[i]; ++m) {
      out.AppendRowFrom(table, pkg.rows[i]);
    }
  }
  return out;
}

}  // namespace pb::core
