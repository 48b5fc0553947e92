#include "db/expr.h"

#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "db/table.h"

namespace pb::db {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq:  return "=";
    case BinaryOp::kNe:  return "<>";
    case BinaryOp::kLt:  return "<";
    case BinaryOp::kLe:  return "<=";
    case BinaryOp::kGt:  return ">";
    case BinaryOp::kGe:  return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr:  return "OR";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
    case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmeticOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
    case BinaryOp::kDiv: case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

bool IsLogicalOp(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

namespace {

/// Strips an optional qualifier: "R.calories" -> "calories".
std::string UnqualifiedName(const std::string& name) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos) return name;
  return name.substr(dot + 1);
}

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Disallow comparing string to number (likely a query bug).
  if (l.is_numeric() != r.is_numeric() &&
      !(l.is_bool() && r.is_bool())) {
    if (l.type() != r.type()) {
      return Status::TypeError(std::string("cannot compare ") +
                               ValueTypeToString(l.type()) + " with " +
                               ValueTypeToString(r.type()));
    }
  }
  int c = l.Compare(r);
  bool result = false;
  switch (op) {
    case BinaryOp::kEq: result = (c == 0); break;
    case BinaryOp::kNe: result = (c != 0); break;
    case BinaryOp::kLt: result = (c < 0); break;
    case BinaryOp::kLe: result = (c <= 0); break;
    case BinaryOp::kGt: result = (c > 0); break;
    case BinaryOp::kGe: result = (c >= 0); break;
    default: return Status::Internal("not a comparison op");
  }
  return Value::Bool(result);
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::TypeError(std::string("arithmetic requires numeric "
                                         "operands, got ") +
                             ValueTypeToString(l.type()) + " and " +
                             ValueTypeToString(r.type()));
  }
  // Integer arithmetic stays integral (except division by zero handling).
  if (l.is_int() && r.is_int()) {
    int64_t a = l.AsInt(), b = r.AsInt();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int(a + b);
      case BinaryOp::kSub: return Value::Int(a - b);
      case BinaryOp::kMul: return Value::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        // SQL-style: integer division of integers.
        return Value::Int(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value::Int(a % b);
      default: break;
    }
  }
  double a = l.is_int() ? static_cast<double>(l.AsInt()) : l.AsDoubleExact();
  double b = r.is_int() ? static_cast<double>(r.AsInt()) : r.AsDoubleExact();
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(a + b);
    case BinaryOp::kSub: return Value::Double(a - b);
    case BinaryOp::kMul: return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      return Value::Double(std::fmod(a, b));
    default:
      return Status::Internal("not an arithmetic op");
  }
}

/// Kleene AND/OR over {false, null, true}.
Result<Value> EvalLogical(BinaryOp op, const Value& l, const Value& r) {
  auto truth = [](const Value& v) -> Result<int> {  // 0=false, 1=null, 2=true
    if (v.is_null()) return 1;
    if (v.is_bool()) return v.AsBool() ? 2 : 0;
    return Status::TypeError(std::string("logical operand must be BOOL, got ") +
                             ValueTypeToString(v.type()));
  };
  PB_ASSIGN_OR_RETURN(int a, truth(l));
  PB_ASSIGN_OR_RETURN(int b, truth(r));
  int result;
  if (op == BinaryOp::kAnd) {
    result = std::min(a, b);
  } else {
    result = std::max(a, b);
  }
  if (result == 1) return Value::Null();
  return Value::Bool(result == 2);
}

}  // namespace

Status Expr::Bind(const Schema& schema) {
  if (kind == ExprKind::kColumnRef) {
    auto idx = schema.IndexOf(column_name);
    if (!idx.ok()) {
      // Retry with the qualifier stripped ("R.calories" -> "calories").
      idx = schema.IndexOf(UnqualifiedName(column_name));
    }
    if (!idx.ok()) return idx.status();
    column_index = static_cast<int>(*idx);
  }
  for (auto& c : children) {
    PB_RETURN_IF_ERROR(c->Bind(schema));
  }
  return Status::OK();
}

namespace {

/// Row accessor over a materialized Tuple.
struct TupleRow {
  const Tuple* tuple;
  Result<Value> Get(int i) const {
    if (static_cast<size_t>(i) >= tuple->size()) {
      return Status::OutOfRange("column index out of range");
    }
    return (*tuple)[i];
  }
};

/// Row accessor over columnar storage: one cell materializes at a time.
struct TableRow {
  const Table* table;
  size_t row;
  Result<Value> Get(int i) const {
    if (static_cast<size_t>(i) >= table->schema().num_columns()) {
      return Status::OutOfRange("column index out of range");
    }
    return table->column_data(i).ReadValue(row);
  }
};

}  // namespace

template <typename RowT>
Result<Value> Expr::EvalImpl(const RowT& row) const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal;
    case ExprKind::kColumnRef: {
      if (column_index < 0) {
        return Status::Internal("unbound column '" + column_name + "'");
      }
      return row.Get(column_index);
    }
    case ExprKind::kUnary: {
      PB_ASSIGN_OR_RETURN(Value v, children[0]->EvalImpl(row));
      if (v.is_null()) return Value::Null();
      if (unary_op == UnaryOp::kNeg) {
        if (v.is_int()) return Value::Int(-v.AsInt());
        if (v.is_double()) return Value::Double(-v.AsDoubleExact());
        return Status::TypeError("unary minus requires a numeric operand");
      }
      // NOT
      if (!v.is_bool()) {
        return Status::TypeError("NOT requires a BOOL operand");
      }
      return Value::Bool(!v.AsBool());
    }
    case ExprKind::kBinary: {
      // Short-circuit-free evaluation is fine: expressions are pure.
      PB_ASSIGN_OR_RETURN(Value l, children[0]->EvalImpl(row));
      PB_ASSIGN_OR_RETURN(Value r, children[1]->EvalImpl(row));
      if (IsComparisonOp(binary_op)) return EvalComparison(binary_op, l, r);
      if (IsArithmeticOp(binary_op)) return EvalArithmetic(binary_op, l, r);
      return EvalLogical(binary_op, l, r);
    }
    case ExprKind::kBetween: {
      PB_ASSIGN_OR_RETURN(Value v, children[0]->EvalImpl(row));
      PB_ASSIGN_OR_RETURN(Value lo, children[1]->EvalImpl(row));
      PB_ASSIGN_OR_RETURN(Value hi, children[2]->EvalImpl(row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value::Bool(negated ? !in : in);
    }
    case ExprKind::kIn: {
      PB_ASSIGN_OR_RETURN(Value v, children[0]->EvalImpl(row));
      if (v.is_null()) return Value::Null();
      bool found = false;
      for (const Value& item : in_list) {
        if (!item.is_null() && v.Compare(item) == 0) {
          found = true;
          break;
        }
      }
      return Value::Bool(negated ? !found : found);
    }
    case ExprKind::kIsNull: {
      PB_ASSIGN_OR_RETURN(Value v, children[0]->EvalImpl(row));
      bool isnull = v.is_null();
      return Value::Bool(negated ? !isnull : isnull);
    }
    case ExprKind::kLike: {
      PB_ASSIGN_OR_RETURN(Value v, children[0]->EvalImpl(row));
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) {
        return Status::TypeError("LIKE requires a STRING operand");
      }
      bool m = LikeMatch(v.AsString(), like_pattern);
      return Value::Bool(negated ? !m : m);
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Value> Expr::Eval(const Tuple& tuple) const {
  return EvalImpl(TupleRow{&tuple});
}

Result<Value> Expr::Eval(const Table& table, size_t row) const {
  return EvalImpl(TableRow{&table, row});
}

namespace {

Result<bool> ToMatch(Result<Value> v) {
  PB_RETURN_IF_ERROR(v.status());
  if (v->is_null()) return false;
  if (!v->is_bool()) {
    return Status::TypeError("predicate must evaluate to BOOL, got " +
                             std::string(ValueTypeToString(v->type())));
  }
  return v->AsBool();
}

}  // namespace

Result<bool> Expr::Matches(const Tuple& tuple) const {
  return ToMatch(Eval(tuple));
}

Result<bool> Expr::Matches(const Table& table, size_t row) const {
  return ToMatch(Eval(table, row));
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kColumnRef:
      return column_name;
    case ExprKind::kUnary:
      if (unary_op == UnaryOp::kNeg) return "-" + children[0]->ToString();
      return "NOT (" + children[0]->ToString() + ")";
    case ExprKind::kBinary: {
      std::string l = children[0]->ToString();
      std::string r = children[1]->ToString();
      if (IsLogicalOp(binary_op)) {
        return "(" + l + " " + BinaryOpToString(binary_op) + " " + r + ")";
      }
      return l + " " + BinaryOpToString(binary_op) + " " + r;
    }
    case ExprKind::kBetween:
      return children[0]->ToString() +
             (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case ExprKind::kIn: {
      std::string out =
          children[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < in_list.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_list[i].ToSqlLiteral();
      }
      return out + ")";
    }
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return children[0]->ToString() + (negated ? " NOT LIKE '" : " LIKE '") +
             like_pattern + "'";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_shared<Expr>(*this);
  out->children.clear();
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

// ----- Factories -----------------------------------------------------------

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr LitBool(bool v) { return Lit(Value::Bool(v)); }

ExprPtr Col(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Unary(UnaryOp op, ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Between(ExprPtr arg, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBetween;
  e->children = {std::move(arg), std::move(lo), std::move(hi)};
  e->negated = negated;
  return e;
}

ExprPtr In(ExprPtr arg, std::vector<Value> list, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIn;
  e->children.push_back(std::move(arg));
  e->in_list = std::move(list);
  e->negated = negated;
  return e;
}

ExprPtr IsNull(ExprPtr arg, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNull;
  e->children.push_back(std::move(arg));
  e->negated = negated;
  return e;
}

ExprPtr Like(ExprPtr arg, std::string pattern, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLike;
  e->children.push_back(std::move(arg));
  e->like_pattern = std::move(pattern);
  e->negated = negated;
  return e;
}

ExprPtr AndMaybe(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}

}  // namespace pb::db
