#include "db/ops.h"

#include <numeric>

#include "common/logging.h"
#include "db/filter.h"

namespace pb::db {

namespace {

/// True when `bound` is a bound reference to a column of `table` with
/// contiguous numeric (INT/DOUBLE) storage.
bool IsNumericColumnRef(const ExprPtr& bound, const Table& table) {
  return bound && bound->kind == ExprKind::kColumnRef &&
         bound->column_index >= 0 &&
         static_cast<size_t>(bound->column_index) <
             table.schema().num_columns() &&
         table.column_data(bound->column_index).numeric_storage();
}

}  // namespace

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum:   return "SUM";
    case AggFunc::kAvg:   return "AVG";
    case AggFunc::kMin:   return "MIN";
    case AggFunc::kMax:   return "MAX";
  }
  return "?";
}

Result<std::vector<size_t>> FilterIndices(const Table& table,
                                          const ExprPtr& pred,
                                          size_t first_row) {
  std::vector<size_t> out;
  if (!pred) {
    if (first_row < table.num_rows()) {
      out.resize(table.num_rows() - first_row);
      std::iota(out.begin(), out.end(), first_row);
    }
    return out;
  }
  ExprPtr bound = pred->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  // The predicate's shape picks the path: column-versus-literal trees run
  // block-at-a-time (db/filter.h); anything else is evaluated row by row.
  if (std::optional<CompiledFilter> kernel =
          CompiledFilter::Compile(table, *bound)) {
    return kernel->Run(first_row);
  }
  for (size_t i = first_row; i < table.num_rows(); ++i) {
    PB_ASSIGN_OR_RETURN(bool keep, bound->Matches(table, i));
    if (keep) out.push_back(i);
  }
  return out;
}

namespace {

/// Incremental aggregate accumulator with SQL NULL-skipping semantics.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  Status Add(const Value& v, int64_t multiplicity = 1) {
    if (func_ == AggFunc::kCount) {
      // COUNT(expr) skips NULL; COUNT(*) passes a non-null marker.
      if (!v.is_null()) count_ += multiplicity;
      return Status::OK();
    }
    if (v.is_null()) return Status::OK();
    if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
      if (!extreme_ || (func_ == AggFunc::kMin
                            ? v.Compare(*extreme_) < 0
                            : v.Compare(*extreme_) > 0)) {
        extreme_ = v;
      }
      count_ += multiplicity;
      return Status::OK();
    }
    // SUM / AVG: numeric only.
    PB_ASSIGN_OR_RETURN(double d, v.ToDouble());
    sum_ += d * static_cast<double>(multiplicity);
    count_ += multiplicity;
    all_int_ = all_int_ && v.is_int();
    return Status::OK();
  }

  Value Finish() const {
    switch (func_) {
      case AggFunc::kCount:
        return Value::Int(count_);
      case AggFunc::kSum:
        if (count_ == 0) return Value::Null();
        if (all_int_) return Value::Int(static_cast<int64_t>(sum_));
        return Value::Double(sum_);
      case AggFunc::kAvg:
        if (count_ == 0) return Value::Null();
        return Value::Double(sum_ / static_cast<double>(count_));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme_ ? *extreme_ : Value::Null();
    }
    return Value::Null();
  }

 private:
  AggFunc func_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  bool all_int_ = true;
  std::optional<Value> extreme_;
};

/// Vectorized AggregateRows over a numeric column span: one tight pass,
/// no per-cell Value or variant dispatch. Mirrors AggAccumulator exactly.
Result<Value> AggregateColumnRows(const Table& table, AggFunc func, int column,
                                  const std::vector<size_t>& rows,
                                  const std::vector<int64_t>& multiplicities) {
  const NumericColumnView view = table.column_data(column).NumericView();
  // Storage type from the column, not the span: a spilled column's spans
  // are null but its SUM/MIN/MAX must still come back as INT.
  const bool int_storage =
      table.column_data(column).storage_type() == ValueType::kInt;
  int64_t count = 0;
  double sum = 0.0;
  bool has_extreme = false;
  double extreme = 0.0;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    if (multiplicities[k] < 0) {
      return Status::InvalidArgument("negative multiplicity");
    }
    if (multiplicities[k] == 0 || view.IsNull(rows[k])) continue;
    double d = view[rows[k]];
    switch (func) {
      case AggFunc::kCount:
        count += multiplicities[k];
        break;
      case AggFunc::kMin:
        if (!has_extreme || d < extreme) extreme = d;
        has_extreme = true;
        count += multiplicities[k];
        break;
      case AggFunc::kMax:
        if (!has_extreme || d > extreme) extreme = d;
        has_extreme = true;
        count += multiplicities[k];
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        sum += d * static_cast<double>(multiplicities[k]);
        count += multiplicities[k];
        break;
    }
  }
  PB_RETURN_IF_ERROR(view.status());  // spilled block faults surface here
  switch (func) {
    case AggFunc::kCount:
      return Value::Int(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      return int_storage ? Value::Int(static_cast<int64_t>(sum))
                         : Value::Double(sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(sum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!has_extreme) return Value::Null();
      return int_storage ? Value::Int(static_cast<int64_t>(extreme))
                         : Value::Double(extreme);
  }
  return Value::Null();
}

}  // namespace

Result<Value> AggregateRows(const Table& table, AggFunc func,
                            const ExprPtr& arg,
                            const std::vector<size_t>& rows,
                            const std::vector<int64_t>& multiplicities) {
  if (rows.size() != multiplicities.size()) {
    return Status::InvalidArgument(
        "rows and multiplicities must have equal length");
  }
  ExprPtr bound;
  if (arg) {
    bound = arg->Clone();
    PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  } else if (func != AggFunc::kCount) {
    return Status::InvalidArgument(
        std::string(AggFuncToString(func)) + " requires an argument");
  }
  if (IsNumericColumnRef(bound, table)) {
    return AggregateColumnRows(table, func, bound->column_index, rows,
                               multiplicities);
  }
  AggAccumulator acc(func);
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    if (multiplicities[k] < 0) {
      return Status::InvalidArgument("negative multiplicity");
    }
    if (multiplicities[k] == 0) continue;
    Value v = Value::Int(1);  // COUNT(*) marker
    if (bound) {
      PB_ASSIGN_OR_RETURN(v, bound->Eval(table, rows[k]));
    }
    // MIN/MAX ignore multiplicity by nature; SUM/AVG/COUNT scale by it.
    PB_RETURN_IF_ERROR(acc.Add(v, multiplicities[k]));
  }
  return acc.Finish();
}

Result<Table> CrossJoin(const Table& left, const Table& right,
                        const ExprPtr& pred,
                        const std::string& result_name) {
  // Build the output schema, prefixing on collision. Self-joins (same table
  // name on both sides) disambiguate the right side with an "_r" suffix.
  std::string lprefix = left.name();
  std::string rprefix = right.name();
  if (lprefix == rprefix) rprefix += "_r";
  Schema out_schema;
  for (const ColumnDef& c : left.schema().columns()) {
    ColumnDef col = c;
    if (right.schema().HasColumn(c.name)) col.name = lprefix + "." + c.name;
    PB_RETURN_IF_ERROR(out_schema.AddColumn(col));
  }
  for (const ColumnDef& c : right.schema().columns()) {
    ColumnDef col = c;
    if (left.schema().HasColumn(c.name)) col.name = rprefix + "." + c.name;
    PB_RETURN_IF_ERROR(out_schema.AddColumn(col));
  }
  ExprPtr bound;
  if (pred) {
    bound = pred->Clone();
    PB_RETURN_IF_ERROR(bound->Bind(out_schema));
  }
  Table out(result_name, std::move(out_schema));
  // Materialize each side's rows once; the inner loop reuses them.
  std::vector<Tuple> rrows;
  rrows.reserve(right.num_rows());
  for (size_t j = 0; j < right.num_rows(); ++j) rrows.push_back(right.row(j));
  Tuple combined;
  combined.reserve(left.schema().num_columns() + right.schema().num_columns());
  for (size_t i = 0; i < left.num_rows(); ++i) {
    Tuple l = left.row(i);
    for (const Tuple& r : rrows) {
      combined.clear();
      combined.insert(combined.end(), l.begin(), l.end());
      combined.insert(combined.end(), r.begin(), r.end());
      if (bound) {
        PB_ASSIGN_OR_RETURN(bool keep, bound->Matches(combined));
        if (!keep) continue;
      }
      out.AppendUnchecked(combined);
    }
  }
  return out;
}

Result<std::vector<std::optional<double>>> GatherNumericBound(
    const Table& table, const Expr& expr, const std::vector<size_t>& rows) {
  std::vector<std::optional<double>> out(rows.size());
  if (expr.kind == ExprKind::kColumnRef && expr.column_index >= 0 &&
      static_cast<size_t>(expr.column_index) < table.schema().num_columns() &&
      table.column_data(expr.column_index).numeric_storage()) {
    const NumericColumnView view =
        table.column_data(expr.column_index).NumericView();
    const size_t n = view.size();
    if (!view.spilled() && !view.has_nulls()) {
      // Null-free resident spans: a straight gather over the contiguous
      // data.
      if (const double* d = view.doubles()) {
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] >= n) return Status::OutOfRange("row index out of range");
          out[i] = d[rows[i]];
        }
      } else {
        const int64_t* p = view.ints();
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] >= n) return Status::OutOfRange("row index out of range");
          out[i] = static_cast<double>(p[rows[i]]);
        }
      }
      return out;
    }
    // NULLs or a spilled column: a spilled column's values fault in
    // block-at-a-time through the view's cached pin. Filter row lists are
    // ascending, so each block is pinned once per gather.
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= n) return Status::OutOfRange("row index out of range");
      if (!view.IsNull(rows[i])) out[i] = view[rows[i]];
    }
    PB_RETURN_IF_ERROR(view.status());
    return out;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    PB_ASSIGN_OR_RETURN(Value v, expr.Eval(table, rows[i]));
    if (v.is_null()) {
      out[i] = std::nullopt;
    } else {
      PB_ASSIGN_OR_RETURN(double d, v.ToDouble());
      out[i] = d;
    }
  }
  return out;
}

Result<std::vector<std::optional<double>>> GatherNumeric(
    const Table& table, const ExprPtr& expr, const std::vector<size_t>& rows) {
  ExprPtr bound = expr->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  return GatherNumericBound(table, *bound, rows);
}

}  // namespace pb::db
