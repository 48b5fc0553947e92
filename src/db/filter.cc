#include "db/filter.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "storage/block.h"

namespace pb::db {

namespace {

/// Value::Compare's numeric branch, verbatim: NaN compares equal to
/// everything.
inline int ThreeWay(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Value::Compare's string branch.
inline int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

/// EvalComparison's reading of a three-way result.
template <BinaryOp kOp>
inline bool Holds(int c) {
  if constexpr (kOp == BinaryOp::kEq) {
    return c == 0;
  } else if constexpr (kOp == BinaryOp::kNe) {
    return c != 0;
  } else if constexpr (kOp == BinaryOp::kLt) {
    return c < 0;
  } else if constexpr (kOp == BinaryOp::kLe) {
    return c <= 0;
  } else if constexpr (kOp == BinaryOp::kGt) {
    return c > 0;
  } else {
    static_assert(kOp == BinaryOp::kGe);
    return c >= 0;
  }
}

/// Calls `f` with the comparison `op` as a compile-time constant, so each
/// leaf loop is specialized for its operator.
template <typename F>
void WithOp(BinaryOp op, F&& f) {
  switch (op) {
    case BinaryOp::kEq:
      return f(std::integral_constant<BinaryOp, BinaryOp::kEq>());
    case BinaryOp::kNe:
      return f(std::integral_constant<BinaryOp, BinaryOp::kNe>());
    case BinaryOp::kLt:
      return f(std::integral_constant<BinaryOp, BinaryOp::kLt>());
    case BinaryOp::kLe:
      return f(std::integral_constant<BinaryOp, BinaryOp::kLe>());
    case BinaryOp::kGt:
      return f(std::integral_constant<BinaryOp, BinaryOp::kGt>());
    default:
      return f(std::integral_constant<BinaryOp, BinaryOp::kGe>());
  }
}

/// `lit op col` as `col Mirror(op) lit`. Exact: Value::Compare is
/// antisymmetric, NaN included (it compares 0 both ways).
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

bool ReadsColumn(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return true;
  return std::any_of(e.children.begin(), e.children.end(),
                     [](const ExprPtr& c) { return ReadsColumn(*c); });
}

/// The value of a subtree that reads no column: the row path computes the
/// same Value on every row. nullopt when `e` reads a column or fails.
std::optional<Value> ConstantValue(const Expr& e) {
  if (ReadsColumn(e)) return std::nullopt;
  Result<Value> v = e.Eval(Tuple{});
  if (!v.ok()) return std::nullopt;
  return std::move(v).value();
}

double NumericLiteral(const Value& v) {
  return v.is_int() ? static_cast<double>(v.AsInt()) : v.AsDoubleExact();
}

template <typename T>
void CompareValues(const T* v, size_t count, BinaryOp op, double lit,
                   uint8_t* t) {
  WithOp(op, [&](auto o) {
    for (size_t k = 0; k < count; ++k) {
      const double a = static_cast<double>(v[k]);
      t[k] = Holds<decltype(o)::value>(ThreeWay(a, lit));
    }
  });
}

/// The row path's BETWEEN: v.Compare(lo) >= 0 && v.Compare(hi) <= 0.
template <typename T>
void BetweenValues(const T* v, size_t count, double lo, double hi,
                   uint8_t* t) {
  for (size_t k = 0; k < count; ++k) {
    const double a = static_cast<double>(v[k]);
    t[k] = ThreeWay(a, lo) >= 0 && ThreeWay(a, hi) <= 0;
  }
}

/// Applies a leaf's polarity to its verdicts in `t` and drops NULL rows:
/// a NULL row is neither definitely true nor definitely false.
void FinishLeaf(bool invert, const NullBitmap& nulls, size_t begin,
                size_t count, uint8_t* t) {
  if (invert) {
    for (size_t k = 0; k < count; ++k) t[k] ^= 1;
  }
  if (!nulls.any()) return;
  for (size_t k = 0; k < count; ++k) {
    if (nulls.Test(begin + k)) t[k] = 0;
  }
}

}  // namespace

std::optional<CompiledFilter> CompiledFilter::Compile(const Table& table,
                                                      const Expr& bound) {
  CompiledFilter filter(table);
  if (filter.Add(bound, /*negate=*/false) < 0) return std::nullopt;
  return filter;
}

int CompiledFilter::Push(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int CompiledFilter::SlotFor(size_t column) {
  auto it = std::find(slots_.begin(), slots_.end(), column);
  if (it != slots_.end()) return static_cast<int>(it - slots_.begin());
  // Chunks are the value columns' blocks. Every numeric column of a table
  // shares one block size (Table::SetBlockSize and SpillToDisk set them
  // all), so a mismatch only keeps the row path.
  if (!slots_.empty() && table_->column_data(column).block_size() !=
                             table_->column_data(slots_[0]).block_size()) {
    return -1;
  }
  slots_.push_back(column);
  return static_cast<int>(slots_.size()) - 1;
}

int CompiledFilter::Add(const Expr& e, bool negate) {
  auto column_of = [&](const Expr& c) -> const Column* {
    if (c.kind != ExprKind::kColumnRef || c.column_index < 0) return nullptr;
    return &table_->column_data(static_cast<size_t>(c.column_index));
  };
  Node node;
  switch (e.kind) {
    case ExprKind::kUnary:
      if (e.unary_op != UnaryOp::kNot) return -1;  // minus over a column
      return Add(*e.children[0], !negate);
    case ExprKind::kBinary: {
      if (IsLogicalOp(e.binary_op)) {
        // De Morgan holds in Kleene logic: NOT (a AND b) = NOT a OR NOT b.
        node.kind = (e.binary_op == BinaryOp::kAnd) != negate ? NodeKind::kAnd
                                                               : NodeKind::kOr;
        node.lhs = Add(*e.children[0], negate);
        if (node.lhs < 0) return -1;
        node.rhs = Add(*e.children[1], negate);
        if (node.rhs < 0) return -1;
        return Push(std::move(node));
      }
      if (!IsComparisonOp(e.binary_op)) return -1;  // arithmetic
      const Expr* col = e.children[0].get();
      const Expr* lit = e.children[1].get();
      node.op = e.binary_op;
      if (col->kind != ExprKind::kColumnRef) {
        std::swap(col, lit);
        node.op = Mirror(node.op);
      }
      const Column* column = column_of(*col);
      const std::optional<Value> v = ConstantValue(*lit);
      if (column == nullptr || !v) return -1;
      node.column = static_cast<size_t>(col->column_index);
      node.invert = negate;
      if (column->numeric_storage() && v->is_numeric()) {
        node.kind = NodeKind::kCompare;
        node.slot = SlotFor(node.column);
        if (node.slot < 0) return -1;
        node.lo = NumericLiteral(*v);
      } else if (column->storage_type() == ValueType::kString &&
                 v->is_string()) {
        node.kind = NodeKind::kStringCompare;
        node.text = v->AsString();
      } else {
        return -1;  // mismatched types raise TypeError on the row path
      }
      return Push(std::move(node));
    }
    case ExprKind::kBetween: {
      const Column* column = column_of(*e.children[0]);
      const std::optional<Value> lo = ConstantValue(*e.children[1]);
      const std::optional<Value> hi = ConstantValue(*e.children[2]);
      if (column == nullptr || !column->numeric_storage() || !lo ||
          !lo->is_numeric() || !hi || !hi->is_numeric()) {
        return -1;
      }
      node.kind = NodeKind::kBetween;
      node.column = static_cast<size_t>(e.children[0]->column_index);
      node.slot = SlotFor(node.column);
      if (node.slot < 0) return -1;
      node.lo = NumericLiteral(*lo);
      node.hi = NumericLiteral(*hi);
      node.invert = e.negated != negate;
      return Push(std::move(node));
    }
    case ExprKind::kIsNull: {
      const Column* column = column_of(*e.children[0]);
      if (column == nullptr || column->storage_type() == ValueType::kNull) {
        return -1;
      }
      node.kind = NodeKind::kIsNull;
      node.column = static_cast<size_t>(e.children[0]->column_index);
      node.invert = e.negated != negate;
      return Push(std::move(node));
    }
    default:
      return -1;  // IN, LIKE, bare columns and literals
  }
}

Result<std::vector<size_t>> CompiledFilter::Run(size_t first_row) const {
  const size_t n = table_->num_rows();
  std::vector<size_t> out;
  if (first_row >= n) return out;
  // One view per value column: it caches the pin of the block in use, so
  // walking the chunks in order pins each block of each column once.
  std::vector<NumericColumnView> views;
  views.reserve(slots_.size());
  for (size_t column : slots_) {
    views.push_back(table_->column_data(column).NumericView());
  }
  std::vector<NumericColumnView::BlockSpan> spans(views.size());
  const size_t chunk =
      views.empty() ? storage::kDefaultBlockSize : views[0].block_size();
  std::vector<uint8_t> masks(chunk * nodes_.size());

  // Rows [lo, lo + count) of block b; only the first block starts past
  // its beginning, at `off` rows in.
  for (size_t b = first_row / chunk; b * chunk < n; ++b) {
    const size_t begin = b * chunk;
    const size_t lo = std::max(begin, first_row);
    const size_t off = lo - begin;
    const size_t count = std::min(chunk, n - begin) - off;
    for (size_t s = 0; s < views.size(); ++s) {
      spans[s] = views[s].block(b);
      if (!spans[s].valid()) return views[s].status();  // read or budget
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const Node& node = nodes_[i];
      uint8_t* t = &masks[chunk * i];
      if (node.kind == NodeKind::kAnd || node.kind == NodeKind::kOr) {
        const uint8_t* l = &masks[chunk * static_cast<size_t>(node.lhs)];
        const uint8_t* r = &masks[chunk * static_cast<size_t>(node.rhs)];
        if (node.kind == NodeKind::kAnd) {
          for (size_t k = 0; k < count; ++k) t[k] = l[k] & r[k];
        } else {
          for (size_t k = 0; k < count; ++k) t[k] = l[k] | r[k];
        }
        continue;
      }
      const Column& column = table_->column_data(node.column);
      switch (node.kind) {
        case NodeKind::kIsNull:
          for (size_t k = 0; k < count; ++k) {
            t[k] = column.IsNull(lo + k) != node.invert;
          }
          continue;  // IS NULL is never NULL
        case NodeKind::kStringCompare: {
          const std::string* s = column.strings().data() + lo;
          WithOp(node.op, [&](auto o) {
            for (size_t k = 0; k < count; ++k) {
              t[k] = Holds<decltype(o)::value>(Sign(s[k].compare(node.text)));
            }
          });
          break;
        }
        default: {
          const NumericColumnView::BlockSpan& v =
              spans[static_cast<size_t>(node.slot)];
          if (node.kind == NodeKind::kCompare) {
            if (v.dbl != nullptr) {
              CompareValues(v.dbl + off, count, node.op, node.lo, t);
            } else {
              CompareValues(v.ints + off, count, node.op, node.lo, t);
            }
          } else if (v.dbl != nullptr) {
            BetweenValues(v.dbl + off, count, node.lo, node.hi, t);
          } else {
            BetweenValues(v.ints + off, count, node.lo, node.hi, t);
          }
          break;
        }
      }
      FinishLeaf(node.invert, column.nulls(), lo, count, t);
    }
    const uint8_t* accept = &masks[chunk * (nodes_.size() - 1)];
    for (size_t k = 0; k < count; ++k) {
      if (accept[k]) out.push_back(lo + k);
    }
  }
  return out;
}

}  // namespace pb::db
