// Value: the dynamically-typed cell of the relational engine.
//
// Supported types: NULL, BOOL, INT64, DOUBLE, STRING. Numeric comparisons
// and arithmetic coerce INT64 and DOUBLE; NULL follows SQL three-valued
// semantics at the expression layer (db/expr.h) — a bare Value only knows
// whether it is null.

#ifndef PB_DB_VALUE_H_
#define PB_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/status.h"

namespace pb::db {

enum class ValueType { kNull = 0, kBool, kInt, kDouble, kString };

/// Returns "NULL", "BOOL", "INT", "DOUBLE", or "STRING".
const char* ValueTypeToString(ValueType t);

/// A single dynamically-typed value.
class Value {
 public:
  /// NULL value.
  Value() : var_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Double(double d) {
    return Value(std::in_place_type<double>, d);
  }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }

  ValueType type() const {
    return static_cast<ValueType>(var_.index());
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  /// INT or DOUBLE.
  bool is_numeric() const { return is_int() || is_double(); }

  /// Requires the matching type.
  bool AsBool() const { return std::get<bool>(var_); }
  int64_t AsInt() const { return std::get<int64_t>(var_); }
  double AsDoubleExact() const { return std::get<double>(var_); }
  const std::string& AsString() const { return std::get<std::string>(var_); }

  /// Numeric coercion: INT and DOUBLE both convert; others are an error.
  Result<double> ToDouble() const;

  /// Three-way comparison for ORDER BY and predicate evaluation.
  /// NULL sorts before everything; numerics compare cross-type; mixed
  /// non-numeric types compare by type rank (stable but arbitrary).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display form: NULL, true/false, numbers, raw string (no quotes).
  std::string ToString() const;

  /// SQL-literal form: strings quoted and escaped.
  std::string ToSqlLiteral() const;

 private:
  using Var = std::variant<std::monostate, bool, int64_t, double, std::string>;
  /// Builds the alternative T in place: moving a temporary Var in trips
  /// GCC 12's -Wmaybe-uninitialized under -O2 with the sanitizers.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : var_(type, std::forward<Arg>(arg)) {}
  Var var_;
};

}  // namespace pb::db

#endif  // PB_DB_VALUE_H_
