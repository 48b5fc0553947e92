// Minimal JSON value + parser + writer for the server wire protocol.
//
// The container bakes in no JSON dependency, and the protocol needs only
// the data model (null, bool, number, string, array, object), so this is a
// deliberate small subset: objects preserve insertion order, numbers are
// doubles with an int64 fast path for exact round-tripping of counters,
// and parsing enforces a recursion-depth cap instead of streaming.

#ifndef PB_COMMON_JSON_H_
#define PB_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pb::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double d);
  static Value Int(int64_t i);
  static Value Str(std::string s);
  static Value Array();
  static Value Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// The number truncated toward zero, saturated to [INT64_MIN, INT64_MAX]
  /// (so a client's 1e300 or 1e999 reads as INT64_MAX); NaN reads as 0.
  int64_t as_int() const;
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& fields() const {
    return fields_;
  }

  /// Object lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  // Typed object getters with defaults (absent or wrong-typed -> default).
  std::string GetString(const std::string& key, std::string def = "") const;
  double GetNumber(const std::string& key, double def = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  bool GetBool(const std::string& key, bool def = false) const;

  /// Adds (or replaces) an object field; returns *this for chaining.
  Value& Set(const std::string& key, Value v);
  /// Appends an array element.
  void Push(Value v);

  /// Compact single-line serialization (the wire format: one value, no
  /// embedded newlines, so values frame naturally on '\n').
  std::string Dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Parses one JSON value from `text` (the whole string must be consumed,
/// modulo surrounding whitespace). Fails with kParseError.
Result<Value> Parse(std::string_view text);

}  // namespace pb::json

#endif  // PB_COMMON_JSON_H_
