#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pb::json {

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Int(int64_t i) { return Number(static_cast<double>(i)); }

int64_t Value::as_int() const {
  // 2^63 is exact as a double, and every double in [-2^63, 2^63) truncates
  // to a representable int64; a cast of anything outside is undefined.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(number_)) return 0;
  if (number_ >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (number_ < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(number_);
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::GetString(const std::string& key, std::string def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::move(def);
}

double Value::GetNumber(const std::string& key, double def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->as_number() : def;
}

int64_t Value::GetInt(const std::string& key, int64_t def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->as_int() : def;
}

bool Value::GetBool(const std::string& key, bool def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : def;
}

Value& Value::Set(const std::string& key, Value v) {
  kind_ = Kind::kObject;
  for (auto& [k, existing] : fields_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(v));
  return *this;
}

void Value::Push(Value v) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':  *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    *out += "null";
    return;
  }
  // Integers (counters, row indices) round-trip exactly and read cleanly.
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(d));
    *out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void DumpTo(const Value& v, std::string* out);

void DumpArray(const Value& v, std::string* out) {
  out->push_back('[');
  bool first = true;
  for (const Value& item : v.items()) {
    if (!first) out->push_back(',');
    first = false;
    DumpTo(item, out);
  }
  out->push_back(']');
}

void DumpObject(const Value& v, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, field] : v.fields()) {
    if (!first) out->push_back(',');
    first = false;
    AppendEscaped(key, out);
    out->push_back(':');
    DumpTo(field, out);
  }
  out->push_back('}');
}

void DumpTo(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kNull:   *out += "null"; return;
    case Value::Kind::kBool:   *out += v.as_bool() ? "true" : "false"; return;
    case Value::Kind::kNumber: AppendNumber(v.as_number(), out); return;
    case Value::Kind::kString: AppendEscaped(v.as_string(), out); return;
    case Value::Kind::kArray:  DumpArray(v, out); return;
    case Value::Kind::kObject: DumpObject(v, out); return;
  }
}

// ------------------------------------------------------------------ parser

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    PB_ASSIGN_OR_RETURN(Value v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      PB_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Value::Str(std::move(s));
    }
    if (ConsumeWord("null")) return Value::Null();
    if (ConsumeWord("true")) return Value::Bool(true);
    if (ConsumeWord("false")) return Value::Bool(false);
    return ParseNumber();
  }

  Result<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Value obj = Value::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      PB_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':' after object key");
      PB_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      obj.Set(key, std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Err("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Value arr = Value::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      PB_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      arr.Push(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Err("expected ',' or ']' in array");
    }
  }

  Result<int> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
    int code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= c - '0';
      else if (c >= 'a' && c <= 'f') code |= c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') code |= c - 'A' + 10;
      else return Err("invalid \\u escape");
    }
    pos_ += 4;
    return code;
  }

  void AppendUtf8(int code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Err("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':  out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/':  out.push_back('/'); break;
        case 'b':  out.push_back('\b'); break;
        case 'f':  out.push_back('\f'); break;
        case 'n':  out.push_back('\n'); break;
        case 'r':  out.push_back('\r'); break;
        case 't':  out.push_back('\t'); break;
        case 'u': {
          PB_ASSIGN_OR_RETURN(int code, ParseHex4());
          if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            PB_ASSIGN_OR_RETURN(int low, ParseHex4());
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Err("invalid surrogate pair");
            }
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("malformed number");
    return Value::Number(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Value::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace pb::json
