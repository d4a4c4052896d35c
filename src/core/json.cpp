#include "src/core/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/error.hpp"

namespace castanet::json {

Value::Value(double d) : kind_(Kind::kNumber), num_(d) {
  // Integral values inside int64 range keep an exact integer view (and dump
  // without a decimal point); NaN, infinities and huge values do not.
  if (std::trunc(d) == d && std::fabs(d) < 9.2e18) {
    int_ = static_cast<std::int64_t>(d);
    integral_ = true;
  }
}

bool Value::as_bool() const {
  require(kind_ == Kind::kBool, "json: not a bool");
  return bool_;
}

double Value::as_double() const {
  require(kind_ == Kind::kNumber, "json: not a number");
  return num_;
}

std::int64_t Value::as_int() const {
  require(kind_ == Kind::kNumber && integral_, "json: not an integer");
  return int_;
}

const std::string& Value::as_string() const {
  require(kind_ == Kind::kString, "json: not a string");
  return str_;
}

const Array& Value::as_array() const {
  require(kind_ == Kind::kArray, "json: not an array");
  return arr_;
}

const Object& Value::as_object() const {
  require(kind_ == Kind::kObject, "json: not an object");
  return obj_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

std::int64_t Value::int_or(const std::string& key,
                           std::int64_t fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number() && v->integral_) ? v->int_
                                                          : fallback;
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

void Value::set(const std::string& key, Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  require(kind_ == Kind::kObject, "json: set() on a non-object");
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

void Value::push_back(Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  require(kind_ == Kind::kArray, "json: push_back() on a non-array");
  arr_.push_back(std::move(v));
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: {
      if (integral_) {
        out += std::to_string(int_);
      } else if (!std::isfinite(num_)) {
        out += "null";  // JSON has no NaN or infinity literal
      } else {
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, num_).ptr);
      }
      break;
    }
    case Kind::kString: escape_to(out, str_); break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_to(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: straightforward recursive descent over the document string.

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw IoError("json parse error at line " + std::to_string(line) +
                  ", column " + std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of document");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Basic multilingual plane only; encode as UTF-8.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = c != '.' && c != 'e' && c != 'E' ? integral : false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      fail("bad number");
    }
    const std::string tok = s_.substr(start, pos_ - start);
    try {
      if (integral) return Value(static_cast<std::int64_t>(std::stoll(tok)));
      return Value(std::stod(tok));
    } catch (const std::exception&) {
      fail("number out of range: " + tok);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("json: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace castanet::json
