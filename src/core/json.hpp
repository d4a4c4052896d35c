// Minimal JSON document model: parse + serialize, no external dependency.
//
// The tree's one JSON reader and writer: experiment files (tsload-style
// `experiment.json` parametrization), farm and run reports, metrics
// snapshots, Chrome traces and lint reports all go through it.  Scope is
// deliberately small: UTF-8 text, no comments, numbers as double (plus an
// exact int64 view when the value is integral), object key order preserved.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace castanet::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object (experiment files are small; linear scans win).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(std::nullptr_t) {}                                        // NOLINT
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                 // NOLINT
  Value(double d);                                                // NOLINT
  Value(std::int64_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)), int_(i), integral_(true) {}  // NOLINT
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}           // NOLINT
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}                 // NOLINT
  Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}     // NOLINT
  Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}   // NOLINT

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw LogicError on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< throws unless the number was integral
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// Object member or `fallback` when absent.
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  /// Mutation helpers used by report writers.
  void set(const std::string& key, Value v);  ///< object only (append/replace)
  void push_back(Value v);                    ///< array only

  /// Compact serialization (stable: key order preserved, integral numbers
  /// rendered without a decimal point, other finite numbers as the shortest
  /// text that parses back to the same double, NaN and infinities as null).
  /// `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool integral_ = false;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses one JSON document; trailing non-whitespace is an error.  Throws
/// IoError with line/column context on malformed input.
Value parse(const std::string& text);
/// Loads and parses a file.  Throws IoError (missing file, parse error).
Value parse_file(const std::string& path);

}  // namespace castanet::json
