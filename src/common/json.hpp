// Minimal JSON value, parser and writer: the one writer behind every JSON
// file the repo emits (sidecars, dumps, BENCH_*.json) and the parser of its
// cluster configuration and workload spec files.
// Hand-rolled because the repo deliberately carries no third-party
// dependencies beyond gtest/benchmark: configs are small, so a simple
// recursive-descent parser with a depth cap is plenty. Parsing never aborts —
// malformed input returns an error string (configs come from disk, i.e. from
// outside the trust boundary, unlike protocol encoders).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace byzcast {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  /// Any integral type; exact template match avoids int/double ambiguity.
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  static Json number(T v) {
    return number(static_cast<double>(v));
  }
  static Json string(std::string s);
  static Json array();
  static Json object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors return the natural zero value on type mismatch; use
  /// the is_* predicates (or get()) when a mismatch must be detected.
  [[nodiscard]] bool as_bool() const { return is_bool() && bool_; }
  [[nodiscard]] double as_double() const { return is_number() ? num_ : 0.0; }
  [[nodiscard]] std::int64_t as_int() const {
    return static_cast<std::int64_t>(as_double());
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  // --- array ---------------------------------------------------------------
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;
  void push_back(Json v);

  // --- object --------------------------------------------------------------
  [[nodiscard]] bool has(const std::string& key) const;
  /// Member lookup; a shared null sentinel when absent or not an object.
  [[nodiscard]] const Json& get(const std::string& key) const;
  void set(const std::string& key, Json v);
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return obj_;
  }

  /// Number lookup with default (missing or non-number -> `fallback`).
  [[nodiscard]] double num_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t int_or(const std::string& key,
                                    std::int64_t fallback) const;

  /// Strict parse of a complete document (trailing garbage is an error).
  /// Returns nullopt and fills `error` (when non-null) on malformed input.
  [[nodiscard]] static std::optional<Json> parse(const std::string& text,
                                                 std::string* error = nullptr);

  /// Serializes with 2-space indentation and a trailing newline at top
  /// level; object member order is preserved, so parse(dump(x)) == x.
  /// Non-finite numbers, which JSON cannot express, are written as null.
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Writes `j.dump()` to `path` via a tmp file and a rename, creating the
/// parent directory first. False (with prose in `error`) on IO failure.
bool write_json_file(const std::string& path, const Json& j,
                     std::string* error = nullptr);
[[nodiscard]] std::optional<Json> read_json_file(const std::string& path,
                                                 std::string* error = nullptr);

}  // namespace byzcast
