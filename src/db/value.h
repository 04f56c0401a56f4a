// Typed column values.
//
// The catalog carries telescope positions (doubles), ids and htmids
// (int64), CCD numbers (int32), tags/names (strings), and observation times
// (timestamps, stored as microseconds since epoch). NULL is a first-class
// value; NOT NULL is a column property enforced by the table layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace sky::db {

enum class ColumnType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kTimestamp = 4,  // int64 microseconds since epoch
};

std::string_view column_type_name(ColumnType type);

// A value is 16 bytes: a one-byte kind tag beside an 8-byte payload. Strings
// live in a heap box so that a decoded row of catalog columns stays small;
// copying a Value deep-copies its string, and a moved-from string Value
// reads as the empty string.
class Value {
 public:
  Value() : data_(std::monostate{}) {}  // NULL

  static Value null() { return Value(); }
  static Value i32(int32_t v) { return Value(v); }
  static Value i64(int64_t v) { return Value(v); }
  static Value f64(double v) { return Value(v); }
  static Value str(std::string v) { return Value(std::move(v)); }
  // Timestamps share int64 representation.
  static Value timestamp(int64_t micros) { return Value(micros); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_i32() const { return std::holds_alternative<int32_t>(data_); }
  bool is_i64() const { return std::holds_alternative<int64_t>(data_); }
  bool is_f64() const { return std::holds_alternative<double>(data_); }
  bool is_str() const { return std::holds_alternative<BoxedString>(data_); }

  int32_t as_i32() const { return std::get<int32_t>(data_); }
  int64_t as_i64() const { return std::get<int64_t>(data_); }
  double as_f64() const { return std::get<double>(data_); }
  const std::string& as_str() const {
    return std::get<BoxedString>(data_).get();
  }

  // Numeric view for check constraints (int32/int64/double); error for
  // strings and NULL.
  Result<double> numeric() const;

  // Does this value's runtime kind store into a column of `type`?
  // NULL matches any type (nullability is checked separately).
  bool matches(ColumnType type) const;

  // Total order within same-kind values; NULL < everything; used by tests
  // and the reference query paths (indexes order via the key codec).
  int compare(const Value& other) const;
  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  std::string to_display() const;

  // Parse from catalog text for the given column type.
  static Result<Value> parse_as(ColumnType type, std::string_view text);

 private:
  // One pointer wide; owns its string alone.
  class BoxedString {
   public:
    explicit BoxedString(std::string s)
        : s_(std::make_unique<std::string>(std::move(s))) {}
    BoxedString(const BoxedString& other) : BoxedString(other.get()) {}
    BoxedString(BoxedString&&) noexcept = default;
    BoxedString& operator=(const BoxedString& other) {
      if (this != &other) s_ = std::make_unique<std::string>(other.get());
      return *this;
    }
    BoxedString& operator=(BoxedString&&) noexcept = default;

    const std::string& get() const { return s_ != nullptr ? *s_ : empty(); }

   private:
    static const std::string& empty();

    std::unique_ptr<std::string> s_;  // null only once moved from
  };

  explicit Value(int32_t v) : data_(v) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v)
      : data_(std::in_place_type<BoxedString>, std::move(v)) {}

  std::variant<std::monostate, int32_t, int64_t, double, BoxedString> data_;
};

static_assert(sizeof(Value) == 16, "Value is a tag beside an 8-byte payload");

}  // namespace sky::db
