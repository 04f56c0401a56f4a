#include "db/value.h"

#include <cmath>

#include "common/strings.h"

namespace sky::db {

std::string_view column_type_name(ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: return "INT32";
    case ColumnType::kInt64: return "INT64";
    case ColumnType::kDouble: return "DOUBLE";
    case ColumnType::kString: return "STRING";
    case ColumnType::kTimestamp: return "TIMESTAMP";
  }
  return "UNKNOWN";
}

const std::string& Value::BoxedString::empty() {
  static const std::string kEmpty;
  return kEmpty;
}

Result<double> Value::numeric() const {
  if (is_i32()) return static_cast<double>(as_i32());
  if (is_i64()) return static_cast<double>(as_i64());
  if (is_f64()) return as_f64();
  return Status(ErrorCode::kTypeMismatch, "value is not numeric");
}

bool Value::matches(ColumnType type) const {
  if (is_null()) return true;
  switch (type) {
    case ColumnType::kInt32: return is_i32();
    case ColumnType::kInt64: return is_i64();
    case ColumnType::kTimestamp: return is_i64();
    case ColumnType::kDouble: return is_f64();
    case ColumnType::kString: return is_str();
  }
  return false;
}

int Value::compare(const Value& other) const {
  // NULL sorts first, mirroring the key codec.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-kind numeric comparison goes through double; same-kind integers
  // compare exactly.
  auto kind_rank = [](const Value& v) {
    if (v.is_str()) return 1;
    return 0;
  };
  if (kind_rank(*this) != kind_rank(other)) {
    return kind_rank(*this) < kind_rank(other) ? -1 : 1;
  }
  if (is_str()) {
    const int c = as_str().compare(other.as_str());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_i64() && other.is_i64()) {
    return as_i64() < other.as_i64() ? -1 : (as_i64() > other.as_i64() ? 1 : 0);
  }
  if (is_i32() && other.is_i32()) {
    return as_i32() < other.as_i32() ? -1 : (as_i32() > other.as_i32() ? 1 : 0);
  }
  const double a = numeric().value();
  const double b = other.numeric().value();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Value::to_display() const {
  if (is_null()) return "NULL";
  if (is_i32()) return std::to_string(as_i32());
  if (is_i64()) return std::to_string(as_i64());
  if (is_f64()) return str_format("%.17g", as_f64());
  return as_str();
}

Result<Value> Value::parse_as(ColumnType type, std::string_view text) {
  const std::string_view trimmed = trim(text);
  // Empty field or explicit markers mean NULL — real catalog extraction
  // programs emit both.
  if (trimmed.empty() || trimmed == "NULL" || trimmed == "\\N") {
    return Value::null();
  }
  switch (type) {
    case ColumnType::kInt32: {
      SKY_ASSIGN_OR_RETURN(const int32_t v, parse_int32(trimmed));
      return Value::i32(v);
    }
    case ColumnType::kInt64:
    case ColumnType::kTimestamp: {
      SKY_ASSIGN_OR_RETURN(const int64_t v, parse_int64(trimmed));
      return Value::i64(v);
    }
    case ColumnType::kDouble: {
      SKY_ASSIGN_OR_RETURN(const double v, parse_double(trimmed));
      if (std::isnan(v)) {
        return Status(ErrorCode::kParseError, "NaN is not a valid value");
      }
      return Value::f64(v);
    }
    case ColumnType::kString:
      return Value::str(std::string(trimmed));
  }
  return Status(ErrorCode::kInternal, "unknown column type");
}

}  // namespace sky::db
