#include "db/row.h"

#include <bit>
#include <cstring>

namespace sky::db {

namespace {

enum class Kind : uint8_t {
  kNull = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

void put_u32(std::string& out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

// Big-endian fixed-width field at `at`; the caller has checked the bounds.
template <typename T>
T load_be(const char* at) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  T v;
  std::memcpy(&v, at, sizeof(T));
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 4) {
      v = __builtin_bswap32(v);
    } else {
      v = __builtin_bswap64(v);
    }
  }
  return v;
}

Status truncated() {
  return Status(ErrorCode::kParseError, "row decode: truncated");
}

}  // namespace

std::string encode_row(const Row& row) {
  std::string out;
  out.reserve(row.size() * 9 + 4);
  put_u32(out, static_cast<uint32_t>(row.size()));
  for (const Value& value : row) {
    if (value.is_null()) {
      out.push_back(static_cast<char>(Kind::kNull));
    } else if (value.is_i32()) {
      out.push_back(static_cast<char>(Kind::kInt32));
      put_u32(out, static_cast<uint32_t>(value.as_i32()));
    } else if (value.is_i64()) {
      out.push_back(static_cast<char>(Kind::kInt64));
      put_u64(out, static_cast<uint64_t>(value.as_i64()));
    } else if (value.is_f64()) {
      out.push_back(static_cast<char>(Kind::kDouble));
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      const double d = value.as_f64();
      std::memcpy(&bits, &d, sizeof(bits));
      put_u64(out, bits);
    } else {
      const std::string& s = value.as_str();
      out.push_back(static_cast<char>(Kind::kString));
      put_u32(out, static_cast<uint32_t>(s.size()));
      out.append(s);
    }
  }
  return out;
}

Result<Row> decode_row(std::string_view bytes) {
  const char* const data = bytes.data();
  const size_t size = bytes.size();
  if (size < 4) return truncated();
  const uint32_t count = load_be<uint32_t>(data);
  size_t pos = 4;
  // Every column takes at least its kind byte; check before reserving.
  if (count > size - pos) {
    return Status(ErrorCode::kParseError, "row decode: column count overflow");
  }
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (pos >= size) {
      return Status(ErrorCode::kParseError, "row decode: truncated kind");
    }
    const auto kind = static_cast<Kind>(data[pos++]);
    switch (kind) {
      case Kind::kNull:
        row.push_back(Value::null());
        break;
      case Kind::kInt32:
        if (size - pos < 4) return truncated();
        row.push_back(
            Value::i32(static_cast<int32_t>(load_be<uint32_t>(data + pos))));
        pos += 4;
        break;
      case Kind::kInt64:
        if (size - pos < 8) return truncated();
        row.push_back(
            Value::i64(static_cast<int64_t>(load_be<uint64_t>(data + pos))));
        pos += 8;
        break;
      case Kind::kDouble: {
        if (size - pos < 8) return truncated();
        const uint64_t bits = load_be<uint64_t>(data + pos);
        pos += 8;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(Value::f64(d));
        break;
      }
      case Kind::kString: {
        if (size - pos < 4) return truncated();
        const uint32_t len = load_be<uint32_t>(data + pos);
        pos += 4;
        if (len > size - pos) {
          return Status(ErrorCode::kParseError, "row decode: truncated string");
        }
        row.push_back(Value::str(std::string(data + pos, len)));
        pos += len;
        break;
      }
      default:
        return Status(ErrorCode::kParseError, "row decode: bad kind byte");
    }
  }
  if (pos != size) {
    return Status(ErrorCode::kParseError, "row decode: trailing bytes");
  }
  return row;
}

std::string row_to_display(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].to_display();
  }
  out += ")";
  return out;
}

}  // namespace sky::db
