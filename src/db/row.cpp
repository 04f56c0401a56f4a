#include "db/row.h"

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

Result<uint64_t> get_fixed(std::string_view data, size_t& pos, int bytes) {
  if (pos + static_cast<size_t>(bytes) > data.size()) {
    return Status(ErrorCode::kParseError, "row decode: truncated");
  }
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<unsigned char>(data[pos++]);
  }
  return v;
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
  size_t pos = 0;
  SKY_ASSIGN_OR_RETURN(const uint64_t count, get_fixed(bytes, pos, 4));
  // Every column takes at least its kind byte; check before reserving.
  if (count > bytes.size() - pos) {
    return Status(ErrorCode::kParseError, "row decode: column count overflow");
  }
  Row row;
  row.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (pos >= bytes.size()) {
      return Status(ErrorCode::kParseError, "row decode: truncated kind");
    }
    const auto kind = static_cast<Kind>(bytes[pos++]);
    switch (kind) {
      case Kind::kNull:
        row.push_back(Value::null());
        break;
      case Kind::kInt32: {
        SKY_ASSIGN_OR_RETURN(const uint64_t v, get_fixed(bytes, pos, 4));
        row.push_back(Value::i32(static_cast<int32_t>(
            static_cast<uint32_t>(v))));
        break;
      }
      case Kind::kInt64: {
        SKY_ASSIGN_OR_RETURN(const uint64_t v, get_fixed(bytes, pos, 8));
        row.push_back(Value::i64(static_cast<int64_t>(v)));
        break;
      }
      case Kind::kDouble: {
        SKY_ASSIGN_OR_RETURN(const uint64_t bits, get_fixed(bytes, pos, 8));
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(Value::f64(d));
        break;
      }
      case Kind::kString: {
        SKY_ASSIGN_OR_RETURN(const uint64_t len, get_fixed(bytes, pos, 4));
        if (pos + len > bytes.size()) {
          return Status(ErrorCode::kParseError, "row decode: truncated string");
        }
        row.push_back(Value::str(std::string(bytes.substr(pos, len))));
        pos += len;
        break;
      }
      default:
        return Status(ErrorCode::kParseError, "row decode: bad kind byte");
    }
  }
  if (pos != bytes.size()) {
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
