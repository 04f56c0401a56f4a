#include "index/key_codec.h"

#include <bit>
#include <cstring>

namespace sky::index {

namespace {

constexpr char kTagNull = '\x00';
constexpr char kTagValue = '\x01';

// One present fixed-width field: the value tag, then the low `Bytes` bytes
// of `value` big-endian, written with a single append.
template <size_t Bytes>
void append_fixed(std::string& out, uint64_t value) {
  char field[1 + Bytes];
  field[0] = kTagValue;
  for (size_t i = 0; i < Bytes; ++i) {
    field[1 + i] = static_cast<char>(value >> ((Bytes - 1 - i) * 8));
  }
  out.append(field, sizeof(field));
}

uint64_t read_big_endian(std::string_view data, size_t pos, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value = (value << 8) | static_cast<unsigned char>(data[pos + static_cast<size_t>(i)]);
  }
  return value;
}

// Total-order transform for doubles: monotone map from double comparison to
// unsigned integer comparison. -0.0 and +0.0 encode differently (-0.0 first),
// which is fine for index ordering (lookups encode the probe the same way).
uint64_t double_to_ordered(double value) {
  uint64_t bits = std::bit_cast<uint64_t>(value);
  if (bits & 0x8000000000000000ULL) {
    return ~bits;  // negative: flip everything
  }
  return bits | 0x8000000000000000ULL;  // positive: flip sign bit
}

double ordered_to_double(uint64_t ordered) {
  uint64_t bits;
  if (ordered & 0x8000000000000000ULL) {
    bits = ordered & 0x7FFFFFFFFFFFFFFFULL;
  } else {
    bits = ~ordered;
  }
  return std::bit_cast<double>(bits);
}

}  // namespace

KeyEncoder& KeyEncoder::append_null() {
  buffer_.push_back(kTagNull);
  return *this;
}

KeyEncoder& KeyEncoder::append_int32(int32_t value) {
  append_fixed<4>(buffer_, static_cast<uint32_t>(value) ^ 0x80000000U);
  return *this;
}

KeyEncoder& KeyEncoder::append_int64(int64_t value) {
  append_fixed<8>(buffer_,
                  static_cast<uint64_t>(value) ^ 0x8000000000000000ULL);
  return *this;
}

KeyEncoder& KeyEncoder::append_double(double value) {
  append_fixed<8>(buffer_, double_to_ordered(value));
  return *this;
}

KeyEncoder& KeyEncoder::append_string(std::string_view value) {
  buffer_.push_back(kTagValue);
  for (char c : value) {
    if (c == '\x00') {
      buffer_.push_back('\x00');
      buffer_.push_back('\xFF');
    } else {
      buffer_.push_back(c);
    }
  }
  buffer_.push_back('\x00');
  buffer_.push_back('\x01');
  return *this;
}

std::string encoded_key_successor(std::string key) {
  while (!key.empty()) {
    const auto last = static_cast<unsigned char>(key.back());
    if (last != 0xFF) {
      key.back() = static_cast<char>(last + 1);
      return key;
    }
    key.pop_back();  // carry
  }
  return key;  // "" = +infinity
}

Result<bool> KeyDecoder::read_tag() {
  if (pos_ >= data_.size()) {
    return Status(ErrorCode::kParseError, "key decoder: past end");
  }
  const char tag = data_[pos_++];
  if (tag == kTagNull) return false;
  if (tag == kTagValue) return true;
  return Status(ErrorCode::kParseError, "key decoder: bad field tag");
}

Result<std::optional<int32_t>> KeyDecoder::decode_int32() {
  SKY_ASSIGN_OR_RETURN(const bool present, read_tag());
  if (!present) return std::optional<int32_t>();
  if (pos_ + 4 > data_.size()) {
    return Status(ErrorCode::kParseError, "key decoder: truncated int32");
  }
  const uint32_t flipped =
      static_cast<uint32_t>(read_big_endian(data_, pos_, 4));
  pos_ += 4;
  return std::optional<int32_t>(
      static_cast<int32_t>(flipped ^ 0x80000000U));
}

Result<std::optional<int64_t>> KeyDecoder::decode_int64() {
  SKY_ASSIGN_OR_RETURN(const bool present, read_tag());
  if (!present) return std::optional<int64_t>();
  if (pos_ + 8 > data_.size()) {
    return Status(ErrorCode::kParseError, "key decoder: truncated int64");
  }
  const uint64_t flipped = read_big_endian(data_, pos_, 8);
  pos_ += 8;
  return std::optional<int64_t>(
      static_cast<int64_t>(flipped ^ 0x8000000000000000ULL));
}

Result<std::optional<double>> KeyDecoder::decode_double() {
  SKY_ASSIGN_OR_RETURN(const bool present, read_tag());
  if (!present) return std::optional<double>();
  if (pos_ + 8 > data_.size()) {
    return Status(ErrorCode::kParseError, "key decoder: truncated double");
  }
  const uint64_t ordered = read_big_endian(data_, pos_, 8);
  pos_ += 8;
  return std::optional<double>(ordered_to_double(ordered));
}

Result<std::optional<std::string>> KeyDecoder::decode_string() {
  SKY_ASSIGN_OR_RETURN(const bool present, read_tag());
  if (!present) return std::optional<std::string>();
  std::string out;
  while (true) {
    if (pos_ >= data_.size()) {
      return Status(ErrorCode::kParseError, "key decoder: unterminated string");
    }
    const char c = data_[pos_++];
    if (c != '\x00') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= data_.size()) {
      return Status(ErrorCode::kParseError, "key decoder: truncated escape");
    }
    const char next = data_[pos_++];
    if (next == '\x01') break;      // terminator
    if (next == '\xFF') {
      out.push_back('\x00');        // escaped NUL
      continue;
    }
    return Status(ErrorCode::kParseError, "key decoder: bad escape");
  }
  return std::optional<std::string>(std::move(out));
}

}  // namespace sky::index
