#include "db/column_batch.h"

#include <cassert>
#include <cstring>

namespace sky::db {

namespace {
// Byte-level mirror of the row codec in row.cpp (kept in sync by the
// encode-parity tests in db_engine_test / bulk_loader_test).
enum class Kind : uint8_t {
  kNull = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

// Same big-endian layout as row.cpp's helpers, but written through a stack
// buffer in one append — encode_row_to is the single hottest function of
// the batch publish path and byte-at-a-time push_back dominates it.
void put_u32(std::string& out, uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v >> 24), static_cast<char>(v >> 16),
      static_cast<char>(v >> 8), static_cast<char>(v)};
  out.append(bytes, sizeof(bytes));
}

void put_u64(std::string& out, uint64_t v) {
  const char bytes[8] = {
      static_cast<char>(v >> 56), static_cast<char>(v >> 48),
      static_cast<char>(v >> 40), static_cast<char>(v >> 32),
      static_cast<char>(v >> 24), static_cast<char>(v >> 16),
      static_cast<char>(v >> 8),  static_cast<char>(v)};
  out.append(bytes, sizeof(bytes));
}
}  // namespace

ColumnBatch::ColumnBatch(std::vector<ColumnType> types) {
  columns_.resize(types.size());
  for (size_t c = 0; c < types.size(); ++c) columns_[c].type = types[c];
}

ColumnBatch::ColumnBatch(const TableDef& def) {
  columns_.resize(def.columns.size());
  for (size_t c = 0; c < def.columns.size(); ++c) {
    columns_[c].type = def.columns[c].type;
  }
}

bool ColumnBatch::aligned() const {
  for (const Column& col : columns_) {
    if (col.length != columns_[0].length) return false;
  }
  return true;
}

void ColumnBatch::push_null(size_t col) {
  Column& c = columns_[col];
  c.nulls.push_back(1);
  switch (c.type) {
    case ColumnType::kDouble:
      c.doubles.push_back(0.0);
      break;
    case ColumnType::kString:
      c.str_ends.push_back(static_cast<uint32_t>(c.arena.size()));
      break;
    default:
      c.ints.push_back(0);
  }
  ++c.length;
}

void ColumnBatch::push_i64(size_t col, int64_t v) {
  assert(integer_family(col));
  Column& c = columns_[col];
  c.nulls.push_back(0);
  c.ints.push_back(v);
  ++c.length;
}

void ColumnBatch::push_f64(size_t col, double v) {
  assert(columns_[col].type == ColumnType::kDouble);
  Column& c = columns_[col];
  c.nulls.push_back(0);
  c.doubles.push_back(v);
  ++c.length;
}

void ColumnBatch::push_str(size_t col, std::string_view v) {
  assert(columns_[col].type == ColumnType::kString);
  Column& c = columns_[col];
  c.nulls.push_back(0);
  c.arena.append(v);
  c.str_ends.push_back(static_cast<uint32_t>(c.arena.size()));
  ++c.length;
}

void ColumnBatch::set_i64(size_t col, size_t row, int64_t v) {
  assert(integer_family(col));
  Column& c = columns_[col];
  c.nulls[row] = 0;
  c.ints[row] = v;
}

void ColumnBatch::set_f64(size_t col, size_t row, double v) {
  assert(columns_[col].type == ColumnType::kDouble);
  Column& c = columns_[col];
  c.nulls[row] = 0;
  c.doubles[row] = v;
}

std::string_view ColumnBatch::str_at(size_t row, size_t col) const {
  const Column& c = columns_[col];
  const uint32_t start = row == 0 ? 0 : c.str_ends[row - 1];
  return std::string_view(c.arena).substr(start, c.str_ends[row] - start);
}

void ColumnBatch::remove_rows(const std::vector<uint32_t>& rows) {
  if (rows.empty()) return;
  assert(aligned());
  for (Column& c : columns_) {
    size_t write = 0;      // next surviving row's destination
    size_t next_drop = 0;  // cursor into `rows`
    size_t arena_write = 0;
    for (size_t r = 0; r < c.length; ++r) {
      const bool drop = next_drop < rows.size() && rows[next_drop] == r;
      if (drop) {
        ++next_drop;
        continue;
      }
      c.nulls[write] = c.nulls[r];
      switch (c.type) {
        case ColumnType::kDouble:
          c.doubles[write] = c.doubles[r];
          break;
        case ColumnType::kString: {
          const size_t start = r == 0 ? 0 : c.str_ends[r - 1];
          const size_t len = c.str_ends[r] - start;
          // Survivors only shift left, so the in-place move is safe.
          std::memmove(c.arena.data() + arena_write, c.arena.data() + start,
                       len);
          arena_write += len;
          c.str_ends[write] = static_cast<uint32_t>(arena_write);
          break;
        }
        default:
          c.ints[write] = c.ints[r];
      }
      ++write;
    }
    c.length = write;
    c.nulls.resize(write);
    switch (c.type) {
      case ColumnType::kDouble:
        c.doubles.resize(write);
        break;
      case ColumnType::kString:
        c.str_ends.resize(write);
        c.arena.resize(arena_write);
        break;
      default:
        c.ints.resize(write);
    }
  }
}

void ColumnBatch::append_from(const ColumnBatch& other) {
  assert(num_columns() == other.num_columns());
  assert(other.aligned());
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column& dst = columns_[i];
    const Column& src = other.columns_[i];
    assert(dst.type == src.type);
    dst.nulls.insert(dst.nulls.end(), src.nulls.begin(), src.nulls.end());
    switch (dst.type) {
      case ColumnType::kDouble:
        dst.doubles.insert(dst.doubles.end(), src.doubles.begin(),
                           src.doubles.end());
        break;
      case ColumnType::kString: {
        const uint32_t base = static_cast<uint32_t>(dst.arena.size());
        dst.arena.append(src.arena);
        dst.str_ends.reserve(dst.str_ends.size() + src.str_ends.size());
        for (const uint32_t end : src.str_ends) {
          dst.str_ends.push_back(base + end);
        }
        break;
      }
      default:
        dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
    }
    dst.length += src.length;
  }
}

void ColumnBatch::clear() {
  for (Column& c : columns_) {
    c.length = 0;
    c.nulls.clear();
    c.ints.clear();
    c.doubles.clear();
    c.str_ends.clear();
    c.arena.clear();
  }
}

size_t ColumnBatch::append_rows(std::span<const Row> rows) {
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    if (row.size() != columns_.size()) return r;
    for (size_t c = 0; c < row.size(); ++c) {
      if (!row[c].matches(columns_[c].type)) return r;
    }
    for (size_t c = 0; c < row.size(); ++c) {
      const Value& value = row[c];
      if (value.is_null()) {
        push_null(c);
      } else if (value.is_i32()) {
        push_i64(c, value.as_i32());
      } else if (value.is_i64()) {
        push_i64(c, value.as_i64());
      } else if (value.is_f64()) {
        push_f64(c, value.as_f64());
      } else {
        push_str(c, value.as_str());
      }
    }
  }
  return rows.size();
}

void ColumnBatch::reserve(size_t rows, size_t string_bytes_hint) {
  for (Column& c : columns_) {
    c.nulls.reserve(rows);
    switch (c.type) {
      case ColumnType::kDouble:
        c.doubles.reserve(rows);
        break;
      case ColumnType::kString:
        c.str_ends.reserve(rows);
        c.arena.reserve(string_bytes_hint);
        break;
      default:
        c.ints.reserve(rows);
    }
  }
}

Value ColumnBatch::value(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.nulls[row] != 0) return Value::null();
  switch (c.type) {
    case ColumnType::kInt32:
      return Value::i32(static_cast<int32_t>(c.ints[row]));
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      return Value::i64(c.ints[row]);
    case ColumnType::kDouble:
      return Value::f64(c.doubles[row]);
    case ColumnType::kString:
      return Value::str(std::string(str_at(row, col)));
  }
  return Value::null();
}

Row ColumnBatch::row(size_t r) const {
  Row out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out.push_back(value(r, c));
  return out;
}

void ColumnBatch::encode_row_to(size_t r, std::string& out) const {
  // One reservation up front: header + worst-case 9 fixed bytes per column
  // + this row's string payload.
  size_t bytes = 4 + columns_.size() * 9;
  for (const Column& c : columns_) {
    if (c.type == ColumnType::kString && c.nulls[r] == 0) {
      bytes += c.str_ends[r] - (r == 0 ? 0 : c.str_ends[r - 1]);
    }
  }
  out.reserve(out.size() + bytes);
  put_u32(out, static_cast<uint32_t>(columns_.size()));
  for (size_t ci = 0; ci < columns_.size(); ++ci) {
    const Column& c = columns_[ci];
    if (c.nulls[r] != 0) {
      out.push_back(static_cast<char>(Kind::kNull));
      continue;
    }
    switch (c.type) {
      case ColumnType::kInt32:
        out.push_back(static_cast<char>(Kind::kInt32));
        put_u32(out, static_cast<uint32_t>(
                         static_cast<int32_t>(c.ints[r])));
        break;
      case ColumnType::kInt64:
      case ColumnType::kTimestamp:
        out.push_back(static_cast<char>(Kind::kInt64));
        put_u64(out, static_cast<uint64_t>(c.ints[r]));
        break;
      case ColumnType::kDouble: {
        out.push_back(static_cast<char>(Kind::kDouble));
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(double));
        std::memcpy(&bits, &c.doubles[r], sizeof(bits));
        put_u64(out, bits);
        break;
      }
      case ColumnType::kString: {
        const std::string_view s = str_at(r, ci);
        out.push_back(static_cast<char>(Kind::kString));
        put_u32(out, static_cast<uint32_t>(s.size()));
        out.append(s);
        break;
      }
    }
  }
}

void ColumnBatch::append_cell_to_key(index::KeyEncoder& encoder, size_t r,
                                     size_t col) const {
  const Column& c = columns_[col];
  if (c.nulls[r] != 0) {
    encoder.append_null();
    return;
  }
  switch (c.type) {
    case ColumnType::kInt32:
      encoder.append_int32(static_cast<int32_t>(c.ints[r]));
      return;
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      encoder.append_int64(c.ints[r]);
      return;
    case ColumnType::kDouble:
      encoder.append_double(c.doubles[r]);
      return;
    case ColumnType::kString:
      encoder.append_string(str_at(r, col));
      return;
  }
}

size_t ColumnBatch::data_bytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) {
    bytes += c.nulls.size() + c.ints.size() * sizeof(int64_t) +
             c.doubles.size() * sizeof(double) +
             c.str_ends.size() * sizeof(uint32_t) + c.arena.size();
  }
  return bytes;
}

size_t ColumnBatch::memory_bytes() const {
  size_t bytes = sizeof(ColumnBatch);
  for (const Column& c : columns_) {
    bytes += sizeof(Column) + c.nulls.capacity() +
             c.ints.capacity() * sizeof(int64_t) +
             c.doubles.capacity() * sizeof(double) +
             c.str_ends.capacity() * sizeof(uint32_t) + c.arena.capacity();
  }
  return bytes;
}

}  // namespace sky::db
