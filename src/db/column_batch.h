// Arena-backed columnar row buffer: the unit of work of the batch ingest
// hot path (DESIGN.md §9, "The bulk ingest pipeline").
//
// A ColumnBatch holds one table's parsed rows column-major: per column a
// null byte-vector plus typed storage — one int64 vector for the integer
// family (kInt32/kInt64/kTimestamp), a double vector for kDouble, and a
// shared character arena with offsets for kString. The batch parser
// (catalog::CatalogParser::parse_block) appends cells column-at-a-time with
// no per-row Row/Value materialization; the engine's batch insert
// (Engine::insert_column_batch) reads cells straight out of the vectors,
// encodes heap bytes and index keys without intermediate Values; row input
// (Engine::insert_batch) is copied in with append_rows.
//
// Encoding parity contract: encode_row_to(i, out) must produce exactly the
// bytes encode_row(row(i)) would — the differential tests and WAL recovery
// depend on the two paths being byte-identical. This holds because every
// stored cell's runtime kind is determined by its declared column type
// (append_rows admits a Row's cell only when its kind matches).
//
// Not thread-safe; a batch belongs to one loader thread at a time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/row.h"
#include "db/schema.h"
#include "db/value.h"
#include "index/key_codec.h"

namespace sky::db {

class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(std::vector<ColumnType> types);
  // Column types taken from the table definition, in column order.
  explicit ColumnBatch(const TableDef& def);

  size_t num_columns() const { return columns_.size(); }
  ColumnType column_type(size_t col) const { return columns_[col].type; }
  // Row count = length of the first column. The writer appends
  // column-at-a-time, so columns disagree transiently mid-block; every
  // public reader requires the aligned state (aligned() in debug builds).
  size_t size() const { return columns_.empty() ? 0 : columns_[0].length; }
  bool empty() const { return size() == 0; }
  // Do all columns currently hold the same number of cells?
  bool aligned() const;

  // ------------------------------------------------------------- writers
  // Append one cell to a column. The integer family (kInt32 / kInt64 /
  // kTimestamp) shares push_i64; int32 range is the caller's contract
  // (catalog parsing rejects out-of-range before storing).
  void push_null(size_t col);
  void push_i64(size_t col, int64_t v);
  void push_f64(size_t col, double v);
  void push_str(size_t col, std::string_view v);
  // In-place update of an existing numeric cell (htmid fill-in, magnitude
  // rounding); clears the null flag.
  void set_i64(size_t col, size_t row, int64_t v);
  void set_f64(size_t col, size_t row, double v);

  // Drop the given rows (ascending, unique indices) with a stable compaction
  // — the parser strips rows that failed conversion after the columnar pass.
  void remove_rows(const std::vector<uint32_t>& rows);

  // Append every row of `other` (same column types) — the array-set merges
  // parser blocks into its per-table buffer with this.
  void append_from(const ColumnBatch& other);

  // Append `rows` in order up to the first one that does not fit the layout
  // (wrong arity, or a non-NULL cell whose kind does not store into its
  // column's type); returns how many were appended. An appended row reads
  // back as an equal Row and encodes to the same bytes.
  size_t append_rows(std::span<const Row> rows);

  // Drop all rows, keep column layout and buffer capacity (arena reuse
  // across parser blocks).
  void clear();
  void reserve(size_t rows, size_t string_bytes_hint = 0);

  // ------------------------------------------------------------- readers
  bool is_null(size_t row, size_t col) const {
    return columns_[col].nulls[row] != 0;
  }
  int64_t i64_at(size_t row, size_t col) const {
    return columns_[col].ints[row];
  }
  double f64_at(size_t row, size_t col) const {
    return columns_[col].doubles[row];
  }
  std::string_view str_at(size_t row, size_t col) const;

  // Cell as a Value (allocates only for strings).
  Value value(size_t row, size_t col) const;
  // Materialize one row (the differential oracle / slow-path bridge).
  Row row(size_t r) const;
  // Serialize row r exactly as encode_row(row(r)) would (parity contract
  // above); appends to `out`.
  void encode_row_to(size_t r, std::string& out) const;
  // Append cell (r, col) to an index key exactly as
  // db::append_value_to_key(encoder, value(r, col), column_type(col)) —
  // but with no Value materialization (strings go straight from the arena).
  void append_cell_to_key(index::KeyEncoder& encoder, size_t r,
                          size_t col) const;

  // Buffer footprint (capacities, not logical sizes) for the array-set
  // memory high-water accounting.
  size_t memory_bytes() const;
  // Bytes of buffered data actually written (logical sizes, not
  // capacities) — what the client paging model should see: reserved but
  // untouched capacity does not page.
  size_t data_bytes() const;

 private:
  struct Column {
    ColumnType type = ColumnType::kInt64;
    size_t length = 0;
    std::vector<uint8_t> nulls;  // 1 = NULL
    std::vector<int64_t> ints;     // kInt32 / kInt64 / kTimestamp
    std::vector<double> doubles;   // kDouble
    std::vector<uint32_t> str_ends;  // kString: end offset of row i in arena
    std::string arena;               // kString payload bytes, concatenated
  };

  bool integer_family(size_t col) const {
    const ColumnType t = columns_[col].type;
    return t == ColumnType::kInt32 || t == ColumnType::kInt64 ||
           t == ColumnType::kTimestamp;
  }

  std::vector<Column> columns_;
};

}  // namespace sky::db
