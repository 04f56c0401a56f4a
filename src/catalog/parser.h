// Catalog row parsing: the "parse, validate, transform, compute" step of
// the loading pipeline (paper section 4.1, step 2).
//
// Catalog files are ASCII, one row per line: TAG|field|field|...  The tag
// selects the destination table; fields appear in the table's column order.
// The parser:
//   * parses fields by declared column type (type conversion),
//   * normalizes precision on magnitude-like columns (transformation),
//   * computes derived values the repository needs — the object htmid from
//     (ra, dec) via the HTM library (computation).
// Structural problems (unknown tag, wrong arity, malformed numbers) are
// client-side parse errors; domain violations (range checks, duplicate or
// dangling keys) are intentionally left for the database constraints, which
// is where the paper's error-recovery machinery engages.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "db/column_batch.h"
#include "db/row.h"
#include "db/schema.h"

namespace sky::catalog {

struct ParsedRow {
  uint32_t table_id = 0;
  db::Row row;
};

// One structurally bad line found while parsing a block. `line` views into
// the block's input text; `line_offset` is 0-based within the block (the
// caller adds its running line count for absolute numbering).
struct BlockError {
  int64_t line_offset = 0;
  std::string_view line;
  Status status;
};

// Result of one parse_block() call: per-table columnar batches plus the
// errors and line accounting the loaders fold into their reports. The
// object is reused across blocks (clear + refill) so column arenas keep
// their capacity.
struct ParsedBlock {
  // Parallel vectors: batches[i] holds rows destined for table_ids[i]. One
  // slot per tag the parser knows; untouched slots hold empty batches.
  std::vector<uint32_t> table_ids;
  std::vector<db::ColumnBatch> batches;
  // Per slot, the 0-based block line offset of each surviving batch row
  // (row_lines[i][r] is the input line batch i's row r came from) — lets
  // loaders report absolute line numbers for server-side rejections.
  std::vector<std::vector<int64_t>> row_lines;
  // Structural errors in line order (unknown tag, arity, bad numerics) —
  // exactly the rows parse_line would have rejected.
  std::vector<BlockError> errors;
  int64_t lines_consumed = 0;  // every line, blanks and comments included
  int64_t data_lines = 0;      // lines that reached field conversion
};

struct ParserStats {
  int64_t lines = 0;
  int64_t data_rows = 0;
  int64_t comment_lines = 0;
  int64_t parse_errors = 0;
  int64_t htmids_computed = 0;

  // Field-by-field sum (aggregating several loaders' parsers).
  ParserStats& operator+=(const ParserStats& other) {
    lines += other.lines;
    data_rows += other.data_rows;
    comment_lines += other.comment_lines;
    parse_errors += other.parse_errors;
    htmids_computed += other.htmids_computed;
    return *this;
  }
};

class CatalogParser {
 public:
  // The schema must be the PQ schema (or any schema whose tables match the
  // tag mapping); tag tables are resolved once at construction.
  explicit CatalogParser(const db::Schema& schema);

  // Parse one line. Returns a row ready for insertion, or:
  //   * kNotFound status with empty message "comment" semantics — instead we
  //     expose is_data_line() so callers can skip blanks/comments cheaply.
  //   * kParseError for malformed data rows (counted; callers typically
  //     record and skip, mirroring client-side validation).
  Result<ParsedRow> parse_line(std::string_view line);

  // Vectorized batch parse — the columnar ingest hot path. Consumes up to
  // `max_data_rows` data lines from `text` starting at byte `pos` (advanced
  // past every consumed line) and fills `block` with arena-backed column
  // vectors: a memchr-driven delimiter scan collects field spans, numerics
  // convert column-at-a-time (std::from_chars fast path, Value::parse_as
  // fallback for exact error/edge-case parity), magnitudes are rounded and
  // htmids computed in tight loops — no per-row Row/Value materialization.
  //
  // Line accounting matches split(text, '\n') exactly, including the final
  // empty piece after a trailing newline; the input is exhausted once
  // pos > text.size(). Stats advance as if each data line had gone through
  // parse_line gated by is_data_line (the loaders' usage): `lines` counts
  // data lines, comment_lines stays untouched, parse_errors / data_rows /
  // htmids_computed are per-row identical to the row path.
  void parse_block(std::string_view text, size_t& pos, size_t max_data_rows,
                   ParsedBlock& block);

  // Cheap pre-check: should parse_line be called for this line at all?
  static bool is_data_line(std::string_view line);

  const ParserStats& stats() const { return stats_; }

  // HTM depth used for computed object htmids.
  static constexpr int kHtmDepth = 14;

 private:
  struct TableInfo {
    uint32_t table_id = 0;
    const db::TableDef* def = nullptr;
    int computed_htmid_column = -1;  // objects.htmid
    int ra_column = -1;
    int dec_column = -1;
    std::vector<int> mag_precision_columns;  // rounded to 4 decimals
    // File-field index per column (-1 for the computed column): column c of
    // a data row reads fields[field_of_column[c]] after the tag.
    std::vector<int> field_of_column;
  };

  // Per-table scratch for parse_block: row-major field spans plus per-row
  // error bookkeeping, reused across blocks.
  struct SlotScratch {
    std::vector<std::string_view> fields;  // stride = expected field count
    std::vector<int64_t> line_offsets;     // per accepted row
    std::vector<std::string_view> lines;   // per accepted row (error detail)
    std::vector<uint8_t> bad;              // set during conversion
  };

  const TableInfo* info_for_tag(std::string_view tag) const;

  std::vector<std::pair<std::string, TableInfo>> by_tag_;  // sorted by tag
  std::vector<SlotScratch> scratch_;
  ParserStats stats_;
};

}  // namespace sky::catalog
