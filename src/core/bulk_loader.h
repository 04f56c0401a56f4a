// BulkLoader: the paper's bulk-loading algorithm (Fig. 3).
//
// Parse / validate / transform / compute the input a block of lines at a
// time (CatalogParser::parse_block: vectorized, straight into per-table
// column batches), then buffer each block's rows into the array-set array
// for their destination table. When any array fills (or the memory
// high-water mark is hit), run a bulk-loading cycle: walk the arrays in
// parent-before-child order and batch-insert each, batch_size rows per
// database call (Session::execute_column_batch). On a batch error, the
// failing row is identified via its array index, recorded, skipped, and
// loading resumes from the row after it (the batch is repacked) — so one
// bad row costs one extra round trip, and in the worst case (every row
// failing) loading degenerates to singleton inserts, exactly the behaviour
// analyzed in section 4.2.
//
// Commits are infrequent by default (section 4.5.2): only at end of file,
// or per the CommitPolicy (every N cycles / batches) when configured.
#pragma once

#include <string>
#include <string_view>

#include "catalog/parser.h"
#include "client/session.h"
#include "core/array_set.h"
#include "core/commit_policy.h"
#include "core/load_report.h"
#include "db/schema.h"

namespace sky::core {

// The load_audit primary key for a catalog file (derived from its name, so
// re-loading the same file is detected as a duplicate).
int64_t audit_id_for_file(std::string_view file_name);

struct BulkLoaderOptions {
  int64_t batch_size = 40;  // the paper's tuned optimum
  ArraySet::Config array_config;
  // When to commit (every_cycles / every_batches; defaults to the
  // infrequent-commit end-of-file-only policy). The window/durability
  // fields are consumed where the engine or sim server is built, not here.
  CommitPolicy commit;
  // Record a row in load_audit after each file (the loader's own table).
  bool write_audit_row = true;
  // Cap on retained per-row error details (counters stay exact).
  size_t max_error_details = 1000;
  // Data lines consumed per parse_block call.
  int64_t parse_block_rows = 512;
  // Charge per-row client parse/compute time in simulation (cost hook),
  // per data line, failing lines included.
  Nanos client_parse_cost_per_row = 15 * kMicrosecond;
  // Per-cycle, per-array cost: array bookkeeping and statement re-arming
  // for each array a cycle flushes. This is the overhead that makes very
  // small array sizes slow (paper section 4.3 / Fig. 6 left side).
  Nanos flush_cycle_cost_per_array = 700 * kMicrosecond;
  // There is one ingest pipeline: block parse into column batches. Kept as
  // a constant for code that still asks which parser the loader uses.
  static constexpr bool columnar_ingest = true;
};

class BulkLoader {
 public:
  BulkLoader(client::Session& session, const db::Schema& schema,
             BulkLoaderOptions options);
  ~BulkLoader();

  // Load one catalog file's text. The returned report is also valid when
  // the status is OK but rows were skipped; a non-OK status means an
  // infrastructure failure (unknown table etc.), not a data error.
  Result<FileLoadReport> load_text(std::string_view file_name,
                                   std::string_view text);
  // Convenience: read the file from disk, then load_text.
  Result<FileLoadReport> load_path(const std::string& path);

  const BulkLoaderOptions& options() const { return options_; }

  // Client-side parser counters for this loader (lines, data rows, parse
  // errors, htmids computed) — summed across workers into
  // ParallelLoadReport::parser by the coordinator.
  const catalog::ParserStats& parser_stats() const { return parser_->stats(); }

 private:
  // Parse the text block by block into the array-set, flushing whenever it
  // asks to, and flush whatever remains at the end.
  Status ingest(std::string_view text, FileLoadReport& report);
  // The paper's batch_row: send rows [first, rows.size()) in batches; on a
  // constraint error, record it, skip the bad row, and return the index to
  // resume from; returns rows.size() when the array is fully loaded.
  // Non-constraint errors (I/O, connection loss) are infrastructure
  // failures and abort the file load instead of skipping data.
  Result<size_t> batch_columns(uint32_t table_id,
                               const db::ColumnBatch& rows, size_t first,
                               FileLoadReport& report);
  // One bulk-loading cycle over the array-set, parent-first.
  Status flush_batches(FileLoadReport& report);
  void record_error(FileLoadReport& report, LoadError error);

  client::Session& session_;
  const db::Schema& schema_;
  BulkLoaderOptions options_;
  ArraySet array_set_;
  std::unique_ptr<catalog::CatalogParser> parser_;
  uint32_t audit_table_id_ = 0;
  bool has_audit_table_ = false;
};

}  // namespace sky::core
