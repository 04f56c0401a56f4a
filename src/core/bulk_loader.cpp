#include "core/bulk_loader.h"

#include <fstream>
#include <functional>
#include <sstream>

#include "catalog/parser.h"
#include "common/log.h"
#include "common/strings.h"

namespace sky::core {

int64_t audit_id_for_file(std::string_view file_name) {
  return static_cast<int64_t>(std::hash<std::string_view>{}(file_name) &
                              0x7FFFFFFFFFFFFFFFULL);
}

BulkLoader::BulkLoader(client::Session& session, const db::Schema& schema,
                       BulkLoaderOptions options)
    : session_(session),
      schema_(schema),
      options_(std::move(options)),
      array_set_(schema, options_.array_config),
      parser_(std::make_unique<catalog::CatalogParser>(schema)) {
  const auto audit = schema.table_id("load_audit");
  if (audit.is_ok()) {
    audit_table_id_ = *audit;
    has_audit_table_ = true;
  }
}

BulkLoader::~BulkLoader() = default;

void BulkLoader::record_error(FileLoadReport& report, LoadError error) {
  if (report.errors.size() < options_.max_error_details) {
    report.errors.push_back(std::move(error));
  }
}

Result<size_t> BulkLoader::batch_columns(uint32_t table_id,
                                         const db::ColumnBatch& rows,
                                         size_t first,
                                         FileLoadReport& report) {
  const std::string& table_name = schema_.table(table_id).name;
  const auto batch = static_cast<size_t>(options_.batch_size);
  while (first < rows.size()) {
    const size_t n = std::min(batch, rows.size() - first);
    const client::BatchOutcome outcome =
        session_.execute_column_batch(table_id, rows, first, n);
    ++report.db_calls;
    report.rows_loaded += outcome.applied;
    report.loaded_per_table[table_name] += outcome.applied;
    if (options_.commit.every_batches > 0 &&
        report.db_calls % options_.commit.every_batches == 0) {
      const Status commit_status = session_.commit();
      if (commit_status.is_ok()) ++report.commits;
    }
    if (outcome.error.has_value()) {
      if (!is_constraint_error(outcome.error->status.code())) {
        // Infrastructure failure (I/O, connection): do not skip data.
        return outcome.error->status;
      }
      // The batch stopped at `applied`: that row is the bad one (materialized
      // only here, for the error detail). Skip it and hand the resume index
      // back so the caller repacks from there.
      const size_t bad = first + static_cast<size_t>(outcome.applied);
      ++report.rows_skipped_server;
      record_error(report,
                   LoadError{LoadError::Stage::kServer, table_name,
                             /*line_number=*/0,
                             db::row_to_display(rows.row(bad)),
                             outcome.error->status});
      return bad + 1;
    }
    first += n;
  }
  return first;
}

Status BulkLoader::flush_batches(FileLoadReport& report) {
  if (array_set_.buffered_rows() == 0) return ok_status();
  ++report.flush_cycles;
  session_.client_compute(array_set_.active_arrays() *
                          options_.flush_cycle_cost_per_array);
  // Bulk loading follows the parent-child relationship order regardless of
  // which array filled first (paper Fig. 2).
  Status failure = ok_status();
  array_set_.for_each_batch_in_topo_order(
      [&](uint32_t table_id, const db::ColumnBatch& batch) {
        if (!failure.is_ok()) return;
        size_t first = 0;
        while (first < batch.size()) {
          auto next = batch_columns(table_id, batch, first, report);
          if (!next.is_ok()) {
            failure = next.status();
            return;
          }
          first = *next;
        }
      });
  SKY_RETURN_IF_ERROR(failure);
  // Keep the column buffers' capacity for the next cycle (arena reuse).
  array_set_.clear_keep_buffers();
  if (options_.commit.every_cycles > 0 &&
      report.flush_cycles % options_.commit.every_cycles == 0) {
    const Status commit_status = session_.commit();
    if (commit_status.is_ok()) ++report.commits;
  }
  return ok_status();
}

Status BulkLoader::ingest(std::string_view text, FileLoadReport& report) {
  catalog::ParsedBlock block;
  size_t pos = 0;
  while (pos <= text.size()) {
    const int64_t base_line = report.lines_read;
    parser_->parse_block(text, pos,
                         static_cast<size_t>(options_.parse_block_rows),
                         block);
    report.lines_read += block.lines_consumed;
    // Client-side parse/validate/transform/compute cost: charged per data
    // line, failing lines included.
    session_.client_compute(block.data_lines *
                            options_.client_parse_cost_per_row);
    for (const catalog::BlockError& error : block.errors) {
      ++report.parse_errors;
      record_error(report,
                   LoadError{LoadError::Stage::kParse, "",
                             base_line + error.line_offset + 1,
                             std::string(error.line.substr(0, 80)),
                             error.status});
    }
    int64_t block_rows = 0;
    for (size_t slot = 0; slot < block.batches.size(); ++slot) {
      const db::ColumnBatch& batch = block.batches[slot];
      if (batch.empty()) continue;
      block_rows += static_cast<int64_t>(batch.size());
      array_set_.append_batch(block.table_ids[slot], batch);
    }
    report.rows_parsed += block_rows;
    if (block_rows > 0) {
      session_.note_buffered_rows(block_rows, array_set_.footprint_bytes());
    }
    if (array_set_.should_flush()) SKY_RETURN_IF_ERROR(flush_batches(report));
  }
  return flush_batches(report);
}

Result<FileLoadReport> BulkLoader::load_text(std::string_view file_name,
                                             std::string_view text) {
  FileLoadReport report;
  report.file_name = std::string(file_name);
  report.bytes = static_cast<int64_t>(text.size());
  const Nanos start = session_.now();

  SKY_RETURN_IF_ERROR(ingest(text, report));

  if (has_audit_table_ && options_.write_audit_row) {
    // The loader's own bookkeeping row. The id derives from the file name;
    // a duplicate (re-load of the same file) is recorded as a skip.
    const int64_t audit_id = audit_id_for_file(file_name);
    const db::Row audit_row = {
        db::Value::i64(audit_id), db::Value::str(std::string(file_name)),
        db::Value::i64(report.rows_loaded),
        db::Value::i64(report.total_skipped()),
        db::Value::timestamp(session_.now())};
    const client::BatchOutcome outcome = session_.execute_batch(
        audit_table_id_, std::span<const db::Row>(&audit_row, 1));
    ++report.db_calls;
    if (outcome.error.has_value()) {
      record_error(report, LoadError{LoadError::Stage::kServer, "load_audit",
                                     0, std::string(file_name),
                                     outcome.error->status});
    }
  }

  const Status commit_status = session_.commit();
  if (!commit_status.is_ok()) return commit_status;
  ++report.commits;
  report.elapsed = session_.now() - start;
  SKY_INFO("loaded %s", report.summary().c_str());
  return report;
}

Result<FileLoadReport> BulkLoader::load_path(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(ErrorCode::kIoError, "cannot open catalog file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_text(path, buffer.str());
}

}  // namespace sky::core
