#include "core/non_bulk_loader.h"

#include "catalog/parser.h"
#include "common/strings.h"

namespace sky::core {

NonBulkLoader::NonBulkLoader(client::Session& session,
                             const db::Schema& schema,
                             NonBulkLoaderOptions options)
    : session_(session),
      schema_(schema),
      options_(options),
      parser_(std::make_unique<catalog::CatalogParser>(schema)) {}

NonBulkLoader::~NonBulkLoader() = default;

Result<bool> NonBulkLoader::send_row(uint32_t table_id, const db::Row& row,
                                     int64_t line_number,
                                     FileLoadReport& report) {
  const std::string& table_name = schema_.table(table_id).name;
  const Status status = session_.execute_single(table_id, row);
  ++report.db_calls;
  if (!status.is_ok() && !is_constraint_error(status.code())) {
    return status;  // infrastructure failure: abort, don't skip data
  }
  if (status.is_ok()) {
    ++report.rows_loaded;
    ++report.loaded_per_table[table_name];
  } else {
    ++report.rows_skipped_server;
    if (report.errors.size() < options_.max_error_details) {
      report.errors.push_back(LoadError{LoadError::Stage::kServer, table_name,
                                        line_number,
                                        db::row_to_display(row), status});
    }
  }
  if (options_.commit.every_rows > 0 &&
      report.rows_loaded > 0 &&
      report.rows_loaded % options_.commit.every_rows == 0) {
    const Status commit_status = session_.commit();
    if (commit_status.is_ok()) ++report.commits;
  }
  return status.is_ok();
}

Result<FileLoadReport> NonBulkLoader::load_text(std::string_view file_name,
                                                std::string_view text) {
  FileLoadReport report;
  report.file_name = std::string(file_name);
  report.bytes = static_cast<int64_t>(text.size());
  const Nanos start = session_.now();

  for (std::string_view line : split_view(text, '\n')) {
    ++report.lines_read;
    if (!catalog::CatalogParser::is_data_line(line)) continue;
    session_.client_compute(options_.client_parse_cost_per_row);
    auto parsed = parser_->parse_line(line);
    if (!parsed.is_ok()) {
      ++report.parse_errors;
      if (report.errors.size() < options_.max_error_details) {
        report.errors.push_back(LoadError{LoadError::Stage::kParse, "",
                                          report.lines_read,
                                          std::string(line.substr(0, 80)),
                                          parsed.status()});
      }
      continue;
    }
    ++report.rows_parsed;
    SKY_RETURN_IF_ERROR(
        send_row(parsed->table_id, parsed->row, report.lines_read, report)
            .status());
  }
  const Status commit_status = session_.commit();
  if (!commit_status.is_ok()) return commit_status;
  ++report.commits;
  report.elapsed = session_.now() - start;
  return report;
}

}  // namespace sky::core
