#include "core/sdss_loader.h"

#include <vector>

#include "catalog/parser.h"
#include "common/csv.h"
#include "common/strings.h"
#include "db/engine.h"

namespace sky::core {

SdssStyleLoader::SdssStyleLoader(client::Session& session,
                                 const db::Schema& schema,
                                 SdssLoaderOptions options)
    : session_(session), schema_(schema), options_(options) {}

SdssStyleLoader::~SdssStyleLoader() = default;

Result<FileLoadReport> SdssStyleLoader::load_text(std::string_view file_name,
                                                  std::string_view text) {
  FileLoadReport report;
  report.file_name = std::string(file_name);
  report.bytes = static_cast<int64_t>(text.size());
  const Nanos start = session_.now();
  catalog::CatalogParser parser(schema_);

  // ---- Phase 1: convert to per-table CSV files ------------------------
  Nanos phase_start = session_.now();
  const auto table_count = static_cast<size_t>(schema_.table_count());
  std::vector<std::vector<std::string>> csv_lines(table_count);
  for (std::string_view line : split_view(text, '\n')) {
    ++report.lines_read;
    if (!catalog::CatalogParser::is_data_line(line)) continue;
    session_.client_compute(options_.client_parse_cost_per_row +
                            options_.csv_convert_cost_per_row);
    auto parsed = parser.parse_line(line);
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
    std::vector<std::string> fields;
    fields.reserve(parsed->row.size());
    for (const db::Value& value : parsed->row) {
      fields.push_back(value.is_null() ? "" : value.to_display());
    }
    csv_lines[parsed->table_id].push_back(csv_encode_row(fields));
  }
  phases_.convert += session_.now() - phase_start;

  // ---- Phase 2: bulk load CSVs into the task database, parent-first ---
  phase_start = session_.now();
  db::Engine task_engine(schema_);
  const uint64_t task_txn = task_engine.begin_transaction();
  // Seed the task database with the reference tables so nightly rows'
  // foreign keys resolve during validation. Seed rows are not re-published;
  // they already exist at the destination.
  if (!options_.reference_seed_text.empty()) {
    catalog::CatalogParser seed_parser(schema_);
    for (std::string_view line :
         split_view(options_.reference_seed_text, '\n')) {
      if (!catalog::CatalogParser::is_data_line(line)) continue;
      auto parsed = seed_parser.parse_line(line);
      if (!parsed.is_ok()) continue;
      db::OpCosts scratch;
      const Status seed_status = task_engine.insert_row(
          task_txn, parsed->table_id, parsed->row, scratch);
      (void)seed_status;  // duplicates in the seed are harmless
    }
  }
  std::vector<std::vector<db::Row>> task_rows(table_count);
  for (const uint32_t table_id : schema_.topological_order()) {
    const db::TableDef& def = schema_.table(table_id);
    for (const std::string& csv_line : csv_lines[table_id]) {
      session_.client_compute(options_.task_load_cost_per_row);
      const auto fields = csv_decode_row(csv_line);
      if (!fields.is_ok() || fields->size() != def.columns.size()) {
        ++report.rows_skipped_server;
        continue;
      }
      db::Row row;
      row.reserve(def.columns.size());
      bool decoded = true;
      for (size_t c = 0; c < def.columns.size(); ++c) {
        const auto value =
            db::Value::parse_as(def.columns[c].type, (*fields)[c]);
        if (!value.is_ok()) {
          decoded = false;
          break;
        }
        row.push_back(*value);
      }
      if (!decoded) {
        ++report.rows_skipped_server;
        continue;
      }
      db::OpCosts scratch;
      const Status status =
          task_engine.insert_row(task_txn, table_id, row, scratch);
      if (!status.is_ok()) {
        // Task-database validation rejects the row before publication.
        ++report.rows_skipped_server;
        if (report.errors.size() < options_.max_error_details) {
          report.errors.push_back(LoadError{LoadError::Stage::kServer,
                                            def.name, 0,
                                            db::row_to_display(row), status});
        }
        continue;
      }
      task_rows[table_id].push_back(std::move(row));
    }
  }
  const auto task_commit = task_engine.commit(task_txn);
  if (!task_commit.is_ok()) return task_commit.status();
  phases_.task_load += session_.now() - phase_start;

  // ---- Phase 3: fully validate the task database ----------------------
  phase_start = session_.now();
  session_.client_compute(task_engine.total_rows() *
                          options_.validate_cost_per_row);
  SKY_RETURN_IF_ERROR(task_engine.verify_integrity());
  phases_.validate += session_.now() - phase_start;

  // ---- Phase 4: publish into the destination database ------------------
  phase_start = session_.now();
  for (const uint32_t table_id : schema_.topological_order()) {
    const std::vector<db::Row>& rows = task_rows[table_id];
    const std::string& table_name = schema_.table(table_id).name;
    size_t first = 0;
    while (first < rows.size()) {
      const size_t n = std::min(static_cast<size_t>(options_.batch_size),
                                rows.size() - first);
      const client::BatchOutcome outcome = session_.execute_batch(
          table_id, std::span<const db::Row>(&rows[first], n));
      ++report.db_calls;
      report.rows_loaded += outcome.applied;
      report.loaded_per_table[table_name] += outcome.applied;
      if (outcome.error.has_value()) {
        if (!is_constraint_error(outcome.error->status.code())) {
          return outcome.error->status;  // infrastructure failure
        }
        // Already validated; a failure here is a destination conflict
        // (e.g. re-published file). Skip the row, as SkyLoader would.
        const size_t bad = first + static_cast<size_t>(outcome.applied);
        ++report.rows_skipped_server;
        if (report.errors.size() < options_.max_error_details) {
          report.errors.push_back(
              LoadError{LoadError::Stage::kServer, table_name, 0,
                        db::row_to_display(rows[bad]),
                        outcome.error->status});
        }
        first = bad + 1;
        continue;
      }
      first += n;
    }
  }
  const Status commit_status = session_.commit();
  if (!commit_status.is_ok()) return commit_status;
  ++report.commits;
  phases_.publish += session_.now() - phase_start;

  report.elapsed = session_.now() - start;
  return report;
}

}  // namespace sky::core
