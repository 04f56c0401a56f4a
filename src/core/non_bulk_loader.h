// NonBulkLoader: the baseline the paper measures bulk loading against
// (section 5.1) — "a series of individual SQL insert statements", one
// database call per row, issued in file order. File order is parent-before-
// child by construction of the catalog extraction, so no buffering is
// needed; errors are skipped row by row.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "catalog/parser.h"
#include "client/session.h"
#include "core/commit_policy.h"
#include "core/load_report.h"
#include "db/schema.h"

namespace sky::core {

struct NonBulkLoaderOptions {
  // When to commit (every_rows; 0 = only at end of file).
  CommitPolicy commit;
  size_t max_error_details = 1000;
  Nanos client_parse_cost_per_row = 15 * kMicrosecond;
};

class NonBulkLoader {
 public:
  NonBulkLoader(client::Session& session, const db::Schema& schema,
                NonBulkLoaderOptions options = {});
  ~NonBulkLoader();

  Result<FileLoadReport> load_text(std::string_view file_name,
                                   std::string_view text);

  // Client-side parser counters (aggregated by the coordinator).
  const catalog::ParserStats& parser_stats() const { return parser_->stats(); }

 private:
  // Send one parsed row (one database call) and fold the outcome into the
  // report; `line_number` is the 1-based input line for error details.
  Result<bool> send_row(uint32_t table_id, const db::Row& row,
                        int64_t line_number, FileLoadReport& report);

  client::Session& session_;
  const db::Schema& schema_;
  NonBulkLoaderOptions options_;
  std::unique_ptr<catalog::CatalogParser> parser_;
};

}  // namespace sky::core
