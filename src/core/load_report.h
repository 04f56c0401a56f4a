// Load reports: what happened while loading a file / a night.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/parser.h"
#include "client/session.h"
#include "common/status.h"
#include "common/units.h"

namespace sky::core {

// One skipped row (client parse error or server constraint violation).
struct LoadError {
  enum class Stage { kParse, kServer };
  Stage stage;
  std::string table;        // empty for unparseable lines
  int64_t line_number = 0;  // 1-based line in the source file, if known
  std::string detail;       // row rendering or raw line prefix
  Status status;
};

struct FileLoadReport {
  std::string file_name;
  int64_t bytes = 0;
  int64_t lines_read = 0;
  int64_t rows_parsed = 0;
  int64_t parse_errors = 0;
  int64_t rows_loaded = 0;
  int64_t rows_skipped_server = 0;  // constraint violations skipped
  std::map<std::string, int64_t> loaded_per_table;
  int64_t db_calls = 0;
  int64_t flush_cycles = 0;
  int64_t commits = 0;
  Nanos elapsed = 0;
  // Detailed error records (capped; counters above are complete).
  std::vector<LoadError> errors;

  int64_t total_skipped() const { return parse_errors + rows_skipped_server; }
  void merge_counts(const FileLoadReport& other);
  std::string summary() const;
};

struct ParallelLoadReport {
  std::vector<FileLoadReport> files;
  int workers = 0;
  Nanos makespan = 0;
  int64_t total_bytes = 0;
  int64_t total_rows_loaded = 0;
  std::vector<Nanos> worker_busy;   // per worker
  // Per worker: time spent blocked on engine latches (real-thread runs; from
  // OpCosts::lock_wait_ns) or on modeled lock resources (simulation runs).
  std::vector<Nanos> worker_lock_wait;
  std::vector<int> files_per_worker;
  int files_skipped = 0;  // already-loaded files skipped (idempotent rerun)
  // The worker sessions' stats summed: group-commit flushes led, commits
  // that rode another worker's flush and leader window wait (commit
  // flushes per commit = flushes / (flushes + piggybacks)); admission-gate
  // waits on transaction slots and ITLs, and injected stall time. Filled
  // identically by real and simulation runs.
  client::SessionStats sessions;
  // The workers' parser stats summed: data lines parsed, rows that
  // converted cleanly, structural parse errors and computed object htmids.
  // These cross-check the per-file parse_errors counters and the htmid
  // index row count.
  catalog::ParserStats parser;

  double throughput_mb_per_s() const {
    if (makespan <= 0) return 0.0;
    return (static_cast<double>(total_bytes) / 1e6) / to_seconds(makespan);
  }
  std::string summary() const;
};

// Render a night's results as a Markdown report: totals, per-table rows,
// per-worker balance, and the first error details.
std::string render_markdown_report(const ParallelLoadReport& report,
                                   size_t max_errors = 10);

}  // namespace sky::core
