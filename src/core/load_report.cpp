#include "core/load_report.h"

#include "common/strings.h"

namespace sky::core {

void FileLoadReport::merge_counts(const FileLoadReport& other) {
  bytes += other.bytes;
  lines_read += other.lines_read;
  rows_parsed += other.rows_parsed;
  parse_errors += other.parse_errors;
  rows_loaded += other.rows_loaded;
  rows_skipped_server += other.rows_skipped_server;
  db_calls += other.db_calls;
  flush_cycles += other.flush_cycles;
  commits += other.commits;
  for (const auto& [table, count] : other.loaded_per_table) {
    loaded_per_table[table] += count;
  }
}

std::string FileLoadReport::summary() const {
  return str_format(
      "%s: %lld rows loaded, %lld skipped (%lld parse, %lld constraint), "
      "%lld db calls, %lld cycles, %lld commits, %s",
      file_name.c_str(), static_cast<long long>(rows_loaded),
      static_cast<long long>(total_skipped()),
      static_cast<long long>(parse_errors),
      static_cast<long long>(rows_skipped_server),
      static_cast<long long>(db_calls), static_cast<long long>(flush_cycles),
      static_cast<long long>(commits), format_duration(elapsed).c_str());
}

std::string ParallelLoadReport::summary() const {
  std::string out = str_format(
      "%d workers, %zu files, %lld rows, %s makespan, %.2f MB/s",
      workers, files.size(), static_cast<long long>(total_rows_loaded),
      format_duration(makespan).c_str(), throughput_mb_per_s());
  const int64_t flushes = sessions.commit_flushes_led;
  const int64_t commits = flushes + sessions.commit_piggybacks;
  if (commits > 0) {
    out += str_format(
        ", %lld log flushes / %lld commits (%.2f flushes per commit)",
        static_cast<long long>(flushes), static_cast<long long>(commits),
        static_cast<double>(flushes) / static_cast<double>(commits));
  }
  if (sessions.txn_slot_wait_time > 0 || sessions.itl_wait_time > 0) {
    out += str_format(", gate waits: txn-slot %s, itl %s",
                      format_duration(sessions.txn_slot_wait_time).c_str(),
                      format_duration(sessions.itl_wait_time).c_str());
  }
  if (sessions.stall_time > 0) {
    out += ", stalls " + format_duration(sessions.stall_time);
  }
  return out;
}

std::string render_markdown_report(const ParallelLoadReport& report,
                                   size_t max_errors) {
  std::string out;
  out += "# Load report\n\n";
  out += "- files: " + std::to_string(report.files.size()) + "\n";
  out += "- workers: " + std::to_string(report.workers) + "\n";
  out += "- bytes: " + format_bytes(report.total_bytes) + "\n";
  out += "- rows loaded: " + std::to_string(report.total_rows_loaded) + "\n";
  out += "- makespan: " + format_duration(report.makespan) + "\n";
  out += str_format("- throughput: %.2f MB/s\n", report.throughput_mb_per_s());

  FileLoadReport totals;
  for (const FileLoadReport& file : report.files) totals.merge_counts(file);
  out += str_format("- skipped: %lld parse, %lld constraint\n",
                    static_cast<long long>(totals.parse_errors),
                    static_cast<long long>(totals.rows_skipped_server));
  const catalog::ParserStats& parser = report.parser;
  if (parser.lines > 0) {
    out += str_format(
        "- parser: %lld data lines, %lld rows, %lld errors, "
        "%lld htmids computed\n",
        static_cast<long long>(parser.lines),
        static_cast<long long>(parser.data_rows),
        static_cast<long long>(parser.parse_errors),
        static_cast<long long>(parser.htmids_computed));
  }

  out += "\n## Rows per table\n\n| table | rows |\n|---|---|\n";
  for (const auto& [table, rows] : totals.loaded_per_table) {
    out += "| " + table + " | " + std::to_string(rows) + " |\n";
  }

  out += "\n## Worker balance\n\n"
         "| worker | files | busy | lock wait |\n|---|---|---|---|\n";
  for (size_t w = 0; w < report.worker_busy.size(); ++w) {
    const int files_done = w < report.files_per_worker.size()
                               ? report.files_per_worker[w]
                               : 0;
    const Nanos lock_wait =
        w < report.worker_lock_wait.size() ? report.worker_lock_wait[w] : 0;
    out += str_format("| %zu | %d | %s | %s |\n", w, files_done,
                      format_duration(report.worker_busy[w]).c_str(),
                      format_duration(lock_wait).c_str());
  }

  const client::SessionStats& sessions = report.sessions;
  if (sessions.txn_slot_wait_time > 0 || sessions.itl_wait_time > 0 ||
      sessions.stall_time > 0) {
    out += "\n## Admission gates\n\n";
    out += "- txn-slot wait: " +
           format_duration(sessions.txn_slot_wait_time) + "\n";
    out += "- itl wait: " + format_duration(sessions.itl_wait_time) + "\n";
    out += "- stall time: " + format_duration(sessions.stall_time) + "\n";
  }

  size_t shown = 0;
  for (const FileLoadReport& file : report.files) {
    for (const LoadError& error : file.errors) {
      if (shown == 0) out += "\n## First errors\n\n";
      if (shown++ >= max_errors) break;
      out += str_format(
          "- `%s` %s: %s (%s)\n", file.file_name.c_str(),
          error.table.empty() ? "(parse)" : error.table.c_str(),
          error.status.to_string().substr(0, 100).c_str(),
          error.detail.substr(0, 60).c_str());
    }
    if (shown > max_errors) break;
  }
  return out;
}

}  // namespace sky::core
