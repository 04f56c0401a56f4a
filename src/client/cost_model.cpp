#include "client/cost_model.h"

namespace sky::client {

Nanos CostModel::server_cpu_time(const db::OpCosts& costs) const {
  Nanos time = 0;
  time += costs.rows_applied * server_row_base;
  time += costs.check_evals * per_check_eval;
  time += costs.index_node_visits * per_index_node_visit;
  time += costs.fk_checks * per_fk_check;
  time += costs.fk_node_visits * per_index_node_visit;
  time += costs.heap_bytes * per_heap_kb / 1024;
  time += costs.wal_bytes * per_wal_kb / 1024;
  time += costs.index_updates * per_index_entry_base;
  time += costs.index_int_columns * per_index_int_column;
  time += costs.index_float_columns * per_index_float_column;
  // String keys priced like floats (width-dominated).
  time += costs.index_string_columns * per_index_float_column;
  time += costs.index_leaf_splits * per_leaf_split;
  time += costs.constraint_failures * per_constraint_failure;
  time += costs.cache.writer_scanned_frames * per_writer_scanned_frame;
  time += costs.zone_scan_rows * per_zone_scan_row;
  time += costs.xmatch_candidates * per_xmatch_candidate;
  time += costs.xmatch_pairs * per_xmatch_pair;
  return time;
}

Nanos CostModel::log_flush_time(int64_t bytes) const {
  return log_flush_base + log_bytes_time(bytes);
}

Nanos CostModel::log_bytes_time(int64_t bytes) const {
  return bytes * per_log_kb / 1024;
}

CostModel paper_calibrated_costs() { return CostModel{}; }

}  // namespace sky::client
