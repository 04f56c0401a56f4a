#include "db/control_plane.h"

#include <algorithm>

#include "common/strings.h"

namespace sky::db {

namespace {

GateStats gate_delta(const GateStats& now, const GateStats& prev) {
  GateStats d = now;  // gauges (in_use, max_wait) keep the newer value
  d.acquires = now.acquires - prev.acquires;
  d.waits = now.waits - prev.waits;
  d.total_wait = now.total_wait - prev.total_wait;
  d.stalls = now.stalls - prev.stalls;
  d.stall_time = now.stall_time - prev.stall_time;
  return d;
}

core::QueryLaneStats lane_delta(const core::QueryLaneStats& now,
                                const core::QueryLaneStats& prev) {
  core::QueryLaneStats d = now;  // queue_depth / percentiles stay gauges
  d.gate = gate_delta(now.gate, prev.gate);
  d.completed = now.completed - prev.completed;
  return d;
}

}  // namespace

Status PolicyPatch::validate() const {
  if (commit_window.has_value() && *commit_window < 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "update_policies: commit_window must be >= 0");
  }
  if (max_group_commits.has_value() && *max_group_commits < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "update_policies: max_group_commits must be >= 1");
  }
  if (transaction_slots.has_value() && *transaction_slots < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "update_policies: transaction_slots must be >= 1");
  }
  if (itl_slots_per_table.has_value() && *itl_slots_per_table < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "update_policies: itl_slots_per_table must be >= 1");
  }
  return Status::ok();
}

std::string PolicyPatch::describe() const {
  std::string out;
  const auto append = [&out](std::string part) {
    if (!out.empty()) out += " ";
    out += std::move(part);
  };
  if (commit_window.has_value()) {
    append(str_format("commit_window=%.2fms",
                      static_cast<double>(*commit_window) / kMillisecond));
  }
  if (max_group_commits.has_value()) {
    append(str_format("max_group_commits=%lld",
                      static_cast<long long>(*max_group_commits)));
  }
  if (transaction_slots.has_value()) {
    append(str_format("txn_slots=%lld",
                      static_cast<long long>(*transaction_slots)));
  }
  if (itl_slots_per_table.has_value()) {
    append(str_format("itl_slots=%lld",
                      static_cast<long long>(*itl_slots_per_table)));
  }
  if (extent_assignment.has_value()) {
    append(std::string("extent_assignment=") +
           (*extent_assignment == ExtentAssignment::kLeastLoaded
                ? "least_loaded"
                : "round_robin"));
  }
  if (out.empty()) out = "(no change)";
  return out;
}

EngineStats EngineStats::delta_since(const EngineStats& prev) const {
  EngineStats d = *this;

  d.wal.records = wal.records - prev.wal.records;
  d.wal.bytes_appended = wal.bytes_appended - prev.wal.bytes_appended;
  d.wal.flushes = wal.flushes - prev.wal.flushes;
  d.wal.bytes_flushed = wal.bytes_flushed - prev.wal.bytes_flushed;
  d.wal.group_piggybacks = wal.group_piggybacks - prev.wal.group_piggybacks;
  d.wal.commit_requests = wal.commit_requests - prev.wal.commit_requests;
  d.wal.relaxed_acks = wal.relaxed_acks - prev.wal.relaxed_acks;
  d.wal.leader_wait_ns = wal.leader_wait_ns - prev.wal.leader_wait_ns;
  for (size_t i = 0; i < storage::WalStats::kGroupSizeBuckets; ++i) {
    d.wal.group_size_hist[i] =
        wal.group_size_hist[i] - prev.wal.group_size_hist[i];
  }
  // max_unflushed_bytes stays the run-wide high-water mark.

  d.concurrency.transaction_gate = gate_delta(concurrency.transaction_gate,
                                              prev.concurrency.transaction_gate);
  d.concurrency.itl = gate_delta(concurrency.itl, prev.concurrency.itl);

  d.query.interactive = lane_delta(query.interactive, prev.query.interactive);
  d.query.batch = lane_delta(query.batch, prev.query.batch);
  d.query.batch_yields = query.batch_yields - prev.query.batch_yields;

  d.snapshots.chunks_published =
      snapshots.chunks_published - prev.snapshots.chunks_published;
  d.snapshots.rows_published =
      snapshots.rows_published - prev.snapshots.rows_published;
  d.snapshots.merges = snapshots.merges - prev.snapshots.merges;
  d.snapshots.pins_taken = snapshots.pins_taken - prev.snapshots.pins_taken;
  // published_lsn / runs / key_bytes / active_pins / oldest_pin_age stay
  // gauges.

  for (TableExtentStats& table : d.extents) {
    const TableExtentStats* before = nullptr;
    for (const TableExtentStats& candidate : prev.extents) {
      if (candidate.table_id == table.table_id &&
          candidate.extents.size() == table.extents.size()) {
        before = &candidate;
        break;
      }
    }
    if (before == nullptr) continue;  // table shape changed: keep totals
    for (size_t e = 0; e < table.extents.size(); ++e) {
      table.extents[e].rows -= before->extents[e].rows;
      table.extents[e].pages -= before->extents[e].pages;
      table.extents[e].bytes -= before->extents[e].bytes;
    }
  }

  d.total_rows = total_rows - prev.total_rows;
  d.total_heap_bytes = total_heap_bytes - prev.total_heap_bytes;
  // policies stays this snapshot's live values.
  return d;
}

double EngineStats::extent_skew() const {
  double worst = 1.0;
  for (const TableExtentStats& table : extents) {
    if (table.extents.size() < 2) continue;
    int64_t total = 0;
    int64_t max_bytes = 0;
    for (const auto& extent : table.extents) {
      total += extent.bytes;
      max_bytes = std::max(max_bytes, extent.bytes);
    }
    if (total <= 0) continue;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(table.extents.size());
    worst = std::max(worst, static_cast<double>(max_bytes) / mean);
  }
  return worst;
}

}  // namespace sky::db
