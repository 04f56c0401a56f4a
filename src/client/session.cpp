#include "client/session.h"

#include <algorithm>
#include <chrono>

namespace sky::client {

void SessionStats::count_batch(int64_t rows, const db::BatchResult& result) {
  ++db_calls;
  ++batch_calls;
  rows_sent += rows;
  rows_applied += result.rows_applied;
  if (result.error.has_value()) ++failed_calls;
}

void SessionStats::absorb(const db::OpCosts& costs) {
  lock_wait_time += costs.lock_wait_ns;
  txn_slot_wait_time += costs.txn_slot_wait_ns;
  itl_wait_time += costs.itl_wait_ns;
  stall_time += costs.stall_ns;
  commit_flushes_led += costs.commit_flushes_led;
  commit_piggybacks += costs.commit_piggybacks;
  commit_leader_wait += costs.commit_leader_wait_ns;
}

SessionStats& SessionStats::operator+=(const SessionStats& other) {
  db_calls += other.db_calls;
  batch_calls += other.batch_calls;
  single_calls += other.single_calls;
  commits += other.commits;
  rows_sent += other.rows_sent;
  rows_applied += other.rows_applied;
  failed_calls += other.failed_calls;
  client_time += other.client_time;
  network_time += other.network_time;
  server_time += other.server_time;
  lock_wait_time += other.lock_wait_time;
  io_time += other.io_time;
  stall_time += other.stall_time;
  txn_slot_wait_time += other.txn_slot_wait_time;
  itl_wait_time += other.itl_wait_time;
  commit_flushes_led += other.commit_flushes_led;
  commit_piggybacks += other.commit_piggybacks;
  commit_leader_wait += other.commit_leader_wait;
  return *this;
}

namespace {
Nanos real_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

DirectSession::DirectSession(db::Engine& engine)
    : engine_(engine), start_real_(real_now()) {}

DirectSession::~DirectSession() {
  // An abandoned open transaction is rolled back (connection close).
  if (txn_.has_value()) {
    const Status status = engine_.rollback(*txn_);
    (void)status;
  }
}

uint64_t DirectSession::ensure_transaction() {
  if (!txn_.has_value()) {
    db::OpCosts costs;
    txn_ = engine_.begin_transaction(&costs);
    stats_.absorb(costs);
  }
  return *txn_;
}

Result<uint32_t> DirectSession::prepare_insert(std::string_view table_name) {
  return engine_.table_id(table_name);
}

BatchOutcome DirectSession::execute_batch(uint32_t table,
                                          std::span<const db::Row> rows) {
  const db::BatchResult result =
      engine_.insert_batch(ensure_transaction(), table, rows);
  stats_.count_batch(static_cast<int64_t>(rows.size()), result);
  stats_.absorb(result.costs);
  return BatchOutcome{result.rows_applied, result.error};
}

BatchOutcome DirectSession::execute_column_batch(uint32_t table,
                                                 const db::ColumnBatch& batch,
                                                 size_t first, size_t count) {
  if (first > batch.size()) first = batch.size();
  count = std::min(count, batch.size() - first);
  const db::BatchResult result = engine_.insert_column_batch(
      ensure_transaction(), table, batch, first, count);
  stats_.count_batch(static_cast<int64_t>(count), result);
  stats_.absorb(result.costs);
  return BatchOutcome{result.rows_applied, result.error};
}

Status DirectSession::execute_single(uint32_t table, const db::Row& row) {
  const uint64_t txn = ensure_transaction();
  db::OpCosts costs;
  const Status status = engine_.insert_row(txn, table, row, costs);
  ++stats_.db_calls;
  ++stats_.single_calls;
  stats_.rows_sent += 1;
  stats_.absorb(costs);
  if (status.is_ok()) {
    stats_.rows_applied += 1;
  } else {
    ++stats_.failed_calls;
  }
  return status;
}

Status DirectSession::commit() {
  if (!txn_.has_value()) return ok_status();
  const auto result = engine_.commit(*txn_);
  txn_.reset();
  ++stats_.db_calls;
  ++stats_.commits;
  if (result.is_ok()) stats_.absorb(result->costs);
  return result.status();
}

void DirectSession::client_compute(Nanos duration) {
  // Real compute already consumed real time; nothing to charge.
  (void)duration;
}

void DirectSession::note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                                       bool columnar) {
  (void)rows;
  (void)footprint_bytes;
  (void)columnar;
}

Nanos DirectSession::now() const { return real_now() - start_real_; }

}  // namespace sky::client
