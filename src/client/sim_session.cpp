#include "client/sim_session.h"

#include <algorithm>

namespace sky::client {

SimSession::SimSession(SimServer& server)
    : server_(server),
      node_(server.assign_node()),
      start_time_(server.env().now()) {}

SimSession::~SimSession() {
  if (txn_.has_value()) {
    const Status status = server_.engine().rollback(*txn_);
    (void)status;
    server_.transaction_slots().release();
  }
}

Result<uint32_t> SimSession::prepare_insert(std::string_view table_name) {
  return server_.engine().table_id(table_name);
}

uint64_t SimSession::ensure_transaction() {
  if (!txn_.has_value()) {
    // The concurrent-transaction limit: queue for a slot in virtual time.
    const Nanos before = server_.env().now();
    server_.transaction_slots().acquire();
    const Nanos waited = server_.env().now() - before;
    stats_.lock_wait_time += waited;
    stats_.txn_slot_wait_time += waited;
    txn_ = server_.engine().begin_transaction();
  }
  return *txn_;
}

void SimSession::charge_io(const storage::IoTally& io) {
  const CostModel& costs = server_.costs();
  for (int role = 0; role < storage::kIoRoleCount; ++role) {
    const int64_t writes = io.pages_written[static_cast<size_t>(role)];
    const int64_t reads = io.pages_read[static_cast<size_t>(role)];
    if (writes == 0 && reads == 0) continue;
    const Nanos duration =
        writes * costs.per_page_write + reads * costs.per_page_read;
    sim::Resource& device =
        server_.device_for(static_cast<storage::IoRole>(role));
    const Nanos before = server_.env().now();
    device.acquire();
    stats_.io_time += server_.env().now() - before;
    server_.env().delay(duration);
    stats_.io_time += duration;
    device.release();
  }
  if (io.log_bytes_flushed > 0) {
    charge_log_flush(io.log_bytes_flushed);
  }
}

void SimSession::charge_log_flush(int64_t bytes) {
  const CostModel& costs = server_.costs();
  sim::Environment& env = server_.env();
  const SimServer::LogGroupDecision decision = server_.join_log_group();
  sim::Resource& device = server_.device_for(storage::IoRole::kLog);
  if (decision.leader) {
    if (decision.window_wait > 0) {
      // The coalescing window: hold the device write open so commits from
      // other sessions fold into this flush.
      env.delay(decision.window_wait);
      stats_.commit_leader_wait += decision.window_wait;
    }
    ++stats_.commit_flushes_led;
    const Nanos duration = costs.log_flush_time(bytes);
    const Nanos before = env.now();
    device.acquire();
    stats_.io_time += env.now() - before;
    env.delay(duration);
    stats_.io_time += duration;
    device.release();
    return;
  }
  // Ride the in-flight group flush: the ack arrives once the group's device
  // write lands; only the marginal bytes are ours to pay on the device.
  ++stats_.commit_piggybacks;
  if (decision.flush_eta > env.now()) {
    const Nanos wait = decision.flush_eta - env.now();
    env.delay(wait);
    stats_.io_time += wait;
  }
  const Nanos duration = costs.log_bytes_time(bytes);
  if (duration > 0) {
    const Nanos before = env.now();
    device.acquire();
    stats_.io_time += env.now() - before;
    env.delay(duration);
    stats_.io_time += duration;
    device.release();
  }
}

db::BatchResult SimSession::server_visit(
    uint32_t table, int64_t rows,
    const std::function<db::BatchResult(uint64_t)>& engine_call) {
  sim::Environment& env = server_.env();
  const CostModel& costs = server_.costs();
  const uint64_t txn = ensure_transaction();

  // Client-side marshalling: per-call overhead plus array binding that grows
  // with the batch size.
  const Nanos marshal = costs.client_call_overhead +
                        rows * rows * costs.client_marshal_per_row_per_batchrow;
  env.delay(marshal);
  stats_.client_time += marshal;

  // Request wire latency.
  env.delay(costs.wire_latency);
  stats_.network_time += costs.wire_latency;

  // Instance-wide concurrent-transaction gate, then the per-table ITL slot.
  // Queueing at either marks the batch as lock-contended.
  sim::Resource& gate = server_.batch_gate();
  const Nanos gate_before = env.now();
  const int64_t gate_depth = gate.queue_depth();
  const bool gate_queued = !gate.try_acquire();
  if (gate_queued) gate.acquire();
  stats_.lock_wait_time += env.now() - gate_before;

  sim::Resource& itl = server_.itl(table);
  const Nanos itl_before = env.now();
  bool itl_queued = !itl.try_acquire();
  if (itl_queued) itl.acquire();
  const Nanos itl_waited = env.now() - itl_before;
  stats_.lock_wait_time += itl_waited;
  stats_.itl_wait_time += itl_waited;
  itl_queued = itl_queued || gate_queued;

  // A CPU on this session's cluster node runs the call.
  sim::Resource& cpus = server_.node_cpus(node_);
  const Nanos cpu_before = env.now();
  cpus.acquire();
  stats_.server_time += env.now() - cpu_before;

  // The call's cache events and page I/O, read before anything yields
  // virtual time, so no other process's touches land in this call's tally.
  const storage::CacheEvents cache_before = server_.cache_events();
  const storage::IoTally io_before = server_.io_tally();
  db::BatchResult result = engine_call(txn);
  result.costs.cache = server_.cache_events().since(cache_before);
  result.costs.io = server_.io_tally().since(io_before);

  Nanos server_time = costs.server_call_overhead +
                      costs.server_cpu_time(result.costs);

  // Cluster hosting: if another node last wrote this table, its current
  // blocks ship across the interconnect before this insert proceeds.
  if (server_.node_count() > 1 && result.rows_applied > 0) {
    const int64_t hot_pages = 1 + result.costs.heap_pages_opened +
                              result.costs.index_leaf_splits;
    const int64_t shipped =
        server_.note_table_writer(table, node_, hot_pages);
    server_time += shipped * server_.config().cache_fusion_per_page;
  }
  if (itl_queued) {
    // Lock-management escalation grows with how deep the lock queue was:
    // longer waiter chains mean more lock-manager work per grant.
    const double depth_factor =
        static_cast<double>(1 + (gate_queued ? gate_depth : 0));
    server_time += static_cast<Nanos>(
        static_cast<double>(server_time) *
        server_.config().policies.concurrency.lock_escalation_factor *
        depth_factor);
  }
  env.delay(server_time);
  stats_.server_time += server_time;

  cpus.release();
  itl.release();
  gate.release();

  // Device I/O implied by the call (dirty evictions, DBWR flushes, reads).
  charge_io(result.costs.io);

  // Occasional long stall when lock queues formed (observed "very
  // infrequent ... stalls and dramatic degradation", section 5.4).
  if (itl_queued && server_.draw_stall()) {
    env.delay(server_.config().policies.concurrency.stall_duration);
    stats_.stall_time += server_.config().policies.concurrency.stall_duration;
  }

  // Reply wire latency.
  env.delay(costs.wire_latency);
  stats_.network_time += costs.wire_latency;
  return result;
}

BatchOutcome SimSession::execute_batch(uint32_t table,
                                       std::span<const db::Row> rows) {
  const db::BatchResult result = server_visit(
      table, static_cast<int64_t>(rows.size()), [&](uint64_t txn) {
        return server_.engine().insert_batch(txn, table, rows);
      });
  stats_.count_batch(static_cast<int64_t>(rows.size()), result);
  return BatchOutcome{result.rows_applied, result.error};
}

BatchOutcome SimSession::execute_column_batch(uint32_t table,
                                              const db::ColumnBatch& batch,
                                              size_t first, size_t count) {
  if (first > batch.size()) first = batch.size();
  count = std::min(count, batch.size() - first);
  const db::BatchResult result = server_visit(
      table, static_cast<int64_t>(count), [&](uint64_t txn) {
        return server_.engine().insert_column_batch(txn, table, batch, first,
                                                    count);
      });
  stats_.count_batch(static_cast<int64_t>(count), result);
  return BatchOutcome{result.rows_applied, result.error};
}

Status SimSession::execute_single(uint32_t table, const db::Row& row) {
  const db::BatchResult result = server_visit(table, 1, [&](uint64_t txn) {
    return server_.engine().insert_batch(
        txn, table, std::span<const db::Row>(&row, 1));
  });
  ++stats_.db_calls;
  ++stats_.single_calls;
  stats_.rows_sent += 1;
  if (result.error.has_value()) {
    ++stats_.failed_calls;
    return result.error->status;
  }
  stats_.rows_applied += 1;
  return ok_status();
}

Status SimSession::commit() {
  if (!txn_.has_value()) return ok_status();
  sim::Environment& env = server_.env();
  const CostModel& costs = server_.costs();

  env.delay(costs.client_call_overhead + costs.wire_latency);
  stats_.client_time += costs.client_call_overhead;
  stats_.network_time += costs.wire_latency;

  sim::Resource& cpus = server_.node_cpus(node_);
  const Nanos cpu_before = env.now();
  cpus.acquire();
  stats_.server_time += env.now() - cpu_before;
  const auto result = server_.engine().commit(*txn_);
  env.delay(costs.server_call_overhead);
  stats_.server_time += costs.server_call_overhead;
  cpus.release();

  if (result.is_ok()) {
    charge_io(result->costs.io);
  }

  env.delay(costs.wire_latency);
  stats_.network_time += costs.wire_latency;

  txn_.reset();
  server_.transaction_slots().release();
  ++stats_.db_calls;
  ++stats_.commits;
  return result.status();
}

void SimSession::client_compute(Nanos duration) {
  server_.env().delay(duration);
  stats_.client_time += duration;
}

void SimSession::note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                                    bool /*columnar*/) {
  const CostModel& costs = server_.costs();
  const bool paging = footprint_bytes > costs.client_array_memory_bytes;
  const Nanos per_row =
      paging ? costs.per_paged_row : costs.per_buffered_row;
  const Nanos duration = rows * per_row;
  server_.env().delay(duration);
  stats_.client_time += duration;
}

Nanos SimSession::now() const { return server_.env().now() - start_time_; }

}  // namespace sky::client
