#include <algorithm>
#include <chrono>
#include <utility>

#include "shard/sharded_repository.h"

namespace sky::db {

namespace {

Nanos real_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Field-by-field sum of one shard session's stats into the aggregate.
void add_stats(client::SessionStats& agg, const client::SessionStats& s) {
  agg.db_calls += s.db_calls;
  agg.batch_calls += s.batch_calls;
  agg.single_calls += s.single_calls;
  agg.commits += s.commits;
  agg.rows_sent += s.rows_sent;
  agg.rows_applied += s.rows_applied;
  agg.failed_calls += s.failed_calls;
  agg.client_time += s.client_time;
  agg.network_time += s.network_time;
  agg.server_time += s.server_time;
  agg.lock_wait_time += s.lock_wait_time;
  agg.io_time += s.io_time;
  agg.stall_time += s.stall_time;
  agg.txn_slot_wait_time += s.txn_slot_wait_time;
  agg.itl_wait_time += s.itl_wait_time;
  agg.query_lane_wait_time += s.query_lane_wait_time;
  agg.commit_flushes_led += s.commit_flushes_led;
  agg.commit_piggybacks += s.commit_piggybacks;
  agg.commit_leader_wait += s.commit_leader_wait;
  agg.zone_scan_rows += s.zone_scan_rows;
  agg.xmatch_candidates += s.xmatch_candidates;
  agg.xmatch_pairs += s.xmatch_pairs;
}

}  // namespace

const client::SessionStats ShardedSession::kEmptyStats{};

ShardedSession::ShardedSession(ShardedRepository& repo)
    : repo_(repo), start_real_(real_now()) {
  sessions_.resize(static_cast<size_t>(repo.shard_count()));
}

client::Session& ShardedSession::session_for(int shard) {
  auto& slot = sessions_[static_cast<size_t>(shard)];
  if (slot == nullptr) {
    slot = std::make_unique<client::DirectSession>(repo_.shard(shard));
  }
  return *slot;
}

Result<uint32_t> ShardedSession::prepare_insert(std::string_view table_name) {
  // Validation only needs the schema; shard sessions open lazily on first
  // write so an M-shard session costs nothing on shards it never touches.
  return repo_.schema().table_id(table_name);
}

client::BatchOutcome ShardedSession::execute_batch(uint32_t table,
                                                   std::span<const Row> rows) {
  client::BatchOutcome outcome;
  const ShardRouter& router = repo_.router();
  size_t run_start = 0;
  while (run_start < rows.size()) {
    // Longest contiguous run of rows owned by one shard, applied in the
    // original order — the JDBC prefix contract survives the split because
    // a failure inside a run stops before any later run is sent.
    const int shard = router.shard_of_row(table, rows[run_start]);
    size_t run_end = run_start + 1;
    while (run_end < rows.size() &&
           router.shard_of_row(table, rows[run_end]) == shard) {
      ++run_end;
    }
    client::BatchOutcome run = session_for(shard).execute_batch(
        table, rows.subspan(run_start, run_end - run_start));
    outcome.applied += run.applied;
    if (run.error.has_value()) {
      outcome.error = run.error;
      outcome.error->row_index += run_start;
      return outcome;
    }
    run_start = run_end;
  }
  return outcome;
}

client::BatchOutcome ShardedSession::execute_column_batch(
    uint32_t table, const ColumnBatch& batch, size_t first, size_t count) {
  if (first > batch.size()) first = batch.size();
  count = std::min(count, batch.size() - first);
  client::BatchOutcome outcome;
  const ShardRouter& router = repo_.router();
  size_t run_start = first;
  const size_t end = first + count;
  while (run_start < end) {
    const int shard = router.shard_of_column_row(table, batch, run_start);
    size_t run_end = run_start + 1;
    while (run_end < end &&
           router.shard_of_column_row(table, batch, run_end) == shard) {
      ++run_end;
    }
    // Sub-range of the same ColumnBatch: the owning shard takes the
    // batched columnar fast path, nothing is materialized here.
    client::BatchOutcome run = session_for(shard).execute_column_batch(
        table, batch, run_start, run_end - run_start);
    outcome.applied += run.applied;
    if (run.error.has_value()) {
      outcome.error = run.error;
      outcome.error->row_index += run_start - first;
      return outcome;
    }
    run_start = run_end;
  }
  return outcome;
}

Status ShardedSession::execute_single(uint32_t table, const Row& row) {
  return session_for(repo_.router().shard_of_row(table, row))
      .execute_single(table, row);
}

Status ShardedSession::commit() {
  // Commit every shard with an open transaction, shard order. There is no
  // cross-shard atomic commit: a failure is reported after the remaining
  // shards still commit (leaving no stragglers), first error wins.
  Status first_error = Status::ok();
  for (auto& session : sessions_) {
    if (session == nullptr) continue;
    Status status = session->commit();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

void ShardedSession::client_compute(Nanos duration) {
  // Real sessions ignore modeled compute; mirror DirectSession.
  (void)duration;
}

void ShardedSession::note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                                        bool columnar) {
  (void)rows;
  (void)footprint_bytes;
  (void)columnar;
}

Nanos ShardedSession::now() const { return real_now() - start_real_; }

const client::SessionStats& ShardedSession::stats() const {
  agg_ = client::SessionStats{};
  for (const auto& session : sessions_) {
    if (session != nullptr) add_stats(agg_, session->stats());
  }
  return agg_;
}

const client::SessionStats& ShardedSession::shard_stats(int shard) const {
  const auto& session = sessions_[static_cast<size_t>(shard)];
  return session != nullptr ? session->stats() : kEmptyStats;
}

}  // namespace sky::db
