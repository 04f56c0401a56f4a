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

// Send rows [first, first + count) as the longest contiguous runs owned by
// one shard (`shard_of(i)` routes row i), each through `send(shard, at, n)`
// in the original order. The JDBC prefix contract survives the split: a
// failure inside a run stops before any later run is sent, and its row
// index is rebased onto the whole call.
template <typename ShardOf, typename Send>
client::BatchOutcome send_shard_runs(size_t first, size_t count,
                                     const ShardOf& shard_of,
                                     const Send& send) {
  client::BatchOutcome outcome;
  const size_t end = first + count;
  size_t run_start = first;
  while (run_start < end) {
    const int shard = shard_of(run_start);
    size_t run_end = run_start + 1;
    while (run_end < end && shard_of(run_end) == shard) ++run_end;
    client::BatchOutcome run = send(shard, run_start, run_end - run_start);
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
  const ShardRouter& router = repo_.router();
  return send_shard_runs(
      0, rows.size(),
      [&](size_t i) { return router.shard_of_row(table, rows[i]); },
      [&](int shard, size_t at, size_t n) {
        return session_for(shard).execute_batch(table, rows.subspan(at, n));
      });
}

client::BatchOutcome ShardedSession::execute_column_batch(
    uint32_t table, const ColumnBatch& batch, size_t first, size_t count) {
  if (first > batch.size()) first = batch.size();
  count = std::min(count, batch.size() - first);
  const ShardRouter& router = repo_.router();
  // Sub-ranges of the same ColumnBatch: each owning shard takes the
  // columnar path, nothing is materialized here.
  return send_shard_runs(
      first, count,
      [&](size_t i) { return router.shard_of_column_row(table, batch, i); },
      [&](int shard, size_t at, size_t n) {
        return session_for(shard).execute_column_batch(table, batch, at, n);
      });
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
    if (session != nullptr) agg_ += session->stats();
  }
  return agg_;
}

const client::SessionStats& ShardedSession::shard_stats(int shard) const {
  const auto& session = sessions_[static_cast<size_t>(shard)];
  return session != nullptr ? session->stats() : kEmptyStats;
}

}  // namespace sky::db
