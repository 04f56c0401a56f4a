// Client session: the JDBC-like surface the loaders are written against.
//
// The same loader code (core::BulkLoader, core::NonBulkLoader, the parallel
// coordinator) runs against either implementation:
//   * DirectSession — real time, real threads, wraps the engine directly;
//     used by tests and examples.
//   * SimSession    — virtual time on a shared SimServer (8 CPUs,
//     transaction slots, per-table ITL slots, devices); used by benchmarks
//     to regenerate the paper's figures deterministically.
//
// Batch semantics are the JDBC core API's (paper section 4.3): execute_batch
// applies rows in order; on the first failure earlier rows stay applied, the
// failing index is reported, and the rest of the batch is discarded and
// cannot be re-applied.
//
// Transactions: a session carries at most one open transaction, opened
// lazily by the first insert and closed by commit() — matching the loader's
// long-running-transaction, infrequent-commit usage (section 4.5.2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/status.h"
#include "common/units.h"
#include "db/engine.h"

namespace sky::client {

struct BatchOutcome {
  int64_t applied = 0;
  std::optional<db::BatchError> error;
};

struct SessionStats {
  int64_t db_calls = 0;          // round trips: batches + singles + commits
  int64_t batch_calls = 0;
  int64_t single_calls = 0;
  int64_t commits = 0;
  int64_t rows_sent = 0;
  int64_t rows_applied = 0;
  int64_t failed_calls = 0;      // calls that reported an error
  // Time decomposition. Simulation sessions fill all of these from the
  // server model; real sessions fill the wait fields from OpCosts (real
  // nanoseconds blocked on engine latches and admission gates).
  Nanos client_time = 0;
  Nanos network_time = 0;
  Nanos server_time = 0;
  Nanos lock_wait_time = 0;
  Nanos io_time = 0;
  Nanos stall_time = 0;
  // Admission-gate breakdown (subsets of lock_wait_time except stall_time,
  // which is its own bucket): instance-wide transaction-slot waits vs.
  // per-table ITL waits. Same field names in both execution modes, so
  // ParallelLoadReport holds one summed SessionStats for either.
  Nanos txn_slot_wait_time = 0;
  Nanos itl_wait_time = 0;
  // Group-commit accounting: commits where this session led the covering
  // log-device write vs. rode another session's flush, and the
  // commit-coalescing window time it paid as leader. Filled by both
  // backends (real runs from OpCosts, simulation from the server's
  // log-device model).
  int64_t commit_flushes_led = 0;
  int64_t commit_piggybacks = 0;
  Nanos commit_leader_wait = 0;

  // Count one batch call that sent `rows` rows (call, row and failure
  // counters; the same in both execution modes).
  void count_batch(int64_t rows, const db::BatchResult& result);
  // Fold one engine call's OpCosts into the wait and commit fields (every
  // field a real session fills from the engine).
  void absorb(const db::OpCosts& costs);
  // Field-by-field sum (aggregating several sessions' stats).
  SessionStats& operator+=(const SessionStats& other);
};

class Session {
 public:
  virtual ~Session() = default;

  // Resolve and validate a destination table once (PreparedStatement
  // creation). Returned handle is the engine table id.
  virtual Result<uint32_t> prepare_insert(std::string_view table_name) = 0;

  // Send a batch (one database call).
  virtual BatchOutcome execute_batch(uint32_t table,
                                     std::span<const db::Row> rows) = 0;
  // Send rows [first, first + count) of a columnar batch (one database
  // call) with execute_batch's exact JDBC semantics; the error row index is
  // relative to `first`. Every session implements it on the engine's
  // columnar path (db::Engine::insert_column_batch) or forwards it to one
  // that does, so column traffic never turns back into rows; a decorator
  // that counts calls counts both batch kinds.
  virtual BatchOutcome execute_column_batch(uint32_t table,
                                            const db::ColumnBatch& batch,
                                            size_t first, size_t count) = 0;
  // Send a single-row insert (one database call) — the non-bulk baseline.
  virtual Status execute_single(uint32_t table, const db::Row& row) = 0;

  // Commit the open transaction (no-op success if none).
  virtual Status commit() = 0;

  // Charge client-side computation (parse / validate / transform / htmid).
  // Real sessions ignore this — their compute already took real time.
  virtual void client_compute(Nanos duration) = 0;

  // Report array-set buffering activity so the client memory model can
  // charge paging when the buffered footprint exceeds client memory.
  // `columnar` is unused: every array-set append is a column-buffer append.
  // The parameter stays so existing overrides keep compiling.
  virtual void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                                  bool columnar = false) = 0;

  // Elapsed time on this session's clock (virtual or real).
  virtual Nanos now() const = 0;

  virtual const SessionStats& stats() const = 0;
};

// Real-time session over a shared engine. Thread-safe usage model: one
// session per loader thread (sessions are not shared across threads; the
// engine itself is thread-safe).
class DirectSession final : public Session {
 public:
  explicit DirectSession(db::Engine& engine);
  ~DirectSession() override;

  Result<uint32_t> prepare_insert(std::string_view table_name) override;
  BatchOutcome execute_batch(uint32_t table,
                             std::span<const db::Row> rows) override;
  BatchOutcome execute_column_batch(uint32_t table,
                                    const db::ColumnBatch& batch, size_t first,
                                    size_t count) override;
  Status execute_single(uint32_t table, const db::Row& row) override;
  Status commit() override;
  void client_compute(Nanos duration) override;
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override;
  Nanos now() const override;
  const SessionStats& stats() const override { return stats_; }

 private:
  uint64_t ensure_transaction();

  db::Engine& engine_;
  std::optional<uint64_t> txn_;
  SessionStats stats_;
  Nanos start_real_ = 0;
};

}  // namespace sky::client
