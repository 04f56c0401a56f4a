#include "db/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>

#include "common/strings.h"
#include "db/control_plane.h"
#include "index/key_codec.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace sky::db {

namespace {

// Tally the types of the columns behind `keys` inserted index entries over
// the same columns (cost-model input: float keys are priced higher than
// integer keys). The counts depend only on the schema, so a run is tallied
// once, multiplied by its length.
void count_index_columns(const TableDef& def,
                         const std::vector<int>& column_indices, int64_t keys,
                         OpCosts& costs) {
  for (const int idx : column_indices) {
    switch (def.columns[static_cast<size_t>(idx)].type) {
      case ColumnType::kDouble:
        costs.index_float_columns += keys;
        break;
      case ColumnType::kString:
        costs.index_string_columns += keys;
        break;
      default:
        costs.index_int_columns += keys;
    }
  }
}

// Keep freed heap in the process for reuse. Scans, gathers and loader
// batches allocate and free tens of MB of small blocks over and over. With
// glibc's adaptive thresholds, whether a free hands that memory back to
// the system depends on the heap's layout and on the largest mapped block
// freed so far, so the same scan faults every page in again on some
// passes and not on others. Fixed thresholds make the cost the same on
// every pass: a block of 128 KB or more is mapped on its own and unmapped
// when freed; smaller blocks come from the heap, which a free never trims
// (an explicit malloc_trim still does). Set once per process, by the
// first engine.
void keep_freed_heap() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  });
#endif
}

EngineOptions normalize(EngineOptions options) {
  if (options.heap_extents < 1) options.heap_extents = 1;
  if (options.heap_extents > storage::kMaxHeapExtents) {
    options.heap_extents = storage::kMaxHeapExtents;
  }
  return options;
}
}  // namespace

Engine::Engine(Schema schema, EngineOptions options)
    : schema_(std::move(schema)),
      options_(normalize(options)),
      wal_(storage::WalOptions{options.retain_wal_records,
                               options.latency.commit_log_flush,
                               options.policies.commit.commit_window,
                               std::max<int64_t>(
                                   options.policies.commit.max_group_commits,
                                   1),
                               options.policies.commit.durability}),
      txn_gate_(options.policies.concurrency.max_concurrent_transactions),
      snapshots_(static_cast<size_t>(schema_.table_count())) {
  keep_freed_heap();
  tables_.reserve(static_cast<size_t>(schema_.table_count()));
  uint32_t next_file_id = 0;
  for (uint32_t id = 0; id < static_cast<uint32_t>(schema_.table_count());
       ++id) {
    Table table(id, schema_.table(id), options_.heap_extents,
                options_.latency.extent_append_write);
    table.heap_page_file = next_file_id++;
    table.pk_page_file = next_file_id++;
    for (SecondaryIndex& secondary : table.secondaries()) {
      secondary.page_file = next_file_id++;
    }
    table.fk_parent_ids.reserve(table.def().foreign_keys.size());
    for (const ForeignKey& fk : table.def().foreign_keys) {
      table.fk_parent_ids.push_back(schema_.table_id(fk.parent_table).value());
    }
    if (options_.policies.concurrency.itl_gated()) {
      // Per-table ITL admission gate. Each gate gets an independent stall
      // stream (seed salted with the table id) so stall draws are
      // deterministic per table regardless of load interleaving.
      const core::ConcurrencyPolicy& policy = options_.policies.concurrency;
      table.set_itl_gate(std::make_unique<SlotGate>(
          policy.itl_slots_per_table,
          GateStallModel{policy.stall_probability,
                                   policy.stall_duration,
                                   policy.stall_seed ^
                                       (0x9E3779B97F4A7C15ULL * (id + 1))},
          &itl_wait_graph_));
    }
    tables_.push_back(std::move(table));
  }
  extent_assignment_.store(options_.extent_assignment,
                           std::memory_order_relaxed);
}

void Engine::pay_batch_latency(const OpCosts& costs, double escalation) const {
  const ModeledDeviceLatency& latency = options_.latency;
  if (!latency.enabled()) return;
  Nanos total =
      latency.batch_redo_write +
      (costs.heap_pages_opened + costs.index_leaf_splits) *
          latency.data_write_per_page;
  if (escalation > 0) {
    // Lock escalation: a transaction whose ITL admission was contended pays
    // inflated server time per call (same model the sim session applies).
    total += static_cast<Nanos>(static_cast<double>(total) * escalation);
  }
  if (total > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(total));
  }
}

// ------------------------------------------------------------ transactions

Engine::Transaction* Engine::find_transaction(uint64_t txn_id) {
  const std::scoped_lock lock(txn_mu_);
  const auto it = transactions_.find(txn_id);
  return it == transactions_.end() ? nullptr : &it->second;
}

uint64_t Engine::begin_transaction(OpCosts* costs) {
  // The gate is acquired before any engine lock so a session blocked on a
  // slot never holds latches other sessions need to finish and release.
  const GateAcquire acquired = txn_gate_.acquire(0);
  if (costs != nullptr) {
    costs->txn_slot_wait_ns += acquired.wait_ns;
    costs->lock_wait_ns += acquired.wait_ns;
  }
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t extent = choose_extent(nullptr, std::nullopt);
  const std::scoped_lock lock(txn_mu_);
  transactions_.emplace(id, Transaction{id, extent, {}, {}});
  return id;
}

uint32_t Engine::choose_extent(const Table* table,
                               std::optional<uint32_t> assigned) {
  if (table != nullptr && extent_assignment_.load(std::memory_order_relaxed) ==
                              ExtentAssignment::kLeastLoaded) {
    return table->heap().least_loaded_extent();
  }
  if (assigned.has_value()) return *assigned;
  // Round-robin: concurrent sessions land on distinct heap append streams
  // (modulo heap_extents, so 1 extent means extent 0 for everyone — the
  // pre-sharding behaviour).
  return next_extent_.fetch_add(1, std::memory_order_relaxed) %
         options_.heap_extents;
}

Result<Engine::TableAdmission> Engine::admit_table(Transaction& txn,
                                                   uint32_t tid,
                                                   OpCosts& costs) {
  for (const TableAdmission& admission : txn.admissions) {
    if (admission.table_id == tid) return admission;
  }
  TableAdmission admission;
  admission.table_id = tid;
  Table& table = tables_[tid];
  // Gate first, extent second: blocked admissions hold nothing, and a
  // least-loaded pick made after the wait sees the post-wait occupancy.
  if (SlotGate* gate = table.itl_gate(); gate != nullptr) {
    // Acquired as the transaction: before blocking, the gate consults the
    // shared waits-for graph; a wait that would close a cycle is refused
    // and the requester becomes the deadlock victim (its transaction stays
    // live — the caller rolls back, releasing every slot it holds).
    const GateAcquire acquired = gate->acquire(txn.id);
    if (acquired.deadlock) {
      return Status(ErrorCode::kDeadlockDetected,
                    "insert: waits-for cycle on ITL admission to table " +
                        table.def().name + " (transaction " +
                        std::to_string(txn.id) + " chosen as victim)");
    }
    admission.gated = true;
    admission.contended = acquired.contended;
    admission.queue_depth = acquired.queue_depth;
    costs.itl_wait_ns += acquired.wait_ns;
    costs.lock_wait_ns += acquired.wait_ns;
    costs.stall_ns += acquired.stall_ns;
  }
  admission.extent = choose_extent(&table, txn.extent);
  txn.admissions.push_back(admission);
  return admission;
}

Result<CommitResult> Engine::commit(uint64_t txn_id) {
  CommitResult result;
  result.costs.lock_wait_ns += lock_shared_timed(engine_mu_);
  std::shared_lock<std::shared_mutex> engine_lock(engine_mu_, std::adopt_lock);
  if (find_transaction(txn_id) == nullptr) {
    return Status(ErrorCode::kNotFound, "commit: unknown transaction");
  }
  // With other transactions live, a leader holds the coalescing window
  // open even when their appends have not landed yet; a lone committer
  // reports false and never waits (same rule the sim server applies to
  // its transaction slots). The window closes early once every live
  // transaction has queued its commit: nobody else can join the group.
  int64_t live_transactions = 0;
  {
    const std::scoped_lock txn_lock(txn_mu_);
    live_transactions = static_cast<int64_t>(transactions_.size());
  }
  wal_.append(storage::WalRecordType::kCommit, txn_id, 0, "");
  // Group commit: may ride a flush already in flight, or lead one — holding
  // the coalescing window open first — and pay the modeled log-device
  // latency (with no engine latches held beyond the shared engine lock).
  // Relaxed durability acks here without flushing.
  const storage::WalFlushResult flush =
      wal_.flush(/*expect_group=*/live_transactions > 1, live_transactions);
  result.costs.wal_bytes += flush.bytes_flushed;
  result.costs.io.log_bytes_flushed += flush.bytes_flushed;
  result.costs.commit_flushes_led += flush.led ? 1 : 0;
  result.costs.commit_piggybacks += flush.piggybacked ? 1 : 0;
  result.costs.commit_leader_wait_ns += flush.leader_wait;
  std::vector<TableAdmission> admissions;
  std::vector<UndoRun> undo;
  {
    const std::scoped_lock lock(txn_mu_);
    const auto it = transactions_.find(txn_id);
    if (it != transactions_.end()) {
      admissions = std::move(it->second.admissions);
      undo = std::move(it->second.undo);
      transactions_.erase(it);
    }
  }
  // The commit is durable and the transaction gone from the live map —
  // turn its undo records into snapshot chunks so pinned readers gain this
  // commit as one atomic publication. Still under the shared engine lock
  // (publication must not interleave with a DDL world-stop).
  if (!undo.empty()) {
    publish_snapshot_chunks(std::move(undo));
  }
  engine_lock.unlock();
  // Gates released outside every lock, ITL first then the transaction slot
  // (reverse of the acquisition order).
  for (const TableAdmission& admission : admissions) {
    if (admission.gated) {
      tables_[admission.table_id].itl_gate()->release(txn_id);
    }
  }
  txn_gate_.release(0);
  return result;
}

Status Engine::rollback(uint64_t txn_id) {
  // Engine-exclusive: undo touches several tables' heaps and trees, and
  // taking their latches here (parent before child) would invert the
  // child->parent nested order inserts use. Rollbacks are rare in the
  // append-only workload, so stop-the-world is the simple safe choice.
  std::vector<TableAdmission> admissions;
  {
    const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
    const std::unique_lock<std::mutex> txn_lock(txn_mu_);
    const auto it = transactions_.find(txn_id);
    if (it == transactions_.end()) {
      return Status(ErrorCode::kNotFound, "rollback: unknown transaction");
    }
    Transaction& txn = it->second;
    // Entry position of each row in a sorted key run.
    const auto entry_of_row = [](const KeyRun& keys) {
      std::vector<uint32_t> entry(keys.size());
      for (size_t e = 0; e < keys.size(); ++e) {
        entry[keys.row(e)] = static_cast<uint32_t>(e);
      }
      return entry;
    };
    // Newest record first, each record's rows newest first: the reverse of
    // the insert order, one kRollbackInsert per row.
    for (auto run = txn.undo.rbegin(); run != txn.undo.rend(); ++run) {
      Table& table = tables_[run->table_id];
      const std::vector<uint32_t> pk_entry = entry_of_row(run->pk);
      std::vector<std::vector<uint32_t>> secondary_entry(
          run->secondaries.size());
      for (size_t s = 0; s < run->secondaries.size(); ++s) {
        if (run->secondaries[s].has_value()) {
          secondary_entry[s] = entry_of_row(*run->secondaries[s]);
        }
      }
      for (size_t r = run->rows.size(); r-- > 0;) {
        const Status heap_status = table.heap().mark_deleted(run->rows[r].slot);
        assert(heap_status.is_ok());
        (void)heap_status;
        const bool pk_erased = table.pk_tree().erase(run->pk.key(pk_entry[r]));
        assert(pk_erased);
        (void)pk_erased;
        for (size_t s = 0; s < run->secondaries.size(); ++s) {
          if (run->secondaries[s].has_value()) {
            table.secondaries()[s].tree.erase(
                run->secondaries[s]->key(secondary_entry[s][r]));
          }
        }
        wal_.append(storage::WalRecordType::kRollbackInsert, txn_id,
                    run->table_id, "");
      }
    }
    admissions = std::move(txn.admissions);
    transactions_.erase(it);
  }
  // Abort path releases every admission gate too — outside the locks, same
  // order as commit — so an aborted transaction never leaks an ITL slot
  // (and a deadlock victim's rollback unwedges the cycle's survivors).
  for (const TableAdmission& admission : admissions) {
    if (admission.gated) {
      tables_[admission.table_id].itl_gate()->release(txn_id);
    }
  }
  txn_gate_.release(0);
  return ok_status();
}

// ----------------------------------------------------------------- inserts

template <typename Body>
std::optional<BatchError> Engine::admitted_insert(uint64_t txn_id,
                                                  uint32_t tid, size_t count,
                                                  OpCosts& costs,
                                                  const Body& body) {
  Transaction* txn = find_transaction(txn_id);
  // ITL admission precedes the engine rwlock in the lock order: a session
  // blocked on a full gate holds no engine lock, so DDL and rollback (which
  // take the rwlock exclusive) can always drain ahead of it.
  const Result<TableAdmission> admitted = [&]() -> Result<TableAdmission> {
    if (txn == nullptr) {
      return Status(ErrorCode::kFailedPrecondition,
                    "insert: unknown transaction");
    }
    if (tid >= tables_.size()) {
      return Status(ErrorCode::kNotFound, "insert: bad table id");
    }
    return admit_table(*txn, tid, costs);
  }();
  if (!admitted.is_ok()) {
    ++costs.constraint_failures;
    return BatchError{0, admitted.status()};
  }
  const TableAdmission admission = *admitted;
  costs.lock_wait_ns += lock_shared_timed(engine_mu_);
  std::shared_lock<std::shared_mutex> engine_lock(engine_mu_, std::adopt_lock);
  std::optional<BatchError> error = body(*txn, admission.extent);
  if (error.has_value()) {
    // JDBC semantics: earlier rows stay, this row failed, the remainder of
    // the call is discarded.
    ++costs.constraint_failures;
    costs.rows_applied += static_cast<int64_t>(error->row_index);
  } else {
    costs.rows_applied += static_cast<int64_t>(count);
  }
  engine_lock.unlock();
  const double escalation =
      admission.contended
          ? options_.policies.concurrency.lock_escalation_factor *
                static_cast<double>(1 + admission.queue_depth)
          : 0.0;
  pay_batch_latency(costs, escalation);
  return error;
}

BatchResult Engine::insert_batch(uint64_t txn_id, uint32_t tid,
                                 std::span<const Row> rows,
                                 std::optional<uint32_t> extent) {
  BatchResult result;
  result.error = admitted_insert(
      txn_id, tid, rows.size(), result.costs,
      [&](Transaction& txn, uint32_t admitted) {
        return insert_rows(txn, tid, rows, extent.value_or(admitted),
                           result.costs);
      });
  result.rows_applied = result.costs.rows_applied;
  return result;
}

BatchResult Engine::insert_column_batch(uint64_t txn_id, uint32_t tid,
                                        const ColumnBatch& batch, size_t first,
                                        size_t count) {
  if (first > batch.size()) first = batch.size();
  count = std::min(count, batch.size() - first);
  BatchResult result;
  result.error = admitted_insert(
      txn_id, tid, count, result.costs, [&](Transaction& txn, uint32_t extent) {
        const TableDef& def = tables_[tid].def();
        bool laid_out = batch.num_columns() == def.columns.size();
        for (size_t c = 0; laid_out && c < def.columns.size(); ++c) {
          laid_out = batch.column_type(c) == def.columns[c].type;
        }
        if (laid_out) {
          return insert_runs(txn, tid, batch, first, count, extent,
                             result.costs);
        }
        std::vector<Row> rows;
        rows.reserve(count);
        for (size_t i = 0; i < count; ++i) rows.push_back(batch.row(first + i));
        return insert_rows(txn, tid, rows, extent, result.costs);
      });
  result.rows_applied = result.costs.rows_applied;
  return result;
}

Status Engine::insert_row(uint64_t txn_id, uint32_t tid, const Row& row,
                          OpCosts& costs) {
  BatchResult result =
      insert_batch(txn_id, tid, std::span<const Row>(&row, 1));
  costs += result.costs;
  return result.error.has_value() ? std::move(result.error->status)
                                  : ok_status();
}

std::optional<BatchError> Engine::insert_rows(Transaction& txn, uint32_t tid,
                                              std::span<const Row> rows,
                                              uint32_t extent,
                                              OpCosts& costs) {
  const Table& table = tables_[tid];
  ColumnBatch batch(table.def());
  batch.reserve(rows.size());
  const size_t fit = batch.append_rows(rows);
  std::optional<BatchError> failure =
      insert_runs(txn, tid, batch, 0, fit, extent, costs);
  if (failure.has_value() || fit == rows.size()) return failure;
  const Status status = validate_row(table, rows[fit]);
  return BatchError{
      fit, status.is_ok() ? Status(ErrorCode::kInternal,
                                   table.def().name + ": row adapter mismatch")
                          : status};
}

std::optional<BatchError> Engine::insert_runs(Transaction& txn, uint32_t tid,
                                              const ColumnBatch& batch,
                                              size_t first, size_t count,
                                              uint32_t extent,
                                              OpCosts& costs) {
  for (size_t done = 0; done < count;) {
    std::vector<std::string> pk_keys =
        column_run_keys(tables_[tid], batch, first + done, count - done);
    const size_t run = pk_keys.size();
    std::optional<BatchError> failure = insert_column_run_latched(
        txn, tid, batch, first + done, run, std::move(pk_keys), extent, costs);
    if (failure.has_value()) {
      failure->row_index += done;
      return failure;
    }
    done += run;
  }
  return std::nullopt;
}

std::vector<std::string> Engine::column_run_keys(const Table& table,
                                                 const ColumnBatch& batch,
                                                 size_t first,
                                                 size_t count) const {
  // Keys arriving strictly increasing can settle every constraint up front
  // in one run (a row never parents another row of its own table: Schema
  // rejects self-referential FKs). A key not above its predecessor starts
  // the next run.
  std::vector<std::string> pk_keys;
  pk_keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string key =
        encode_key(table.pk_column_indices(), BatchCells(batch, first + i));
    if (i > 0 && key <= pk_keys.back()) break;
    pk_keys.push_back(std::move(key));
  }
  return pk_keys;
}

namespace {

// Move `it` forward to the first entry of `tree` >= `key`: step along the
// current leaf, and descend from the root again once the walk leaves that
// leaf short of `key`. A forward merge of sorted keys against the leaf
// chain calls this once per key.
void seek_forward(const index::BPlusTree& tree,
                  index::BPlusTree::Iterator& it, std::string_view key) {
  while (it.valid() && it.key() < key) {
    const uint32_t leaf = it.leaf_page_id();
    it.next();
    if (it.valid() && it.leaf_page_id() != leaf && it.key() < key) {
      it = tree.seek(key);
    }
  }
}

// Index of the first run key already in the table's PK tree (`limit` if
// none): one forward merge of the sorted run against the tree's leaf chain
// instead of `limit` point probes. Caller holds the table's index latch.
size_t first_duplicate_pk(const Table& table,
                          const std::vector<std::string>& pk_keys,
                          size_t limit) {
  if (limit == 0) return 0;
  const index::BPlusTree& tree = table.pk_tree();
  index::BPlusTree::Iterator it = tree.seek(pk_keys[0]);
  for (size_t i = 0; i < limit; ++i) {
    seek_forward(tree, it, pk_keys[i]);
    if (it.valid() && it.key() == pk_keys[i]) return i;
  }
  return limit;
}

// Rows [first, first + count) of `batch` encoded end to end into one
// buffer: no allocation per row.
storage::PackedRows pack_rows(const ColumnBatch& batch, size_t first,
                              size_t count) {
  storage::PackedRows rows;
  rows.ends.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.encode_row_to(first + i, rows.bytes);
    rows.end_row();
  }
  return rows;
}

}  // namespace

std::optional<BatchError> Engine::insert_column_run_latched(
    Transaction& txn, uint32_t tid, const ColumnBatch& batch, size_t first,
    size_t count, std::vector<std::string> pk_keys, uint32_t extent,
    OpCosts& costs) {
  Table& table = tables_[tid];
  const TableDef& def = table.def();
  // The run only locates the first failing row; its status always comes
  // from the row rules (validate_row, then check_constraints) on that one
  // materialized row, so messages and rule order are the per-row ones.
  size_t limit = count;
  std::optional<BatchError> failure;
  // Row i failed a PK check under the index latch: check_constraints,
  // status-only, names the violation.
  const auto fail_constraint_at = [&](size_t i) {
    Status status =
        check_constraints(table, batch.row(first + i), pk_keys[i]);
    failure = BatchError{
        i, status.is_ok()
               ? Status(ErrorCode::kInternal,
                        def.name + ": batch constraint locator mismatch")
               : std::move(status)};
    limit = i;
  };

  // Columnar validation screen (no latch — immutable schema only): find the
  // earliest row any validation rule rejects; validate_row names the rule.
  size_t bad_row = count;
  for (size_t c = 0; c < def.columns.size(); ++c) {
    const ColumnDef& column = def.columns[c];
    if (!column.nullable) {
      for (size_t i = 0; i < bad_row; ++i) {
        if (batch.is_null(first + i, c)) {
          bad_row = i;
          break;
        }
      }
    }
    if (column.type == ColumnType::kDouble) {
      for (size_t i = 0; i < bad_row; ++i) {
        if (!batch.is_null(first + i, c) &&
            std::isnan(batch.f64_at(first + i, c))) {
          bad_row = i;
          break;
        }
      }
    }
  }
  for (const CheckConstraint& check : def.checks) {
    const size_t c = static_cast<size_t>(def.column_index(check.column));
    const ColumnType type = def.columns[c].type;
    for (size_t i = 0; i < bad_row; ++i) {
      const size_t r = first + i;
      if (batch.is_null(r, c)) continue;
      double v = 0.0;
      if (type == ColumnType::kDouble) {
        v = batch.f64_at(r, c);
      } else if (type == ColumnType::kString) {
        bad_row = i;  // non-numeric value in checked column
        break;
      } else {
        v = static_cast<double>(batch.i64_at(r, c));
      }
      if ((check.min.has_value() && v < *check.min) ||
          (check.max.has_value() && v > *check.max)) {
        bad_row = i;
        break;
      }
    }
  }
  if (bad_row < count) {
    const Status status = validate_row(table, batch.row(first + bad_row));
    failure = BatchError{
        bad_row, status.is_ok()
                     ? Status(ErrorCode::kInternal,
                              def.name + ": batch validation screen mismatch")
                     : status};
    limit = bad_row;
  }
  costs.check_evals +=
      static_cast<int64_t>((limit + (failure.has_value() ? 1 : 0)) *
                           (def.columns.size() + def.checks.size()));

  // Metadata latch shared for the whole run: row traffic only excludes
  // structural maintenance, never other rows.
  costs.lock_wait_ns += lock_shared_timed(table.latch());
  const std::shared_lock<std::shared_mutex> table_latch(table.latch(),
                                                        std::adopt_lock);

  // Phase 1 — settle PK and FK constraints under the index latch *shared*,
  // so a failing row stops the run before anything touches the heap.
  uint64_t checked_publishes = 0;
  costs.lock_wait_ns += lock_shared_timed(table.index_latch());
  {
    const std::shared_lock<std::shared_mutex> shared_index(
        table.index_latch(), std::adopt_lock);
    checked_publishes = table.key_publishes;
    const size_t duplicate = first_duplicate_pk(table, pk_keys, limit);
    if (duplicate < limit) fail_constraint_at(duplicate);
    // Foreign keys, one FK at a time over the run's surviving prefix.
    // Skipped entirely when the engine runs FK-deferred (shard instances:
    // parents may be remote).
    const size_t fk_count =
        options_.enforce_foreign_keys ? def.foreign_keys.size() : 0;
    for (size_t f = 0; f < fk_count && limit > 0; ++f) {
      std::optional<BatchError> orphan =
          merge_foreign_key(table, f, batch, first, limit, pk_keys, costs);
      if (orphan.has_value()) {
        limit = orphan->row_index;
        failure = std::move(orphan);
      }
    }
  }

  // Phase 2 — append the surviving prefix to the admitted extent as hidden
  // pending rows. Only the extent latch is held (inside the heap): sessions
  // on distinct extents run this — including the modeled device write — in
  // parallel.
  if (limit == 0) return failure;
  storage::ShardedHeap::BatchAppendResult appended;
  {
    const storage::PackedRows rows = pack_rows(batch, first, limit);
    costs.heap_bytes += static_cast<int64_t>(rows.bytes.size());
    appended = table.heap().append_batch(extent, rows);
    costs.lock_wait_ns += appended.latch_wait_ns;
    costs.heap_pages_opened += appended.pages_opened;
  }

  // What derives from the appended slots alone (prepare_run, then the WAL
  // payload) is built before the exclusive latch, for the first `n` rows.
  std::vector<uint64_t> row_ids;
  UndoRun undo;
  std::vector<IndexEntries> secondary_runs(table.secondaries().size());
  std::string wal_payload;
  const auto prepare = [&](size_t n) {
    prepare_run(table, batch, first, n, appended, pk_keys, row_ids, undo,
                secondary_runs);
    wal_payload = storage::encode_insert_batch_payload(
        std::span<const std::string_view>(appended.views).first(n));
  };
  prepare(limit);

  // Phase 3 — re-check primary keys under the index latch *exclusive*
  // (another session may have published a conflicting key between the
  // phases), then log, publish, and index the prefix: one WAL record, one
  // latched heap publish, one sorted-run merge per tree. Rows from a lost
  // race on are discarded: their slots stay dead, as after a rollback.
  {
    costs.lock_wait_ns += lock_exclusive_timed(table.index_latch());
    const std::unique_lock<std::shared_mutex> index_latch(table.index_latch(),
                                                          std::adopt_lock);
    const size_t lost = table.key_publishes == checked_publishes
                            ? limit
                            : first_duplicate_pk(table, pk_keys, limit);
    if (lost < limit) {
      for (size_t i = lost; i < limit; ++i) {
        const Status discarded = table.heap().discard(appended.slots[i]);
        assert(discarded.is_ok());
        (void)discarded;
      }
      fail_constraint_at(lost);
      if (limit == 0) return failure;
      prepare(limit);
    }

    costs.wal_bytes += static_cast<int64_t>(wal_payload.size());
    wal_.append(storage::WalRecordType::kInsertBatch, txn.id, tid,
                std::move(wal_payload), extent);
    const Status published = table.heap().publish_batch(
        std::span<const storage::SlotId>(appended.slots).first(limit));
    assert(published.is_ok());
    (void)published;
    // Slots come back page-ordered, so one touch per distinct heap page
    // covers the run instead of one per row.
    for (size_t i = 0; i < limit; ++i) {
      const storage::SlotId slot = appended.slots[i];
      if (i == 0 || slot.page != appended.slots[i - 1].page ||
          slot.extent != appended.slots[i - 1].extent) {
        touch_page({{table.heap_page_file, slot.page, slot.extent}});
      }
    }

    IndexEntries pk_run;
    pk_run.reserve(limit);
    count_index_columns(def, table.pk_column_indices(),
                        static_cast<int64_t>(limit), costs);
    for (size_t i = 0; i < limit; ++i) {
      pk_run.emplace_back(std::move(pk_keys[i]), row_ids[i]);
    }
    index::BPlusTree::RunTouch pk_touch;
    const Status pk_status =
        table.pk_tree().insert_sorted_run(std::move(pk_run), &pk_touch);
    assert(pk_status.is_ok());  // dup-checked above, strictly sorted
    (void)pk_status;
    ++table.key_publishes;
    costs.index_updates += static_cast<int64_t>(limit);
    costs.index_node_visits += pk_touch.nodes_visited;
    costs.index_leaf_splits += pk_touch.leaf_splits;
    for (const uint32_t leaf : pk_touch.touched_leaf_ids) {
      touch_page({{table.pk_page_file, leaf}, storage::IoRole::kIndex});
    }

    for (size_t s = 0; s < table.secondaries().size(); ++s) {
      SecondaryIndex& secondary = table.secondaries()[s];
      if (!secondary.enabled) continue;
      const auto key_rows = static_cast<int64_t>(limit);
      if (secondary.def.htm.has_value()) {
        costs.index_int_columns += key_rows;  // one trixel id per key
      } else {
        count_index_columns(def, secondary.column_indices, key_rows, costs);
      }
      index::BPlusTree::RunTouch touch;
      const Status index_status = secondary.tree.insert_sorted_run(
          std::move(secondary_runs[s]), &touch);
      assert(index_status.is_ok());
      (void)index_status;
      costs.index_updates += key_rows;
      costs.index_node_visits += touch.nodes_visited;
      costs.index_leaf_splits += touch.leaf_splits;
      for (const uint32_t leaf : touch.touched_leaf_ids) {
        touch_page({{secondary.page_file, leaf}, storage::IoRole::kIndex});
      }
    }

    if (insert_observer_) {
      for (size_t i = 0; i < limit; ++i) insert_observer_(tid, row_ids[i]);
    }
  }
  // The undo log belongs to this session's transaction alone.
  txn.undo.push_back(std::move(undo));
  return failure;
}

void Engine::prepare_run(
    const Table& table, const ColumnBatch& batch, size_t first, size_t n,
    const storage::ShardedHeap::BatchAppendResult& appended,
    const std::vector<std::string>& pk_keys, std::vector<uint64_t>& row_ids,
    UndoRun& undo, std::vector<IndexEntries>& secondary_runs) const {
  const uint32_t tid = table.id();
  row_ids.resize(n);
  undo = UndoRun{tid, {}, {}, {}};
  undo.rows.reserve(n);
  size_t pk_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    row_ids[i] = make_row_id(tid, appended.slots[i]);
    undo.rows.push_back({appended.slots[i], appended.views[i]});
    pk_bytes += pk_keys[i].size();
  }
  // The PK run needs no sort: the keys are strictly increasing.
  undo.pk.reserve(n, pk_bytes);
  for (size_t i = 0; i < n; ++i) {
    undo.pk.push_back(pk_keys[i], static_cast<uint32_t>(i));
  }
  undo.secondaries.resize(table.secondaries().size());
  for (size_t s = 0; s < table.secondaries().size(); ++s) {
    const SecondaryIndex& secondary = table.secondaries()[s];
    IndexEntries& run = secondary_runs[s];
    run.clear();
    // The enabled flags change only under the exclusive engine lock.
    if (!secondary.enabled) continue;
    run.reserve(n);
    size_t key_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      run.emplace_back(
          encode_index_key(secondary.def, secondary.column_indices,
                           BatchCells(batch, first + i), row_ids[i]),
          i);
      key_bytes += run.back().first.size();
    }
    // Every key carries the row-id suffix: unique and disjoint by
    // construction. Sorted with row indices, then packed into the record,
    // then given their row ids.
    std::sort(run.begin(), run.end());
    KeyRun& keys = undo.secondaries[s].emplace();
    keys.reserve(n, key_bytes);
    for (auto& [key, row] : run) {
      keys.push_back(key, static_cast<uint32_t>(row));
      row = row_ids[row];
    }
  }
}

Status Engine::validate_row(const Table& table, const Row& row) const {
  const TableDef& def = table.def();
  if (row.size() != def.columns.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  str_format("%s: expected %zu columns, got %zu",
                             def.name.c_str(), def.columns.size(),
                             row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& column = def.columns[i];
    if (row[i].is_null()) {
      if (!column.nullable) {
        return Status(ErrorCode::kConstraintNotNull,
                      def.name + "." + column.name + " is NOT NULL");
      }
      continue;
    }
    if (!row[i].matches(column.type)) {
      return Status(ErrorCode::kTypeMismatch,
                    def.name + "." + column.name + " expects " +
                        std::string(column_type_name(column.type)));
    }
    if (row[i].is_f64() && std::isnan(row[i].as_f64())) {
      return Status(ErrorCode::kConstraintCheck,
                    def.name + "." + column.name + " is NaN");
    }
  }
  for (const CheckConstraint& check : def.checks) {
    const int idx = def.column_index(check.column);
    const Value& value = row[static_cast<size_t>(idx)];
    if (value.is_null()) continue;
    const auto numeric = value.numeric();
    if (!numeric.is_ok()) {
      return Status(ErrorCode::kConstraintCheck,
                    "non-numeric value in checked column " + check.column);
    }
    if ((check.min.has_value() && *numeric < *check.min) ||
        (check.max.has_value() && *numeric > *check.max)) {
      return Status(ErrorCode::kConstraintCheck,
                    str_format("%s.%s value %g outside [%g, %g]",
                               def.name.c_str(), check.column.c_str(),
                               *numeric,
                               check.min.value_or(-HUGE_VAL),
                               check.max.value_or(HUGE_VAL)));
    }
  }
  return ok_status();
}

namespace {

// Do rows `r - 1` and `r` of `batch` hold the same cells in `columns`? A
// NULL equals only a NULL; the integer family compares by value, doubles
// by bit pattern and strings by bytes, so equal cells are exactly equal key
// encodings (0.0 and -0.0 differ, as their keys do).
bool same_as_previous_row(const ColumnBatch& batch,
                          const std::vector<int>& columns, size_t r) {
  for (const int column : columns) {
    const auto c = static_cast<size_t>(column);
    const bool null = batch.is_null(r, c);
    if (null != batch.is_null(r - 1, c)) return false;
    if (null) continue;
    switch (batch.column_type(c)) {
      case ColumnType::kInt32:
      case ColumnType::kInt64:
      case ColumnType::kTimestamp:
        if (batch.i64_at(r, c) != batch.i64_at(r - 1, c)) return false;
        break;
      case ColumnType::kDouble:
        if (std::bit_cast<uint64_t>(batch.f64_at(r, c)) !=
            std::bit_cast<uint64_t>(batch.f64_at(r - 1, c))) {
          return false;
        }
        break;
      case ColumnType::kString:
        if (batch.str_at(r, c) != batch.str_at(r - 1, c)) return false;
        break;
    }
  }
  return true;
}

// The first FK chunk's rows; each later chunk doubles, so a run that fails
// at row i has merged at most about 2i rows.
constexpr size_t kFirstForeignKeyChunk = 64;

// Does `parent`'s primary key hold `key`? Takes the parent's index latch
// shared for the probe (a parent is always another, earlier table).
bool parent_has_key(const Table& parent, const std::string& key) {
  const std::shared_lock<std::shared_mutex> parent_latch(parent.index_latch());
  return parent.pk_tree().contains(key);
}

}  // namespace

std::optional<BatchError> Engine::merge_foreign_key(
    const Table& table, size_t fk, const ColumnBatch& batch, size_t first,
    size_t count, const std::vector<std::string>& pk_keys, OpCosts& costs) {
  const Table& parent = tables_[table.fk_parent_ids[fk]];
  const std::vector<int>& columns = table.fk_columns[fk];
  // A chunk row whose reference needs no probe: NULL (MATCH SIMPLE), or
  // equal to the row before it, which already passed.
  constexpr uint32_t kPasses = UINT32_MAX;
  enum class KeyState : uint8_t { kVerified, kFound, kMissing, kRechecked };
  // One distinct reference of a chunk, in order of first appearance.
  struct ChunkKey {
    uint32_t end;        // end offset of its bytes in `bytes`
    uint32_t row;        // its first row
    uint32_t canonical;  // the earliest chunk key with the same bytes
    KeyState state;
    uint32_t leaf;  // parent leaf holding it (kFound)
  };
  std::string bytes;
  std::vector<ChunkKey> keys;
  std::vector<uint32_t> row_keys;  // per chunk row: its key, or kPasses
  std::vector<uint32_t> order;     // chunk keys by bytes, stable
  std::vector<uint32_t> probes;    // canonical keys to merge, ascending
  std::vector<std::string> verified;  // earlier chunks' keys, ascending
  const auto key = [&](uint32_t k) {
    const uint32_t begin = k == 0 ? 0 : keys[k - 1].end;
    return std::string_view(bytes).substr(begin, keys[k].end - begin);
  };
  for (size_t begin = 0, size = kFirstForeignKeyChunk; begin < count;
       begin += size, size *= 2) {
    const size_t end = std::min(count, begin + size);
    bytes.clear();
    keys.clear();
    row_keys.clear();
    for (size_t i = begin; i < end; ++i) {
      const size_t r = first + i;
      if (i > 0 && same_as_previous_row(batch, columns, r)) {
        row_keys.push_back(i == begin ? kPasses : row_keys.back());
        continue;
      }
      const std::optional<std::string> probe =
          encode_fk_probe(columns, BatchCells(batch, r));
      if (!probe.has_value()) {
        row_keys.push_back(kPasses);
        continue;
      }
      bytes += *probe;
      row_keys.push_back(static_cast<uint32_t>(keys.size()));
      keys.push_back({static_cast<uint32_t>(bytes.size()),
                      static_cast<uint32_t>(i), 0, KeyState::kMissing, 0});
    }

    // Sort (unless already ascending) and dedupe; keys verified by an
    // earlier chunk need no probe.
    order.resize(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    bool ascending = true;
    for (size_t k = 1; k < keys.size() && ascending; ++k) {
      ascending = key(static_cast<uint32_t>(k - 1)) <
                  key(static_cast<uint32_t>(k));
    }
    if (!ascending) {
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
    }
    probes.clear();
    auto memo = order.empty() ? verified.end()
                              : std::lower_bound(verified.begin(),
                                                 verified.end(), key(order[0]));
    for (size_t j = 0; j < order.size(); ++j) {
      ChunkKey& chunk_key = keys[order[j]];
      if (j > 0 && key(order[j - 1]) == key(order[j])) {
        chunk_key.canonical = keys[order[j - 1]].canonical;
        continue;
      }
      chunk_key.canonical = order[j];
      while (memo != verified.end() && *memo < key(order[j])) ++memo;
      if (memo != verified.end() && *memo == key(order[j])) {
        chunk_key.state = KeyState::kVerified;
      } else {
        probes.push_back(order[j]);
      }
    }

    // One forward merge of the probes against the parent's PK leaf chain
    // under one shared latch.
    int64_t descent = 0;
    if (!probes.empty()) {
      costs.lock_wait_ns += lock_shared_timed(parent.index_latch());
      const std::shared_lock<std::shared_mutex> parent_latch(
          parent.index_latch(), std::adopt_lock);
      const index::BPlusTree& tree = parent.pk_tree();
      descent = tree.height();
      index::BPlusTree::Iterator it = tree.seek(key(probes[0]));
      for (const uint32_t k : probes) {
        const std::string_view want = key(k);
        seek_forward(tree, it, want);
        if (it.valid() && it.key() == want) {
          keys[k].state = KeyState::kFound;
          keys[k].leaf = it.leaf_page_id();
        }
      }
    }

    // The earliest row whose parent is missing. The status-only check
    // re-probes every FK of the row; it passes only if another session
    // published the parent since the merge, and then the row may stay.
    std::optional<BatchError> failure;
    size_t settled = end;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t k = row_keys[i - begin];
      if (k == kPasses) continue;
      ChunkKey& canonical = keys[keys[k].canonical];
      if (canonical.state != KeyState::kMissing) continue;
      Status status =
          check_constraints(table, batch.row(first + i), pk_keys[i]);
      if (!status.is_ok()) {
        failure = BatchError{i, std::move(status)};
        settled = i + 1;
        break;
      }
      canonical.state = KeyState::kRechecked;
    }

    // Charge what a probe per distinct key up to the failing row would
    // have: every row settled, one descent per key not verified by an
    // earlier chunk, and a parent-leaf read per key found, in row order.
    costs.fk_checks += static_cast<int64_t>(settled - begin);
    for (uint32_t k = 0; k < keys.size() && keys[k].row < settled; ++k) {
      if (keys[k].canonical != k || keys[k].state == KeyState::kVerified) {
        continue;
      }
      costs.fk_node_visits += descent;
      if (keys[k].state == KeyState::kFound) {
        touch_page({{parent.pk_page_file, keys[k].leaf},
                    storage::IoRole::kIndex,
                    /*write=*/false});
      }
    }
    if (failure.has_value()) return failure;
    if (end < count && !probes.empty()) {
      // Presorted input appends past the last verified key: no merge.
      const bool append = verified.empty() || verified.back() < key(probes[0]);
      const auto old_size = static_cast<ptrdiff_t>(verified.size());
      for (const uint32_t k : probes) verified.emplace_back(key(k));
      if (!append) {
        std::inplace_merge(verified.begin(), verified.begin() + old_size,
                           verified.end());
      }
    }
  }
  return std::nullopt;
}

Status Engine::check_constraints(const Table& table, const Row& row,
                                 const std::string& pk_key) {
  if (table.pk_tree().contains(pk_key)) {
    return Status(ErrorCode::kConstraintPrimaryKey,
                  table.def().name + ": duplicate primary key " +
                      row_to_display(row));
  }
  // Foreign keys: shared index latch on each parent, held only for the
  // probe. Nested order is child index latch -> parent index latch, i.e.
  // descending table id (FKs only reference earlier tables), so the
  // hierarchy is acyclic. FK-deferred engines (shard instances) skip the
  // probes; the sharded repository reconciles edges across shards instead.
  const size_t fk_count =
      options_.enforce_foreign_keys ? table.def().foreign_keys.size() : 0;
  for (size_t f = 0; f < fk_count; ++f) {
    const auto probe =
        encode_fk_probe(table.fk_columns[f], RowCells(table.def(), row));
    if (!probe.has_value()) continue;  // NULL FK passes
    if (!parent_has_key(tables_[table.fk_parent_ids[f]], *probe)) {
      return Status(ErrorCode::kConstraintForeignKey,
                    table.def().name + ": no parent row in " +
                        table.def().foreign_keys[f].parent_table + " for " +
                        row_to_display(row));
    }
  }
  return ok_status();
}

// ------------------------------------------------------------- maintenance

Status Engine::set_index_enabled(uint32_t tid, std::string_view index_name,
                                 bool enabled) {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  if (tid >= tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  // Structural change: metadata latch exclusive (engine-exclusive already
  // quiesces row traffic; the latch keeps the table-level contract honest).
  const std::unique_lock<std::shared_mutex> table_latch(tables_[tid].latch());
  for (SecondaryIndex& secondary : tables_[tid].secondaries()) {
    if (secondary.def.name == index_name) {
      if (secondary.enabled && !enabled) {
        secondary.tree = index::BPlusTree(secondary.tree.fanout());
      }
      secondary.enabled = enabled;
      return ok_status();
    }
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

Status Engine::rebuild_index(uint32_t tid, std::string_view index_name) {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  if (tid >= tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  Table& table = tables_[tid];
  const std::unique_lock<std::shared_mutex> table_latch(table.latch());
  for (SecondaryIndex& secondary : table.secondaries()) {
    if (secondary.def.name != index_name) continue;
    // Every heap row's (key, row id) entry; the first row that fails to
    // decode fails the build.
    IndexEntries entries;
    entries.reserve(static_cast<size_t>(table.heap().row_count()));
    Status decode_status = ok_status();
    table.heap().scan([&](storage::SlotId slot, std::string_view bytes) {
      if (!decode_status.is_ok()) return;
      const auto row = decode_row(bytes);
      if (!row.is_ok()) {
        decode_status = row.status();
        return;
      }
      const uint64_t row_id = make_row_id(tid, slot);
      entries.emplace_back(
          encode_index_key(secondary.def, secondary.column_indices,
                           RowCells(table.def(), *row), row_id),
          row_id);
    });
    SKY_RETURN_IF_ERROR(decode_status);
    std::sort(entries.begin(), entries.end());
    secondary.enabled = true;
    return secondary.tree.bulk_build(std::move(entries));
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

Status Engine::bulk_load_sorted(uint32_t tid, const std::vector<Row>& rows) {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  if (tid >= tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  Table& table = tables_[tid];
  const std::unique_lock<std::shared_mutex> table_latch(table.latch());
  if (table.heap().row_count() != 0) {
    return Status(ErrorCode::kFailedPrecondition,
                  "bulk_load_sorted requires an empty table");
  }
  // One extent per preload, chosen like a transaction's: the preload stays
  // one dense append stream (extent 0 whenever heap_extents is 1), and
  // under kLeastLoaded successive preloads balance instead of alternating.
  const uint32_t extent = choose_extent(&table, std::nullopt);
  // Every row is checked before any lands: a rejected preload leaves the
  // table empty.
  for (const Row& row : rows) SKY_RETURN_IF_ERROR(validate_row(table, row));
  ColumnBatch batch(table.def());
  batch.reserve(rows.size());
  batch.append_rows(rows);  // validated rows all fit the table's layout
  std::vector<std::string> pk_keys =
      column_run_keys(table, batch, 0, rows.size());
  if (pk_keys.size() < rows.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "bulk_load_sorted requires strictly increasing primary "
                  "keys");
  }
  const storage::ShardedHeap::BatchAppendResult appended =
      table.heap().append_batch(extent, pack_rows(batch, 0, rows.size()));
  SKY_RETURN_IF_ERROR(table.heap().publish_batch(appended.slots));
  std::vector<uint64_t> row_ids;
  UndoRun undo;
  std::vector<IndexEntries> secondary_runs(table.secondaries().size());
  prepare_run(table, batch, 0, rows.size(), appended, pk_keys, row_ids, undo,
              secondary_runs);
  IndexEntries pk_entries;
  pk_entries.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    pk_entries.emplace_back(std::move(pk_keys[i]), row_ids[i]);
  }
  SKY_RETURN_IF_ERROR(table.pk_tree().bulk_build(std::move(pk_entries)));
  for (size_t s = 0; s < table.secondaries().size(); ++s) {
    SecondaryIndex& secondary = table.secondaries()[s];
    if (!secondary.enabled) continue;
    SKY_RETURN_IF_ERROR(
        secondary.tree.bulk_build(std::move(secondary_runs[s])));
  }
  // A preload is one logical commit: its run is the one snapshot chunk.
  if (!rows.empty()) {
    std::vector<UndoRun> runs;
    runs.push_back(std::move(undo));
    publish_snapshot_chunks(std::move(runs));
  }
  return ok_status();
}

// ----------------------------------------------------------------- queries

int64_t Engine::total_rows() const {
  const std::shared_lock<std::shared_mutex> engine_lock(engine_mu_);
  int64_t total = 0;
  for (const Table& table : tables_) total += table.heap().row_count();
  return total;
}

std::string Engine::encode_tuple_key(const TableDef& def,
                                     const std::vector<int>& column_indices,
                                     const Row& values) const {
  index::KeyEncoder encoder;
  for (size_t i = 0; i < values.size() && i < column_indices.size(); ++i) {
    const int idx = column_indices[i];
    append_value_to_key(encoder, values[i],
                        def.columns[static_cast<size_t>(idx)].type);
  }
  return encoder.take();
}

Result<Row> Engine::row_at(const Table& table, uint64_t row_id) const {
  SKY_ASSIGN_OR_RETURN(const std::string_view bytes,
                       table.heap().read(row_id_slot(row_id)));
  return decode_row(bytes);
}

Result<bool> Engine::index_enabled(uint32_t tid,
                                   std::string_view index_name) const {
  const std::shared_lock<std::shared_mutex> engine_lock(engine_mu_);
  if (tid >= tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = tables_[tid];
  const std::shared_lock<std::shared_mutex> latch(table.index_latch());
  for (const SecondaryIndex& secondary : table.secondaries()) {
    if (secondary.def.name == index_name) return secondary.enabled;
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

void Engine::publish_snapshot_chunks(std::vector<UndoRun> undo) {
  // One chunk per table: its records' rows concatenate in insert order
  // (chunk row index = per-table insert sequence), and each index's sorted
  // record runs merge, shifted by the rows of the records before them.
  struct Draft {
    uint32_t table_id = 0;
    SnapshotChunk chunk;
    KeyRunMerger pk;
    // nullopt once a record lacks the index's run: a chunk missing rows
    // that committed while the index was disabled cannot serve reads over
    // it.
    std::vector<std::optional<KeyRunMerger>> secondaries;
  };
  std::vector<size_t> table_rows(tables_.size(), 0);
  for (const UndoRun& run : undo) table_rows[run.table_id] += run.rows.size();
  std::vector<int> draft_of(tables_.size(), -1);
  std::vector<Draft> drafts;
  for (UndoRun& run : undo) {
    int& slot = draft_of[run.table_id];
    if (slot < 0) {
      slot = static_cast<int>(drafts.size());
      Draft& draft = drafts.emplace_back();
      draft.table_id = run.table_id;
      draft.chunk.rows.reserve(table_rows[run.table_id]);
      draft.secondaries.assign(run.secondaries.size(), KeyRunMerger());
    }
    Draft& draft = drafts[static_cast<size_t>(slot)];
    const auto row_offset = static_cast<uint32_t>(draft.chunk.rows.size());
    // Taken from the record so it is freed as soon as it is copied.
    const std::vector<SnapshotChunk::RowRef> rows = std::move(run.rows);
    draft.chunk.rows.insert(draft.chunk.rows.end(), rows.begin(), rows.end());
    draft.pk.push(std::move(run.pk), row_offset);
    for (size_t s = 0; s < run.secondaries.size(); ++s) {
      std::optional<KeyRunMerger>& merger = draft.secondaries[s];
      if (!run.secondaries[s].has_value()) {
        merger.reset();
      } else if (merger.has_value()) {
        merger->push(std::move(*run.secondaries[s]), row_offset);
      }
    }
  }
  std::vector<std::pair<uint32_t, SnapshotChunk>> chunks;
  chunks.reserve(drafts.size());
  for (Draft& draft : drafts) {
    SnapshotChunk& chunk = draft.chunk;
    chunk.pk = draft.pk.finish();
    for (std::optional<KeyRunMerger>& merger : draft.secondaries) {
      chunk.secondaries.push_back(
          merger.has_value() ? std::optional<KeyRun>(merger->finish())
                             : std::nullopt);
    }
    chunks.emplace_back(draft.table_id, std::move(chunk));
  }
  snapshots_.publish(std::move(chunks));
}

Status index_unavailable_error(std::string_view index_name,
                               std::string_view detail) {
  std::string message = "index unavailable: " + std::string(index_name);
  if (!detail.empty()) {
    message += " (";
    message += detail;
    message += ")";
  }
  return Status(ErrorCode::kFailedPrecondition, std::move(message));
}

// --------------------------------------------------------------- telemetry

EngineStats Engine::stats() const {
  EngineStats stats;
  stats.wal = wal_.stats();
  stats.concurrency.transaction_gate = txn_gate_.stats();
  stats.snapshots = snapshots_.stats();
  {
    const std::shared_lock<std::shared_mutex> engine_lock(engine_mu_);
    stats.extents.reserve(tables_.size());
    for (const Table& table : tables_) {
      stats.extents.push_back(
          TableExtentStats{table.id(), table.heap().extent_stats()});
      stats.total_rows += table.heap().row_count();
      stats.total_heap_bytes += table.heap().total_bytes();
    }
  }
  {
    // Held across the call so a concurrent detach cannot destroy the source
    // mid-invocation. The source (QueryScheduler::stats) takes only its
    // lane gates' internal locks — leaves in the lock order.
    const std::scoped_lock hook_lock(query_stats_mu_);
    if (query_stats_source_) stats.query = query_stats_source_();
  }
  // Live policy values, read from the owning subsystems (EngineOptions is
  // never mutated after construction).
  const storage::WalOptions wal_options = wal_.wal_options();
  stats.policies.commit_window = wal_options.commit_window;
  stats.policies.max_group_commits = wal_options.max_group_commits;
  stats.policies.transaction_slots = txn_gate_.slots();
  // Table vector and gate pointers are fixed after construction; each
  // gate's stats() takes its own internal lock, so no engine lock needed.
  int64_t itl_slots = 0;  // 0 = ITL gates disabled on this engine
  for (const Table& table : tables_) {
    if (const SlotGate* gate = table.itl_gate(); gate != nullptr) {
      stats.concurrency.itl += gate->stats();
      itl_slots = gate->slots();
    }
  }
  stats.policies.itl_slots_per_table = itl_slots;
  stats.policies.extent_assignment =
      extent_assignment_.load(std::memory_order_relaxed);
  return stats;
}

Status Engine::update_policies(const PolicyPatch& patch) {
  // Validate the whole patch first; apply nothing on failure.
  SKY_RETURN_IF_ERROR(patch.validate());
  if (patch.itl_slots_per_table.has_value() &&
      !options_.policies.concurrency.itl_gated()) {
    // Creating gates live would race the lock-free gate-pointer reads on
    // the insert path; only existing gates can be resized.
    return Status(ErrorCode::kFailedPrecondition,
                  "update_policies: engine runs without ITL gates");
  }
  const std::scoped_lock lock(policy_mu_);
  if (patch.commit_window.has_value() || patch.max_group_commits.has_value()) {
    wal_.set_commit_policy(patch.commit_window, patch.max_group_commits);
  }
  if (patch.transaction_slots.has_value()) {
    txn_gate_.set_slots(*patch.transaction_slots);
  }
  if (patch.itl_slots_per_table.has_value()) {
    for (Table& table : tables_) {
      if (SlotGate* gate = table.itl_gate(); gate != nullptr) {
        gate->set_slots(*patch.itl_slots_per_table);
      }
    }
  }
  if (patch.extent_assignment.has_value()) {
    extent_assignment_.store(*patch.extent_assignment,
                             std::memory_order_relaxed);
  }
  return ok_status();
}

void Engine::set_query_stats_source(
    std::function<core::QueryStats()> source) {
  const std::scoped_lock lock(query_stats_mu_);
  query_stats_source_ = std::move(source);
}

void Engine::set_insert_observer(
    std::function<void(uint32_t, uint64_t)> observer) {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  insert_observer_ = std::move(observer);
}

void Engine::set_page_touch_observer(
    std::function<void(const PageTouch&)> observer) {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  page_touch_observer_ = std::move(observer);
}

Status Engine::verify_integrity() const {
  const std::unique_lock<std::shared_mutex> engine_lock(engine_mu_);
  for (const Table& table : tables_) {
    // Heap rows decode, agree with the PK tree, and satisfy FKs.
    Status failure = ok_status();
    int64_t live = 0;
    table.heap().scan([&](storage::SlotId slot, std::string_view bytes) {
      if (!failure.is_ok()) return;
      ++live;
      const auto row = decode_row(bytes);
      if (!row.is_ok()) {
        failure = row.status();
        return;
      }
      const RowCells cells(table.def(), *row);
      const auto row_id =
          table.pk_tree().lookup(encode_key(table.pk_column_indices(), cells));
      if (!row_id.has_value() ||
          *row_id != make_row_id(table.id(), slot)) {
        failure = Status(ErrorCode::kInternal,
                         table.def().name + ": PK tree disagrees with heap");
        return;
      }
      // FK closure holds per engine only when FKs are enforced here; an
      // FK-deferred shard's parents may live on sibling shards, audited by
      // ShardedRepository::reconcile_foreign_keys instead.
      if (options_.enforce_foreign_keys) {
        for (size_t f = 0; f < table.fk_columns.size(); ++f) {
          const auto probe = encode_fk_probe(table.fk_columns[f], cells);
          if (probe.has_value() &&
              !tables_[table.fk_parent_ids[f]].pk_tree().contains(*probe)) {
            failure = Status(ErrorCode::kInternal,
                             table.def().name + ": dangling FK to " +
                                 table.def().foreign_keys[f].parent_table);
            return;
          }
        }
      }
    });
    SKY_RETURN_IF_ERROR(failure);
    if (static_cast<size_t>(live) != table.pk_tree().size()) {
      return Status(ErrorCode::kInternal,
                    table.def().name + ": PK tree size mismatch");
    }
    SKY_RETURN_IF_ERROR(table.pk_tree().validate());
    for (const SecondaryIndex& secondary : table.secondaries()) {
      if (!secondary.enabled) continue;
      if (secondary.tree.size() != static_cast<size_t>(live)) {
        return Status(ErrorCode::kInternal,
                      table.def().name + ": secondary index " +
                          secondary.def.name + " size mismatch");
      }
      SKY_RETURN_IF_ERROR(secondary.tree.validate());
    }
  }
  return ok_status();
}

}  // namespace sky::db
