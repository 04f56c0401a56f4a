// The embedded relational engine ("stardb") standing in for Oracle 10g.
//
// Insert-oriented by design: the Palomar-Quest repository workload is
// append-only catalog loading plus read-only science queries. Enforces
// primary-key, foreign-key, NOT NULL, and range-check constraints on every
// insert; maintains a B+tree per primary key and per enabled secondary
// index; writes redo to a WAL; reports each page an insert touches to an
// optional observer (the sim server's cache model, client/sim_server.h).
//
// Batch semantics mirror the JDBC core API the paper used (section 4.3):
// executeBatch applies rows in order and stops at the first failure — rows
// before the failure remain applied, the failing index is reported, and the
// rest of the batch is discarded and cannot be re-applied. The bulk-loading
// algorithm's skip-and-repack recovery is built on exactly this contract.
//
// Thread safety: all public methods are safe to call from multiple threads.
// Concurrency is fine-grained (see DESIGN.md "Engine concurrency model"):
// normal operations take an engine-wide rwlock *shared*, the destination
// table's metadata latch *shared*, and then the table's index latch
// (exclusive while publishing a run into the trees, shared for queries and
// FK merges). Heap appends land in per-transaction extents guarded by the
// heap's own extent latches (storage/sharded_heap.h), so sessions loading
// the *same* table append in parallel and only serialize on the short
// index-latch window that checks constraints and updates the B+trees. The
// WAL and the transaction map are internally thread-safe. Only DDL-like
// operations (set_index_enabled, rebuild_index, bulk_load_sorted,
// verify_integrity, rollback, the set_*_observer calls) take the engine
// rwlock exclusive and stop the world. Parallel loaders therefore make
// genuinely parallel progress; the configured gates — not an
// implementation mutex — are the modeled RDBMS concurrency limit.
//
// Admission gates sit *outside* every lock (order: transaction gate ->
// per-table ITL gates -> engine rwlock -> table latches). A transaction's
// first write to a table acquires that table's ITL gate (when
// ConcurrencyPolicy::itl_slots_per_table > 0) before touching the engine
// rwlock, and every gate is held to commit/abort — so a session blocked on
// admission holds no latch, and DDL/rollback can always run. Transactions
// that write several tables must do so in a consistent order (the loaders
// write parent-before-child topological order); see DESIGN.md "Real-mode
// admission control" for the deadlock-freedom argument.
//
// A transaction id may be used by one thread at a time (the client layer
// guarantees this: one session per loader thread, one open transaction per
// session).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/engine_policies.h"
#include "core/query_stats.h"
#include "db/column_batch.h"
#include "db/lock_manager.h"
#include "db/op_costs.h"
#include "db/read_view.h"
#include "db/row.h"
#include "db/schema.h"
#include "db/snapshot.h"
#include "db/table.h"
#include "storage/buffer_cache.h"
#include "storage/device.h"
#include "storage/wal.h"

namespace sky::db {

// Modeled device latencies for real-thread (non-simulation) runs. The
// engine is memory-resident, so with these at zero a "database call" costs
// only CPU; enabling them makes each call pay a real sleep for the device
// work it implies — redo written per batch, data/index pages written per
// batch, the redo flush forced by a commit. The sleeps are taken with no
// latches held (redo flush: under the WAL's group-commit protocol), so
// fine-grained locking lets parallel loaders overlap them, while a
// seed-style engine-wide mutex would serialize them. Simulation mode keeps
// them at zero and prices the same costs through the client CostModel.
struct ModeledDeviceLatency {
  Nanos batch_redo_write = 0;     // per insert_batch / insert_row call
  Nanos data_write_per_page = 0;  // per heap page opened or leaf split
  Nanos commit_log_flush = 0;     // per WAL group flush (leader pays it)
  // Synchronous write to a heap extent's storage unit, paid per appended row
  // *while the extent latch is held* (one storage unit = one write stream).
  // Unlike the latencies above it is wired into the heap, not paid at call
  // end — appends to distinct extents overlap, appends to the same extent
  // queue. This is what bench_engine_scaling's same-table scenario measures.
  Nanos extent_append_write = 0;

  // extent_append_write intentionally excluded: it is a property of the
  // heap (paid inside ShardedHeap), not of the end-of-call sleep this
  // predicate gates.
  bool enabled() const {
    return batch_redo_write > 0 || data_write_per_page > 0 ||
           commit_log_flush > 0;
  }
};

// How a transaction's heap extent is chosen for each table it writes.
enum class ExtentAssignment {
  // Extent picked round-robin at begin_transaction(); every table the
  // transaction writes uses that same extent index (the original policy).
  kRoundRobin,
  // Extent re-picked per (transaction, table) at first write: the extent of
  // that table's heap currently holding the fewest bytes. Balances extents
  // when file sizes are skewed or loaders come and go.
  kLeastLoaded,
};

struct EngineOptions {
  // Every shared policy in one aggregate (core/engine_policies.h): commit
  // cadence/durability, admission limits, query lanes, and the spatial
  // subsystem's knobs — the same aggregate client::ServerConfig embeds, so
  // tuning code can hand one object across both backends. Defaults keep the
  // real engine permissive: 64 transaction slots, ITL gates off —
  // simulation models the limits in the server cost model instead.
  core::EnginePolicies policies;
  // Independent append streams per table heap (1 = the pre-sharding layout;
  // clamped to [1, storage::kMaxHeapExtents]). Transactions are assigned an
  // extent round-robin at begin_transaction(), so N parallel loaders of one
  // table spread across min(N, heap_extents) append streams.
  uint32_t heap_extents = 1;
  ExtentAssignment extent_assignment = ExtentAssignment::kRoundRobin;
  // Keep full WAL records in memory for replay verification (tests only).
  bool retain_wal_records = false;
  // Probe foreign keys on insert (and audit FK closure in
  // verify_integrity). Shard engines inside a db::ShardedRepository turn
  // this off: a child row's parent may live on another shard, so per-engine
  // FK probes would spuriously reject valid rows — the repository defers FK
  // checking to its cross-shard reconciliation pass
  // (ShardedRepository::reconcile_foreign_keys). PK/NOT NULL/range
  // constraints are unaffected.
  bool enforce_foreign_keys = true;
  ModeledDeviceLatency latency;
};

// Canonical fail-closed error for a read over an unavailable secondary
// index. Both read modes report the same code — kFailedPrecondition —
// whether the index is disabled right now (live) or a visible snapshot
// chunk was committed while it was disabled (the chunk carries no key run
// and the read cannot be served without silently missing rows).
Status index_unavailable_error(std::string_view index_name,
                               std::string_view detail);

// Unified stats snapshot / live-policy patch (db/control_plane.h). Declared
// here so Engine can return/accept them by value without the header cycle.
struct EngineStats;
struct PolicyPatch;

struct BatchError {
  size_t row_index = 0;  // index within the submitted batch
  Status status;
};

struct BatchResult {
  int64_t rows_applied = 0;
  std::optional<BatchError> error;
  OpCosts costs;
};

// How the commit became durable (group commit) is in the costs: a led
// flush, a ride on another caller's flush, or neither (relaxed mode, acked
// at append); io.log_bytes_flushed is the bytes the covering flush wrote.
struct CommitResult {
  OpCosts costs;
};

// One page an insert touched (`page.file_id` names the heap or index
// segment, `role` the device role its pages live on).
struct PageTouch {
  storage::CachePageId page;
  storage::IoRole role = storage::IoRole::kData;
  bool write = true;  // false: an FK probe read the parent's leaf
};

class Engine {
 public:
  explicit Engine(Schema schema, EngineOptions options = {});

  const Schema& schema() const { return schema_; }
  const EngineOptions& options() const { return options_; }
  Result<uint32_t> table_id(std::string_view name) const {
    return schema_.table_id(name);
  }

  // ----------------------------------------------------------- transactions
  // Blocks on the instance-wide transaction gate. When `costs` is given the
  // gate wait is attributed to costs->txn_slot_wait_ns (and lock_wait_ns).
  uint64_t begin_transaction(OpCosts* costs = nullptr);
  Result<CommitResult> commit(uint64_t txn_id);
  // Undo every insert of the transaction (reverse order). Stops the world
  // (engine-exclusive): rollbacks are rare in the append-only workload.
  Status rollback(uint64_t txn_id);

  // ---------------------------------------------------------------- inserts
  // Every insert call runs one body inside one admission envelope
  // (admitted_insert): transaction lookup, table-id check, ITL admission
  // before the engine rwlock, cost attribution and the modeled device sleep
  // are written once. The call is cut into maximal runs of strictly
  // increasing primary key, and each run goes through the column run
  // (insert_column_run_latched) in order: constraints settled under the
  // shared index latch, one pending heap append under one extent-latch
  // acquisition (ShardedHeap::append_batch), then under the exclusive index
  // latch a primary-key re-check, one kInsertBatch WAL record, one heap
  // publish and one sorted-run merge per B+tree (insert_sorted_run). A key
  // equal to its predecessor starts a new run whose first row then fails
  // against the just-published prefix. All calls have JDBC executeBatch
  // semantics (see file header), and every error status they report comes
  // from the row rules (validate_row, check_constraints) on the failing row.
  //
  // Row input: the rows are copied into a ColumnBatch of the table's layout
  // up to the first row whose arity or cell kinds do not fit; once that
  // prefix has run, the row fails with validate_row's status. `extent` pins
  // the heap extent instead of the transaction's assigned one — WAL replay
  // puts each logged record back into its original extent.
  BatchResult insert_batch(uint64_t txn_id, uint32_t table_id,
                           std::span<const Row> rows,
                           std::optional<uint32_t> extent = std::nullopt);
  // Columnar batch insert — the batch ingest hot path. Applies rows
  // [first, first + count) of `batch`; a batch whose column layout does not
  // match the table goes through insert_batch's row adapter.
  BatchResult insert_column_batch(uint64_t txn_id, uint32_t table_id,
                                  const ColumnBatch& batch, size_t first = 0,
                                  size_t count = static_cast<size_t>(-1));
  // A one-row insert_batch (the non-bulk baseline's call); its costs are
  // added to `costs`.
  Status insert_row(uint64_t txn_id, uint32_t table_id, const Row& row,
                    OpCosts& costs);

  // ------------------------------------------------------------ maintenance
  // DDL-like operations: engine-exclusive (quiesce all sessions).
  // Disable (drop) or enable a secondary index. Disabling clears it;
  // enabling leaves it empty until rebuild_index().
  Status set_index_enabled(uint32_t table_id, std::string_view index_name,
                           bool enabled);
  // Rebuild a secondary index from the heap (sorted bulk build) — the
  // "recreate secondary indices after the catch-up load" path.
  Status rebuild_index(uint32_t table_id, std::string_view index_name);

  // Preload an empty table from PK-sorted rows, bypassing the WAL, the
  // page-touch observer and transactions (fast fixture path for
  // database-size experiments, Fig. 9). Every row is validated
  // (validate_row) and the primary keys checked strictly increasing before
  // any row lands, so a rejected preload leaves the table empty. The rows
  // are then appended and published as one packed run, the trees bulk
  // built from the run's keys, and the run published to snapshot readers
  // as one chunk.
  Status bulk_load_sorted(uint32_t table_id, const std::vector<Row>& rows);

  // -------------------------------------------------------------- read views
  // The unified read API (db/read_view.h): one handle carrying every read
  // operation, constructed live or over a pinned snapshot. All query code —
  // the planner, the spatial operators, the scheduler's admitted queries —
  // reads through a ReadView.
  ReadView live_view() const { return ReadView(this, nullptr); }
  // View of the pinned committed prefix; reads take no engine lock, table
  // latch, extent latch, or gate. `snap` must outlive the returned view.
  ReadView view_at(const Snapshot& snap) const {
    return ReadView(this, &snap);
  }

  // Pin a consistent committed-prefix snapshot (db/snapshot.h): every
  // commit publishes copy-on-write chunks, so a pin sees every transaction
  // committed before it. A Snapshot must not outlive its engine.
  Snapshot pin_snapshot() const { return snapshots_.pin(); }

  int64_t total_rows() const;
  // Is the named secondary index currently enabled?
  Result<bool> index_enabled(uint32_t table_id,
                             std::string_view index_name) const;

  // ----------------------------------------------------------- control plane
  // The unified telemetry snapshot, in one EngineStats
  // (db/control_plane.h): WAL, admission gates, query lanes, snapshots
  // (published LSN and pins included), per-table extents, and the live
  // policy values. The one read path for every counter it carries.
  EngineStats stats() const;
  // Apply a bounded set of live policy adjustments (commit window, gate
  // slot counts, extent assignment) atomically with respect to concurrent
  // appliers. Validates the whole patch first and applies nothing on
  // failure. Safe to call while loaders and queries run: each field lands
  // under its owning subsystem's lock (or an atomic), never by mutating
  // EngineOptions — options() stays the construction-time snapshot.
  Status update_policies(const PolicyPatch& patch);
  // Attach/detach (pass nullptr-equivalent empty function) the query-lane
  // stats source stats() folds in — the QueryScheduler registers itself.
  void set_query_stats_source(std::function<core::QueryStats()> source);

  // -------------------------------------------------------------- telemetry
  // Surfaces EngineStats does not carry. All return copied snapshots taken
  // under the owning component's lock — never references into concurrently
  // mutated state.
  std::vector<storage::WalRecord> wal_records() const {
    return wal_.records();
  }
  // Durable-LSN watermark (record sequence numbers, aligned with
  // wal_records()): records with sequence <= wal_durable_lsn() are covered
  // by a device write; above it they would be lost in a crash. Under the
  // default strict durability every acked commit is below the watermark;
  // under DurabilityMode::kRelaxed the watermark advances only at
  // sync_wal() checkpoints.
  uint64_t wal_durable_lsn() const { return wal_.durable_lsn(); }
  uint64_t wal_appended_lsn() const { return wal_.appended_lsn(); }
  // Force pending redo to the device regardless of durability mode (the
  // relaxed-mode checkpoint); returns bytes written by this call.
  int64_t sync_wal() { return wal_.sync(); }
  // Observer invoked (under the destination table's latch) after each
  // successful insert; tests use it to audit parent-before-child ordering.
  // Setting it quiesces the engine (engine-exclusive).
  void set_insert_observer(std::function<void(uint32_t, uint64_t)> observer);
  // Observer of each page an insert touches: the parent PK leaf of each FK
  // probe that found its parent, then the heap page, the PK leaf and the
  // secondary-index leaves. Called from the inserting thread under table
  // latches; it must not call back into the engine. Setting it quiesces
  // the engine (engine-exclusive); an empty function detaches it.
  void set_page_touch_observer(std::function<void(const PageTouch&)> observer);

  // Deep integrity audit (tests): heap/PK agreement, FK closure, secondary
  // index completeness, row decodability. Engine-exclusive.
  Status verify_integrity() const;

 private:
  // ReadView (db/read_view.h) is the implementation of the read API: its
  // methods live in read_view.cpp and work directly against the engine's
  // internals (latches for live reads, pinned chunks for snapshot reads).
  friend class ReadView;

  // (key, row id) entries of one B+tree, as its bulk builds and sorted-run
  // merges take them.
  using IndexEntries = std::vector<std::pair<std::string, uint64_t>>;
  // One column run's undo record: the rows it applied and their keys.
  // Rollback walks the records newest-first, each record's rows
  // newest-first. At commit a table's records become its snapshot chunk:
  // the rows concatenate and the key runs merge (KeyRunMerger), so no key
  // is sorted twice (db/snapshot.h).
  struct UndoRun {
    uint32_t table_id = 0;
    // Slot and stored-bytes view of each applied row, in insert order.
    std::vector<SnapshotChunk::RowRef> rows;
    KeyRun pk;  // encoded PK key -> index into rows
    // Aligned with Table::secondaries(); nullopt when the index was
    // disabled during the call.
    std::vector<std::optional<KeyRun>> secondaries;
  };
  // Per-(transaction, table) admission record, created at the transaction's
  // first write to the table: the ITL gate held (if any), what acquiring it
  // cost, and the heap extent resolved for this table's appends.
  struct TableAdmission {
    uint32_t table_id = 0;
    uint32_t extent = 0;
    bool gated = false;      // holds one slot of the table's ITL gate
    bool contended = false;  // admission had to queue (escalation applies)
    int64_t queue_depth = 0;
  };
  struct Transaction {
    uint64_t id;
    // Heap extent this transaction's inserts land in (round-robin at
    // begin; under kRoundRobin every table uses this same extent index,
    // under kLeastLoaded it is only the fallback).
    uint32_t extent = 0;
    // Mutated only by the owning session's thread (map lookup is locked;
    // the entry itself needs no lock).
    std::vector<UndoRun> undo;
    // Tables admitted so far, in first-write order (= release order at
    // commit/abort). Same single-owner contract as `undo`.
    std::vector<TableAdmission> admissions;
  };

  // Look up a live transaction under txn_mu_; nullptr when unknown. The
  // returned pointer stays valid until the owner commits or rolls back
  // (unordered_map never invalidates references on insert).
  Transaction* find_transaction(uint64_t txn_id);
  // Admit the transaction to a table on its first write (idempotent per
  // table): acquire the table's ITL gate when configured — called with NO
  // engine lock or latch held (gates precede the rwlock in the lock order)
  // — and resolve the heap extent per the extent-assignment policy. Gate
  // waits/stalls are attributed to `costs`. Returns the admission record
  // (copied: the vector may grow later) — or kDeadlockDetected when the
  // blocked acquisition would close a waits-for cycle (the requester is the
  // victim; its transaction stays live so the caller can roll back).
  Result<TableAdmission> admit_table(Transaction& txn, uint32_t table_id,
                                     OpCosts& costs);
  // The heap extent a new append stream lands on: under kLeastLoaded the
  // extent of `table`'s heap holding the fewest bytes (when a table is
  // given); otherwise `assigned`, or the next round-robin extent when there
  // is none. begin_transaction draws (nullptr, nullopt), a transaction's
  // first write to a table (&table, its extent), a preload (&table,
  // nullopt).
  uint32_t choose_extent(const Table* table, std::optional<uint32_t> assigned);
  // The one admission envelope of every insert call: look up the
  // transaction, check the table id, admit the transaction to the table
  // (ITL gate before the engine rwlock), then — rwlock shared — run
  // `body(txn, extent)` on the admitted heap extent. Last, with no lock
  // held, pay the modeled device sleep, inflated by the lock-escalation
  // factor when admission was contended. `body` returns the failure that
  // stopped the call; rows before its index stay applied. Tallies
  // rows_applied (all `count` rows when nothing failed) and
  // constraint_failures into `costs` and returns the failure.
  template <typename Body>  // std::optional<BatchError>(Transaction&, uint32_t)
  std::optional<BatchError> admitted_insert(uint64_t txn_id, uint32_t table_id,
                                            size_t count, OpCosts& costs,
                                            const Body& body);
  // insert_batch's row adapter (see "inserts" above): the rows that fit
  // the table's layout run through insert_runs, and the first row that
  // does not fails with validate_row's status.
  std::optional<BatchError> insert_rows(Transaction& txn, uint32_t table_id,
                                        std::span<const Row> rows,
                                        uint32_t extent, OpCosts& costs);
  // The one insert body: rows [first, first + count) of `batch`, laid out
  // like the table, as consecutive column runs cut by column_run_keys,
  // stopping at the first failing row (its index relative to `first`).
  std::optional<BatchError> insert_runs(Transaction& txn, uint32_t table_id,
                                        const ColumnBatch& batch, size_t first,
                                        size_t count, uint32_t extent,
                                        OpCosts& costs);
  // The encoded primary keys of the slice's longest strictly increasing
  // prefix (at least one key when count > 0): the next run.
  std::vector<std::string> column_run_keys(const Table& table,
                                           const ColumnBatch& batch,
                                           size_t first, size_t count) const;
  // One column run: settle constraints for the whole run under the shared
  // index latch, append the surviving prefix to the heap as one pending
  // batch (extent latch only), build what derives from the appended slots
  // alone (row ids, the UndoRun, the sorted secondary key runs, the WAL
  // payload) with no index latch, then under the exclusive index latch
  // re-check primary keys, log one kInsertBatch record, publish, and merge
  // each tree's sorted run. `pk_keys` is column_run_keys' output. The run
  // only locates the first failing row; validate_row or check_constraints
  // on that row gives the status. Returns that failure, if any.
  std::optional<BatchError> insert_column_run_latched(
      Transaction& txn, uint32_t table_id, const ColumnBatch& batch,
      size_t first, size_t count, std::vector<std::string> pk_keys,
      uint32_t extent, OpCosts& costs);
  // What derives from a column run's appended slots alone, for its first
  // `n` rows (batch rows [first, first + n), `pk_keys` their increasing
  // primary keys): the row ids, the undo record, and each enabled
  // secondary index's (key, row id) run in key order. A disabled index's
  // run is left empty and the record carries none for it. Written into the
  // caller's buffers, which a second call for a shorter prefix reuses. The
  // insert body and the preload both build their runs with it.
  void prepare_run(const Table& table, const ColumnBatch& batch, size_t first,
                   size_t n,
                   const storage::ShardedHeap::BatchAppendResult& appended,
                   const std::vector<std::string>& pk_keys,
                   std::vector<uint64_t>& row_ids, UndoRun& undo,
                   std::vector<IndexEntries>& secondary_runs) const;
  // The row's first PK or FK violation against the current trees. Caller
  // holds the table's index latch (shared or exclusive); parents' index
  // latches are taken shared inside. Charges nothing and reports no page
  // touch: it only names a failure the run has already located (or that a
  // lost race re-check found), which must not move the tallies the sim
  // prices.
  Status check_constraints(const Table& table, const Row& row,
                           const std::string& pk_key);
  // Settle FK `fk` of `table` for rows [first, first + count) of `batch`
  // (`pk_keys` aligned with them) by forward merges, in chunks of 64, 128,
  // 256... rows: a chunk's distinct references (a row equal to the one
  // before it adds none; NULLs pass) are sorted and walked once against
  // the parent's PK leaf chain under one shared parent latch, skipping
  // those an earlier chunk verified. The earliest row with no parent fails
  // with check_constraints' status. Charges one fk_check per row and one
  // descent per distinct reference up to that row, and reports one
  // parent-leaf read per reference found, as a probe per distinct key
  // would.
  std::optional<BatchError> merge_foreign_key(
      const Table& table, size_t fk, const ColumnBatch& batch, size_t first,
      size_t count, const std::vector<std::string>& pk_keys, OpCosts& costs);
  void touch_page(const PageTouch& touch) const {
    if (page_touch_observer_) page_touch_observer_(touch);
  }
  // Arity, type, NOT NULL, NaN and CHECK rules, in that order.
  Status validate_row(const Table& table, const Row& row) const;
  // Modeled device sleep for a completed call (no locks held).
  // `escalation` inflates the sleep (factor >= 0) for transactions whose
  // ITL admission was contended — the sim server's lock-escalation model
  // applied to real time.
  void pay_batch_latency(const OpCosts& costs, double escalation = 0.0) const;
  // Turn a committed transaction's undo records into one snapshot chunk
  // per table — rows concatenated, key runs merged — and publish them
  // (every commit that wrote rows). Called with the engine rwlock held
  // shared.
  void publish_snapshot_chunks(std::vector<UndoRun> undo);
  Result<Row> row_at(const Table& table, uint64_t row_id) const;
  std::string encode_tuple_key(const TableDef& def,
                               const std::vector<int>& column_indices,
                               const Row& values) const;

  // Engine-wide rwlock: shared for normal operations, exclusive for the
  // DDL-like stop-the-world paths. Outermost in the lock hierarchy.
  mutable std::shared_mutex engine_mu_;
  Schema schema_;
  EngineOptions options_;
  // Waits-for graph shared by every ITL gate (declared before tables_ so
  // the gates' back-pointers outlive them on destruction).
  WaitGraph itl_wait_graph_;
  std::vector<Table> tables_;
  storage::WriteAheadLog wal_;
  SlotGate txn_gate_;
  mutable std::mutex txn_mu_;  // guards transactions_ (the map, not entries)
  std::unordered_map<uint64_t, Transaction> transactions_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint32_t> next_extent_{0};  // round-robin extent assignment
  // Live extent-assignment policy (update_policies); seeded from options_.
  // Atomic: admit_table reads it with no lock held.
  std::atomic<ExtentAssignment> extent_assignment_{
      ExtentAssignment::kRoundRobin};
  // Serializes update_policies() appliers (each field still lands under its
  // owning subsystem's lock; this only makes a whole patch atomic with
  // respect to other patches).
  std::mutex policy_mu_;
  // Query-lane stats source folded into stats() (set by QueryScheduler).
  mutable std::mutex query_stats_mu_;
  std::function<core::QueryStats()> query_stats_source_;
  // Mutable: pinning is logically const (a read) but registers the pin.
  mutable SnapshotManager snapshots_;
  std::function<void(uint32_t, uint64_t)> insert_observer_;
  std::function<void(const PageTouch&)> page_touch_observer_;
};

}  // namespace sky::db
