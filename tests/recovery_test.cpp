// WAL recovery tests: committed work survives replay, uncommitted and
// rolled-back work does not, a full loader run round-trips through the
// log — including runs with skipped error rows — and a multi-worker
// same-table load killed mid-batch recovers extent-for-extent.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "core/bulk_loader.h"
#include "db/control_plane.h"
#include "db/recovery.h"
#include "shard/sharded_repository.h"

namespace sky::db {
namespace {

Schema pair_schema() {
  Schema schema;
  TableDef parent;
  parent.name = "p";
  parent.col("id", ColumnType::kInt64, false);
  parent.col("payload", ColumnType::kString);
  parent.primary_key = {"id"};
  EXPECT_TRUE(schema.add_table(parent).is_ok());
  TableDef child;
  child.name = "c";
  child.col("id", ColumnType::kInt64, false);
  child.col("p_id", ColumnType::kInt64, false);
  child.primary_key = {"id"};
  child.foreign_keys.push_back(ForeignKey{{"p_id"}, "p"});
  EXPECT_TRUE(schema.add_table(child).is_ok());
  return schema;
}

EngineOptions retain_options() {
  EngineOptions options;
  options.retain_wal_records = true;
  return options;
}

TEST(RecoveryTest, CommittedWorkSurvives) {
  const Schema schema = pair_schema();
  Engine engine(schema, retain_options());
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(engine.insert_row(txn, 0, {Value::i64(1), Value::str("a")},
                                costs).is_ok());
  ASSERT_TRUE(engine.insert_row(txn, 1, {Value::i64(10), Value::i64(1)},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(txn).is_ok());

  RecoveryStats stats;
  const auto recovered = recover_from_wal(schema, engine.wal_records(),
                                          EngineOptions{}, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.rows_replayed, 2);
  EXPECT_EQ(stats.transactions_committed, 1);
  EXPECT_TRUE(engines_equivalent(engine, **recovered).is_ok());
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());
}

TEST(RecoveryTest, UncommittedWorkIsDiscarded) {
  const Schema schema = pair_schema();
  Engine engine(schema, retain_options());
  const uint64_t committed = engine.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(engine.insert_row(committed, 0, {Value::i64(1), Value::str("a")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(committed).is_ok());
  // A second transaction inserts but never commits ("crash").
  const uint64_t torn = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(torn, 0, {Value::i64(2), Value::str("b")},
                                costs).is_ok());

  RecoveryStats stats;
  const auto recovered = recover_from_wal(schema, engine.wal_records(),
                                          EngineOptions{}, &stats);
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_EQ((*recovered)->live_view().row_count(0), 1);
  EXPECT_TRUE((*recovered)->live_view().pk_lookup(0, {Value::i64(1)}).is_ok());
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(2)}).is_ok());
  EXPECT_EQ(stats.rows_discarded, 1);
  EXPECT_EQ(stats.transactions_discarded, 1);
  // Tidy up the open transaction so the engine tears down cleanly.
  ASSERT_TRUE(engine.rollback(torn).is_ok());
}

TEST(RecoveryTest, RolledBackWorkIsDiscarded) {
  const Schema schema = pair_schema();
  Engine engine(schema, retain_options());
  OpCosts costs;
  const uint64_t doomed = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(doomed, 0, {Value::i64(7), Value::str("x")},
                                costs).is_ok());
  ASSERT_TRUE(engine.rollback(doomed).is_ok());
  const uint64_t kept = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(kept, 0, {Value::i64(8), Value::str("y")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(kept).is_ok());

  const auto recovered = recover_from_wal(schema, engine.wal_records());
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_EQ((*recovered)->live_view().row_count(0), 1);
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(7)}).is_ok());
  EXPECT_TRUE(engines_equivalent(engine, **recovered).is_ok());
}

TEST(RecoveryTest, EmptyLogRecoversEmptyEngine) {
  const Schema schema = pair_schema();
  const auto recovered = recover_from_wal(schema, {});
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_EQ((*recovered)->total_rows(), 0);
}

TEST(RecoveryTest, TruncatedBatchRecordIsRejected) {
  // One committed three-row columnar run logs one kInsertBatch record. Cut
  // its payload inside the second row's length header, then inside the
  // second row's bytes: replay must stop with the matching error.
  const Schema schema = pair_schema();
  Engine engine(schema, retain_options());
  const uint64_t txn = engine.begin_transaction();
  ColumnBatch batch(schema.table(0));
  for (int64_t id = 1; id <= 3; ++id) {
    batch.push_i64(0, id);
    batch.push_str(1, "row" + std::to_string(id));
  }
  const BatchResult inserted = engine.insert_column_batch(txn, 0, batch);
  ASSERT_EQ(inserted.rows_applied, 3);
  ASSERT_TRUE(engine.commit(txn).is_ok());
  std::vector<storage::WalRecord> records = engine.wal_records();
  const auto batch_record =
      std::find_if(records.begin(), records.end(), [](const auto& record) {
        return record.type == storage::WalRecordType::kInsertBatch;
      });
  ASSERT_NE(batch_record, records.end());
  const std::string payload = batch_record->payload;
  std::string first_row;
  batch.encode_row_to(0, first_row);
  const size_t first_entry = 4 + first_row.size();
  ASSERT_GT(payload.size(), first_entry + 5);

  const auto recover_cut = [&](size_t keep) {
    batch_record->payload = payload.substr(0, keep);
    return recover_from_wal(schema, records);
  };
  const auto header_cut = recover_cut(first_entry + 2);
  ASSERT_FALSE(header_cut.is_ok());
  EXPECT_EQ(header_cut.status().code(), ErrorCode::kInternal);
  EXPECT_NE(header_cut.status().message().find(
                "truncated batch record header"),
            std::string::npos)
      << header_cut.status().to_string();
  const auto row_cut = recover_cut(first_entry + 5);
  ASSERT_FALSE(row_cut.is_ok());
  EXPECT_EQ(row_cut.status().code(), ErrorCode::kInternal);
  EXPECT_NE(row_cut.status().message().find("truncated batch record row"),
            std::string::npos)
      << row_cut.status().to_string();
  const auto whole = recover_cut(payload.size());
  ASSERT_TRUE(whole.is_ok());
  EXPECT_TRUE(engines_equivalent(engine, **whole).is_ok());
}

TEST(RecoveryTest, FullLoaderRunRoundTrips) {
  // A real bulk load — with error rows skipped mid-batch — replays from the
  // WAL into an equivalent repository. The loader logs one kInsertBatch
  // record per extent append instead of a record per row; replay must
  // rebuild an extent-identical repository from those batch records, the
  // same live rows in the same extents as the source engine,
  // deterministically down to page and slot across repeated replays.
  const Schema schema = catalog::make_pq_schema();
  EngineOptions options = retain_options();
  Engine engine(schema, options);
  client::DirectSession session(engine);
  core::BulkLoaderOptions loader_options;
  loader_options.commit.every_cycles = 2;  // several commit boundaries
  core::BulkLoader loader(session, schema, loader_options);
  ASSERT_TRUE(loader
                  .load_text("reference",
                             catalog::CatalogGenerator::reference_file().text)
                  .is_ok());
  catalog::FileSpec spec;
  spec.seed = 404;
  spec.unit_id = 44;
  spec.target_bytes = 64 * 1024;
  spec.error_rate = 0.05;
  const auto file = catalog::CatalogGenerator::generate(spec);
  const auto report = loader.load_text("dirty.cat", file.text);
  ASSERT_TRUE(report.is_ok());
  ASSERT_GT(report->rows_skipped_server, 0);  // recovery under mid-batch skips

  // The load actually took the batch-logging path.
  const auto records = engine.wal_records();
  int64_t batch_records = 0;
  for (const auto& record : records) {
    if (record.type == storage::WalRecordType::kInsertBatch) ++batch_records;
  }
  EXPECT_GT(batch_records, 0);

  RecoveryStats stats;
  const auto recovered =
      recover_from_wal(schema, records, EngineOptions{}, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.rows_replayed, engine.total_rows());
  EXPECT_TRUE(engines_equivalent(engine, **recovered).is_ok());
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());

  // Extent-identical: per table, live rows grouped by extent match the
  // source exactly (page/slot may differ where skipped rows left holes).
  for (int t = 0; t < schema.table_count(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    std::multiset<std::pair<uint32_t, std::string>> original, replayed;
    ASSERT_TRUE(engine.live_view()
                    .scan_heap(tid,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 original.emplace(slot.extent,
                                                  std::string(bytes));
                               })
                    .is_ok());
    ASSERT_TRUE((*recovered)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  replayed.emplace(slot.extent,
                                                   std::string(bytes));
                                })
                    .is_ok());
    EXPECT_EQ(original, replayed) << "table " << schema.table(tid).name;
  }

  // Deterministic replay: two recoveries of the same batch records agree
  // byte-for-byte on physical layout.
  const auto again = recover_from_wal(schema, records);
  ASSERT_TRUE(again.is_ok());
  using PhysicalRow =
      std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, std::string>;
  std::vector<PhysicalRow> first_layout, second_layout;
  for (int t = 0; t < schema.table_count(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    ASSERT_TRUE((*recovered)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  first_layout.emplace_back(
                                      tid, slot.extent, slot.page, slot.slot,
                                      std::string(bytes));
                                })
                    .is_ok());
    ASSERT_TRUE((*again)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  second_layout.emplace_back(
                                      tid, slot.extent, slot.page, slot.slot,
                                      std::string(bytes));
                                })
                    .is_ok());
  }
  EXPECT_EQ(first_layout, second_layout);
}

// Decorates a session so the Nth batch call (execute_batch or
// execute_column_batch) reports a dropped connection (nothing applied) —
// the fault_injection_test pattern, used here to kill one worker of a
// parallel load mid-batch.
class CrashingSession final : public client::Session {
 public:
  CrashingSession(client::Session& inner, int64_t fail_on_call)
      : inner_(inner), fail_on_call_(fail_on_call) {}

  Result<uint32_t> prepare_insert(std::string_view table_name) override {
    return inner_.prepare_insert(table_name);
  }
  client::BatchOutcome execute_batch(uint32_t table,
                                     std::span<const Row> rows) override {
    if (auto fault = next_call_fault()) return *fault;
    return inner_.execute_batch(table, rows);
  }
  client::BatchOutcome execute_column_batch(uint32_t table,
                                            const ColumnBatch& batch,
                                            size_t first,
                                            size_t count) override {
    if (auto fault = next_call_fault()) return *fault;
    return inner_.execute_column_batch(table, batch, first, count);
  }
  Status execute_single(uint32_t table, const Row& row) override {
    return inner_.execute_single(table, row);
  }
  Status commit() override { return inner_.commit(); }
  void client_compute(Nanos duration) override {
    inner_.client_compute(duration);
  }
  void note_buffered_rows(int64_t rows, int64_t bytes,
                          bool columnar) override {
    inner_.note_buffered_rows(rows, bytes, columnar);
  }
  Nanos now() const override { return inner_.now(); }
  const client::SessionStats& stats() const override {
    return inner_.stats();
  }

 private:
  // Count one batch call; the injected outcome when it is the Nth.
  std::optional<client::BatchOutcome> next_call_fault() {
    if (++calls_ != fail_on_call_) return std::nullopt;
    return client::BatchOutcome{
        0, BatchError{0, Status(ErrorCode::kIoError, "worker killed")}};
  }

  client::Session& inner_;
  int64_t calls_ = 0;
  int64_t fail_on_call_;
};

// Four workers load the same tables in parallel over a sharded heap; one
// worker's connection dies mid-batch and the log is snapshotted while its
// transaction is still open (a crash, not a tidy rollback). Replay must
// discard the torn transaction, rebuild an equivalent repository, and put
// every committed row back into the extent it was originally appended to.
TEST(RecoveryTest, ParallelSameTableCrashRoundTrip) {
  const Schema schema = catalog::make_pq_schema();
  EngineOptions options = retain_options();
  options.heap_extents = 3;
  Engine engine(schema, options);
  {
    client::DirectSession session(engine);
    core::BulkLoaderOptions loader_options;
    loader_options.write_audit_row = false;
    core::BulkLoader loader(session, schema, loader_options);
    ASSERT_TRUE(loader
                    .load_text("reference",
                               catalog::CatalogGenerator::reference_file().text)
                    .is_ok());
  }

  // The crashed worker's session outlives the load so the WAL snapshot below
  // still sees its transaction open.
  auto crashed_session = std::make_unique<client::DirectSession>(engine);
  std::atomic<int> clean_loads{0};
  bool crashed_load_failed = false;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      catalog::FileSpec spec;
      spec.seed = 7100 + static_cast<uint64_t>(w);
      spec.unit_id = 710 + w;
      spec.target_bytes = 32 * 1024;
      const auto file = catalog::CatalogGenerator::generate(spec);
      core::BulkLoaderOptions loader_options;
      loader_options.write_audit_row = false;
      loader_options.commit.every_cycles = 2;
      if (w == 3) {
        CrashingSession session(*crashed_session, /*fail_on_call=*/9);
        core::BulkLoader loader(session, schema, loader_options);
        crashed_load_failed = !loader.load_text("crash.cat", file.text).is_ok();
      } else {
        client::DirectSession session(engine);
        core::BulkLoader loader(session, schema, loader_options);
        if (loader.load_text("w" + std::to_string(w) + ".cat", file.text)
                .is_ok()) {
          clean_loads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_EQ(clean_loads.load(), 3);
  ASSERT_TRUE(crashed_load_failed);

  const auto records = engine.wal_records();  // torn transaction still open
  crashed_session.reset();  // now roll it back so the source engine is clean

  RecoveryStats stats;
  const auto recovered =
      recover_from_wal(schema, records, EngineOptions{}, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_GE(stats.transactions_discarded, 1);
  EXPECT_GT(stats.rows_discarded, 0);  // the torn txn had uncommitted rows
  EXPECT_TRUE(engines_equivalent(engine, **recovered).is_ok());
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());

  // Extent-faithful replay: per table, the live rows grouped by extent match
  // the source engine exactly (page/slot may differ — the source heap has
  // tombstone holes where the torn transaction's rows were undone).
  for (int t = 0; t < schema.table_count(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    std::multiset<std::pair<uint32_t, std::string>> original, replayed;
    ASSERT_TRUE(engine.live_view()
                    .scan_heap(tid,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 original.emplace(slot.extent,
                                                  std::string(bytes));
                               })
                    .is_ok());
    ASSERT_TRUE((*recovered)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  replayed.emplace(slot.extent,
                                                   std::string(bytes));
                                })
                    .is_ok());
    EXPECT_EQ(original, replayed) << "table " << schema.table(tid).name;
  }

  // The parallel load really spread one table across extents, and recovery
  // (asked for a single-extent engine) widened itself to hold them.
  const uint32_t objects = engine.table_id("objects").value();
  const EngineStats recovered_stats = (*recovered)->stats();
  ASSERT_LT(objects, recovered_stats.extents.size());
  const auto& extents = recovered_stats.extents[objects].extents;
  ASSERT_EQ(extents.size(), 3u);
  int populated = 0;
  for (const auto& extent : extents) populated += extent.rows > 0 ? 1 : 0;
  EXPECT_GT(populated, 1);

  // Replay is deterministic: a second recovery of the same records yields a
  // byte-identical physical layout, down to page and slot.
  const auto again = recover_from_wal(schema, records);
  ASSERT_TRUE(again.is_ok());
  using PhysicalRow =
      std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, std::string>;
  std::vector<PhysicalRow> first_layout, second_layout;
  for (int t = 0; t < schema.table_count(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    ASSERT_TRUE((*recovered)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  first_layout.emplace_back(
                                      tid, slot.extent, slot.page, slot.slot,
                                      std::string(bytes));
                                })
                    .is_ok());
    ASSERT_TRUE((*again)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  second_layout.emplace_back(
                                      tid, slot.extent, slot.page, slot.slot,
                                      std::string(bytes));
                                })
                    .is_ok());
  }
  EXPECT_EQ(first_layout, second_layout);
}

// Crash immediately after the covering flush: the WAL is truncated at the
// durable-LSN watermark, exactly what a device would hold the instant the
// flush completed. Under strict durability every acked commit must be below
// that watermark — including commits that rode a coalescing window — so
// every acked row survives recovery.
TEST(RecoveryTest, StrictAckedCommitsSurviveCrashAtWatermark) {
  const Schema schema = pair_schema();
  EngineOptions options = retain_options();
  // Exercise the window path.
  options.policies.commit.commit_window = kMillisecond;
  Engine engine(schema, options);
  OpCosts costs;
  // Two interleaved transactions so the pending region is multi-transaction
  // and the first commit's leader actually holds the window open.
  const uint64_t a = engine.begin_transaction();
  const uint64_t b = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(a, 0, {Value::i64(1), Value::str("a")},
                                costs).is_ok());
  ASSERT_TRUE(engine.insert_row(b, 0, {Value::i64(2), Value::str("b")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(a).is_ok());
  ASSERT_TRUE(engine.commit(b).is_ok());
  // A third transaction appends after the last flush and never commits.
  const uint64_t torn = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(torn, 0, {Value::i64(3), Value::str("c")},
                                costs).is_ok());
  ASSERT_LT(engine.wal_durable_lsn(), engine.wal_appended_lsn());

  auto records = engine.wal_records();
  records.resize(engine.wal_durable_lsn());  // crash: lose undurable tail
  const auto recovered = recover_from_wal(schema, records);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ((*recovered)->live_view().row_count(0), 2);
  EXPECT_TRUE((*recovered)->live_view().pk_lookup(0, {Value::i64(1)}).is_ok());
  EXPECT_TRUE((*recovered)->live_view().pk_lookup(0, {Value::i64(2)}).is_ok());
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(3)}).is_ok());
  ASSERT_TRUE(engine.rollback(torn).is_ok());
}

// Relaxed durability acks at append; the watermark must be honest about it.
// A commit before the sync_wal() checkpoint survives a crash at the
// watermark, a commit after it is lost — and the engine said so, because
// its records sat above wal_durable_lsn().
TEST(RecoveryTest, RelaxedWatermarkIsHonest) {
  const Schema schema = pair_schema();
  EngineOptions options = retain_options();
  options.policies.commit.durability = storage::DurabilityMode::kRelaxed;
  Engine engine(schema, options);
  OpCosts costs;
  const uint64_t a = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(a, 0, {Value::i64(1), Value::str("a")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(a).is_ok());
  EXPECT_EQ(engine.wal_durable_lsn(), 0u);  // acked but not yet durable
  ASSERT_GT(engine.sync_wal(), 0);          // checkpoint covers A
  EXPECT_EQ(engine.wal_durable_lsn(), engine.wal_appended_lsn());

  const uint64_t b = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(b, 0, {Value::i64(2), Value::str("b")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(b).is_ok());  // acked above the watermark
  EXPECT_LT(engine.wal_durable_lsn(), engine.wal_appended_lsn());

  auto records = engine.wal_records();
  records.resize(engine.wal_durable_lsn());  // crash before any new sync
  const auto recovered = recover_from_wal(schema, records);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_TRUE((*recovered)->live_view().pk_lookup(0, {Value::i64(1)}).is_ok());
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(2)}).is_ok());
}

// Crash while a writer is *blocked on an ITL slot*: the WAL is snapshotted
// with one transaction holding the single slot uncommitted and another queued
// behind it (which therefore has no WAL footprint at all). Replay into a
// fresh gated engine must keep only the committed work and leave every gate
// slot free — an admission held at crash time is not a durable artifact.
TEST(RecoveryTest, CrashWhileBlockedOnItlSlotLeaksNothing) {
  const Schema schema = pair_schema();
  EngineOptions options = retain_options();
  options.policies.concurrency.itl_slots_per_table = 1;
  Engine engine(schema, options);
  OpCosts costs;
  // Committed baseline row.
  const uint64_t base = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(base, 0, {Value::i64(1), Value::str("base")},
                                costs).is_ok());
  ASSERT_TRUE(engine.commit(base).is_ok());

  // Holder: open transaction owning table 0's only ITL slot.
  const uint64_t holder = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(holder, 0, {Value::i64(2), Value::str("open")},
                                costs).is_ok());

  // Blocked writer: queues behind the holder at admission.
  std::thread blocked([&engine] {
    OpCosts thread_costs;
    const uint64_t txn = engine.begin_transaction();
    ASSERT_TRUE(engine
                    .insert_row(txn, 0, {Value::i64(3), Value::str("late")},
                                thread_costs)
                    .is_ok());
    EXPECT_GT(thread_costs.itl_wait_ns, 0);
    ASSERT_TRUE(engine.commit(txn).is_ok());
  });
  // Wait until the writer is provably parked on the gate, then "crash".
  while (engine.stats().concurrency.itl.waits < 1) {
    std::this_thread::yield();
  }
  const auto records = engine.wal_records();  // crash snapshot
  ASSERT_TRUE(engine.commit(holder).is_ok());  // unblock and drain
  blocked.join();

  // Replay the snapshot into an engine with the same gate configuration.
  RecoveryStats stats;
  const auto recovered =
      recover_from_wal(schema, records, options, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  // Only the committed baseline survives: the holder was uncommitted and the
  // blocked writer never reached the WAL.
  EXPECT_EQ((*recovered)->live_view().row_count(0), 1);
  EXPECT_TRUE((*recovered)->live_view().pk_lookup(0, {Value::i64(1)}).is_ok());
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(2)}).is_ok());
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(3)}).is_ok());
  EXPECT_EQ(stats.transactions_discarded, 1);
  // No leaked admissions: replay acquired and released its own slots.
  const ConcurrencyStats gates = (*recovered)->stats().concurrency;
  EXPECT_EQ(gates.itl.in_use, 0);
  EXPECT_EQ(gates.transaction_gate.in_use, 0);
  EXPECT_GE(gates.itl.acquires, 1u);
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());

  // The source engine drained cleanly too once the holder committed.
  const ConcurrencyStats live = engine.stats().concurrency;
  EXPECT_EQ(live.itl.in_use, 0);
  EXPECT_EQ(live.transaction_gate.in_use, 0);
  EXPECT_EQ(engine.live_view().row_count(0), 3);
}

// Crash while a pinned snapshot scan is mid-flight: the WAL snapshot taken
// at that instant replays to exactly the committed prefix the pin can see —
// published-but-uncommitted rows are visible to neither — and dropping the
// pin leaves no snapshot pages or pin registrations behind.
TEST(RecoveryTest, CrashDuringPinnedSnapshotScanReplaysClean) {
  const Schema schema = pair_schema();
  Engine engine(schema, retain_options());
  OpCosts costs;
  // Committed baseline: three transactions over both tables.
  for (int64_t t = 0; t < 3; ++t) {
    const uint64_t txn = engine.begin_transaction();
    for (int64_t j = 0; j < 4; ++j) {
      const int64_t id = t * 100 + j;
      ASSERT_TRUE(engine
                      .insert_row(txn, 0,
                                  {Value::i64(id),
                                   Value::str("p" + std::to_string(id))},
                                  costs)
                      .is_ok());
      ASSERT_TRUE(engine
                      .insert_row(txn, 1, {Value::i64(1000 + id),
                                           Value::i64(id)}, costs)
                      .is_ok());
    }
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }
  // One more transaction publishes rows to the live heap but never commits
  // before the "crash" — the two-phase insert makes them live-visible, but
  // they must appear in neither the pinned snapshot nor the replay.
  const uint64_t torn = engine.begin_transaction();
  ASSERT_TRUE(engine.insert_row(torn, 0, {Value::i64(999), Value::str("t")},
                                costs).is_ok());
  ASSERT_EQ(engine.live_view().row_count(0), 13);  // live read-uncommitted sees it

  // The scan in flight at crash time: pin now, read through it after the
  // crash snapshot is taken (the pin holds the chain alive regardless).
  Snapshot pinned = engine.pin_snapshot();
  const auto records = engine.wal_records();  // crash snapshot

  RecoveryStats stats;
  const auto recovered =
      recover_from_wal(schema, records, EngineOptions{}, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.transactions_committed, 3);
  EXPECT_EQ(stats.transactions_discarded, 1);
  EXPECT_EQ(stats.rows_discarded, 1);

  // Extent-identical: the pinned snapshot's physical view equals the
  // replayed engine's heap, table by table — same committed prefix, same
  // extents, torn row in neither.
  for (int t = 0; t < schema.table_count(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    std::multiset<std::pair<uint32_t, std::string>> snapshot_view, replayed;
    ASSERT_TRUE(engine
                    .view_at(pinned).scan_heap(tid,
                                        [&](storage::SlotId slot,
                                            std::string_view bytes) {
                                          snapshot_view.emplace(
                                              slot.extent, std::string(bytes));
                                        })
                    .is_ok());
    ASSERT_TRUE((*recovered)->live_view()
                    .scan_heap(tid,
                                [&](storage::SlotId slot,
                                    std::string_view bytes) {
                                  replayed.emplace(slot.extent,
                                                   std::string(bytes));
                                })
                    .is_ok());
    EXPECT_EQ(snapshot_view, replayed) << "table " << schema.table(tid).name;
  }
  EXPECT_EQ(engine.view_at(pinned).row_count(0), 12);
  EXPECT_EQ((*recovered)->live_view().row_count(0), 12);
  EXPECT_FALSE((*recovered)->live_view().pk_lookup(0, {Value::i64(999)}).is_ok());
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());

  // Nothing leaks: the pin was the only one, and dropping it empties the
  // registry while the published chain stays intact for future pins.
  EXPECT_EQ(engine.stats().snapshots.active_pins, 1);
  { const Snapshot drop = std::move(pinned); }
  EXPECT_EQ(engine.stats().snapshots.active_pins, 0);
  EXPECT_EQ(engine.stats().snapshots.published_lsn, 3u);
  const Snapshot again = engine.pin_snapshot();
  EXPECT_EQ(engine.view_at(again).row_count(0), 12);

  // Clean teardown of the source engine.
  ASSERT_TRUE(engine.rollback(torn).is_ok());
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// A sharded load killed mid-batch: committed work was in flight to several
// shards, one transaction never committed. Per-shard WAL replay must rebuild
// every shard extent-identically (the router is deterministic, so replayed
// rows land where they were logged), discard the torn transaction on every
// shard it touched, and leave a foreign-key closure that reconciles.
TEST(RecoveryTest, ShardedCrashReplaysEveryShardExtentIdentical) {
  Schema schema;
  TableDef obj;
  obj.name = "obj";
  obj.col("id", ColumnType::kInt64, false);
  obj.col("ra", ColumnType::kDouble, false);
  obj.col("dec", ColumnType::kDouble, false);
  obj.primary_key = {"id"};
  obj.indexes.push_back(
      IndexDef{"ix_htm", {}, HtmIndexSpec{"ra", "dec", 12}});
  ASSERT_TRUE(schema.add_table(obj).is_ok());
  TableDef det;
  det.name = "det";
  det.col("id", ColumnType::kInt64, false);
  det.col("object_id", ColumnType::kInt64, false);
  det.primary_key = {"id"};
  det.foreign_keys.push_back(ForeignKey{{"object_id"}, "obj"});
  ASSERT_TRUE(schema.add_table(det).is_ok());

  EngineOptions options = retain_options();
  options.policies.shard.shard_count = 3;
  ShardedRepository repo(schema, options);
  const uint32_t obj_id = repo.schema().table_id("obj").value();
  const uint32_t det_id = repo.schema().table_id("det").value();

  // Committed load: objects spread across the sky so the batch splits into
  // runs on every shard; detections route block-cyclically by PK, so their
  // FK edges cross shards.
  auto session = repo.make_session();
  ASSERT_TRUE(session->prepare_insert("obj").is_ok());
  ASSERT_TRUE(session->prepare_insert("det").is_ok());
  std::vector<Row> objects;
  for (int64_t i = 0; i < 240; ++i) {
    const double ra = static_cast<double>((i * 131) % 360);
    const double dec = static_cast<double>((i * 37) % 120) - 60.0;
    objects.push_back({Value::i64(i), Value::f64(ra), Value::f64(dec)});
  }
  std::vector<Row> detections;
  for (int64_t i = 0; i < 600; ++i) {
    detections.push_back({Value::i64(i), Value::i64(i % 240)});
  }
  ASSERT_FALSE(session->execute_batch(obj_id, objects).error.has_value());
  ASSERT_FALSE(session->execute_batch(det_id, detections).error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  // Every shard really holds rows — the crash leaves work in flight on all
  // of them, not just one.
  const std::vector<int64_t> committed_rows = repo.shard_rows();
  for (int s = 0; s < repo.shard_count(); ++s) {
    EXPECT_GT(committed_rows[static_cast<size_t>(s)], 0) << "shard " << s;
  }

  // Crash: a second batch lands on several shards and never commits.
  auto torn = repo.make_session();
  ASSERT_TRUE(torn->prepare_insert("obj").is_ok());
  std::vector<Row> uncommitted;
  for (int64_t i = 1000; i < 1060; ++i) {
    const double ra = static_cast<double>((i * 97) % 360);
    uncommitted.push_back({Value::i64(i), Value::f64(ra), Value::f64(10.0)});
  }
  ASSERT_FALSE(torn->execute_batch(obj_id, uncommitted).error.has_value());
  // No commit() — the session is the crash.

  // Capture every shard's log with the torn transaction still open — this
  // is the crash image the replay sees.
  std::vector<std::vector<storage::WalRecord>> logs;
  for (int s = 0; s < repo.shard_count(); ++s) {
    logs.push_back(repo.shard_wal_records(s));
  }
  // Tidy the source repository (session teardown rolls the open shard
  // transactions back) so the extent comparison below is committed-vs-
  // committed.
  torn.reset();

  RecoveryStats stats;
  const auto recovered =
      ShardedRepository::recover_from_wal(schema, logs, options, &stats);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  ASSERT_EQ((*recovered)->shard_count(), repo.shard_count());
  EXPECT_EQ(stats.rows_replayed, 240 + 600);
  EXPECT_GT(stats.rows_discarded, 0);
  EXPECT_GT(stats.transactions_discarded, 0);

  // Shard-identical replay: every shard matches its original engine, live
  // heap bytes included. The torn rows are gone everywhere.
  for (int s = 0; s < repo.shard_count(); ++s) {
    EXPECT_TRUE(engines_equivalent(repo.shard(s), (*recovered)->shard(s))
                    .is_ok())
        << "shard " << s;
    std::vector<std::pair<storage::SlotId, std::string>> original, replayed;
    ASSERT_TRUE(repo.shard(s)
                    .live_view()
                    .scan_heap(obj_id,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 original.emplace_back(slot,
                                                       std::string(bytes));
                               })
                    .is_ok());
    ASSERT_TRUE((*recovered)
                    ->shard(s)
                    .live_view()
                    .scan_heap(obj_id,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 replayed.emplace_back(slot,
                                                       std::string(bytes));
                               })
                    .is_ok());
    EXPECT_EQ(original, replayed) << "shard " << s;
  }
  EXPECT_EQ((*recovered)->total_rows(), 240 + 600);
  const ShardedReadView view = (*recovered)->read_view();
  EXPECT_FALSE(view.pk_lookup(obj_id, {Value::i64(1000)}).is_ok());

  // The cross-shard FK closure reconciles after replay: every detection
  // finds its object, many on a different shard.
  const auto report = (*recovered)->reconcile_foreign_keys();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->converged());
  EXPECT_EQ(report->rows_checked, 600);
  EXPECT_GT(report->remote_hits, 0);
  EXPECT_TRUE((*recovered)->verify_integrity().is_ok());
}

// The on-disk path: dump per-shard WAL files into dir/shard-NNN/wal.skywal
// and recover the whole repository from the directory.
TEST(RecoveryTest, ShardedWalDirectoryRoundTrips) {
  Schema schema;
  TableDef obj;
  obj.name = "obj";
  obj.col("id", ColumnType::kInt64, false);
  obj.col("ra", ColumnType::kDouble, false);
  obj.col("dec", ColumnType::kDouble, false);
  obj.primary_key = {"id"};
  obj.indexes.push_back(
      IndexDef{"ix_htm", {}, HtmIndexSpec{"ra", "dec", 12}});
  ASSERT_TRUE(schema.add_table(obj).is_ok());

  EngineOptions options = retain_options();
  options.policies.shard.shard_count = 2;
  ShardedRepository repo(schema, options);
  const uint32_t obj_id = repo.schema().table_id("obj").value();
  auto session = repo.make_session();
  ASSERT_TRUE(session->prepare_insert("obj").is_ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back({Value::i64(i), Value::f64(static_cast<double>(i * 5 % 360)),
                    Value::f64(static_cast<double>(i % 80) - 40.0)});
  }
  ASSERT_FALSE(session->execute_batch(obj_id, rows).error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("skyloader_shard_recovery_" + std::to_string(::getpid()));
  ASSERT_TRUE(repo.dump_wal(dir.string()).is_ok());

  const auto recovered =
      ShardedRepository::recover_from_dir(schema, dir.string(), options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  for (int s = 0; s < repo.shard_count(); ++s) {
    EXPECT_TRUE(engines_equivalent(repo.shard(s), (*recovered)->shard(s))
                    .is_ok())
        << "shard " << s;
  }
  EXPECT_EQ((*recovered)->total_rows(), 64);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(RecoveryTest, EquivalenceDetectsDifferences) {
  const Schema schema = pair_schema();
  Engine a(schema), b(schema);
  OpCosts costs;
  const uint64_t txn_a = a.begin_transaction();
  ASSERT_TRUE(a.insert_row(txn_a, 0, {Value::i64(1), Value::str("x")}, costs)
                  .is_ok());
  ASSERT_TRUE(a.commit(txn_a).is_ok());
  // b empty: count mismatch.
  EXPECT_FALSE(engines_equivalent(a, b).is_ok());
  // b with different content at the same PK: content mismatch.
  const uint64_t txn_b = b.begin_transaction();
  ASSERT_TRUE(b.insert_row(txn_b, 0, {Value::i64(1), Value::str("y")}, costs)
                  .is_ok());
  ASSERT_TRUE(b.commit(txn_b).is_ok());
  EXPECT_FALSE(engines_equivalent(a, b).is_ok());
}

}  // namespace
}  // namespace sky::db
