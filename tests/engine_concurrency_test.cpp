// Concurrency tests for the fine-grained engine locking: parallel loaders
// over the PQ schema with interleaved bad rows and periodic commits, a raw
// multi-threaded engine stress with deliberate constraint violations and
// concurrent readers/telemetry pollers, and abandoned-session rollbacks.
// Run under ThreadSanitizer in CI (SKY_SANITIZE=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "core/coordinator.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/query_scheduler.h"

namespace sky::core {
namespace {

std::vector<CatalogFile> make_files(int count, int64_t bytes_each,
                                    uint64_t seed, double error_rate) {
  std::vector<CatalogFile> files;
  for (int f = 0; f < count; ++f) {
    catalog::FileSpec spec;
    spec.name = "conc" + std::to_string(f) + ".cat";
    spec.seed = seed + static_cast<uint64_t>(f);
    spec.unit_id = 400 + f;
    spec.target_bytes = bytes_each;
    spec.error_rate = error_rate;
    files.push_back(
        CatalogFile{spec.name, catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

// Eight real loader threads over the PQ schema, error-laden files, commits
// every other cycle. Afterwards the engine must audit clean and row counts
// must match the report exactly, per table.
TEST(EngineConcurrencyTest, EightLoadersWithErrorsAndPeriodicCommits) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  {
    client::DirectSession session(engine);
    BulkLoaderOptions loader_options;
    loader_options.write_audit_row = false;
    BulkLoader loader(session, schema, loader_options);
    ASSERT_TRUE(loader
                    .load_text("reference",
                               catalog::CatalogGenerator::reference_file().text)
                    .is_ok());
  }
  const int64_t rows_before = engine.total_rows();

  const auto files = make_files(16, 24 * 1024, 541, /*error_rate=*/0.15);
  CoordinatorOptions options;
  options.parallel_degree = 8;
  options.loader.write_audit_row = false;
  options.loader.commit.every_cycles = 2;
  const auto report = LoadCoordinator::run_threads(
      files, schema,
      [&](int) { return std::make_unique<client::DirectSession>(engine); },
      options);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->files.size(), 16u);

  // The error-laden files must actually have exercised the skip paths.
  int64_t skipped = 0;
  FileLoadReport totals;
  for (const FileLoadReport& file : report->files) {
    skipped += file.total_skipped();
    totals.merge_counts(file);
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(report->total_rows_loaded, 0);

  // Exact accounting: engine contents == reference + every reported row,
  // in aggregate and per table.
  EXPECT_EQ(engine.total_rows(), rows_before + report->total_rows_loaded);
  for (const auto& [table, rows] : totals.loaded_per_table) {
    const uint32_t tid = engine.table_id(table).value();
    EXPECT_GE(engine.live_view().row_count(tid), rows) << table;
  }
  EXPECT_TRUE(engine.verify_integrity().is_ok());

  // Lock-wait attribution is present for every worker (possibly zero).
  ASSERT_EQ(report->worker_lock_wait.size(), 8u);
  for (const Nanos wait : report->worker_lock_wait) EXPECT_GE(wait, 0);
}

// Raw engine stress: writers inserting parent/child rows with deliberate
// duplicate-PK and dangling-FK rows mid-batch (JDBC stop-at-first-failure
// semantics), periodic commits, concurrent telemetry pollers and PK readers,
// and an insert observer counting under the table latch.
TEST(EngineConcurrencyTest, MixedWritersReadersTelemetry) {
  db::Schema schema;
  {
    db::TableDef parent;
    parent.name = "parent";
    parent.col("id", db::ColumnType::kInt64, false);
    parent.primary_key = {"id"};
    ASSERT_TRUE(schema.add_table(parent).is_ok());
    db::TableDef child;
    child.name = "child";
    child.col("id", db::ColumnType::kInt64, false);
    child.col("parent_id", db::ColumnType::kInt64, true);
    child.primary_key = {"id"};
    child.foreign_keys.push_back({{"parent_id"}, "parent"});
    ASSERT_TRUE(schema.add_table(child).is_ok());
  }
  db::EngineOptions options;
  options.retain_wal_records = true;
  db::Engine engine(schema, options);
  const uint32_t parent_id = engine.table_id("parent").value();
  const uint32_t child_id = engine.table_id("child").value();

  std::atomic<int64_t> observed{0};
  engine.set_insert_observer(
      [&observed](uint32_t, uint64_t) { observed.fetch_add(1); });

  constexpr int kWriters = 8;
  constexpr int64_t kRowsPerWriter = 400;
  std::atomic<int64_t> applied_total{0};
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      int64_t applied = 0;
      uint64_t txn = engine.begin_transaction();
      const int64_t base = static_cast<int64_t>(w) * 1'000'000;
      for (int64_t i = 0; i < kRowsPerWriter; i += 10) {
        // A batch of 10 parents with a duplicate planted in the middle:
        // rows after the duplicate are discarded by batch semantics.
        std::vector<db::Row> batch;
        for (int64_t j = 0; j < 10; ++j) {
          const bool dup = (j == 5) && (i % 50 == 0) && i > 0;
          batch.push_back({db::Value::i64(dup ? base + i - 10 : base + i + j)});
        }
        const db::BatchResult result =
            engine.insert_batch(txn, parent_id, batch);
        applied += result.rows_applied;
        // Children referencing our own parents, plus one dangling FK that
        // must fail and discard the tail of its batch.
        std::vector<db::Row> children;
        for (int64_t j = 0; j < 5; ++j) {
          const bool dangling = (j == 3) && (i % 40 == 0);
          children.push_back(
              {db::Value::i64(base + 500'000 + i + j),
               db::Value::i64(dangling ? 777'777'777 : base + i)});
        }
        const db::BatchResult child_result =
            engine.insert_batch(txn, child_id, children);
        applied += child_result.rows_applied;
        if (i % 40 == 0 && (i / 40) % 2 == 1) {
          EXPECT_TRUE(engine.commit(txn).is_ok());
          txn = engine.begin_transaction();
        }
      }
      EXPECT_TRUE(engine.commit(txn).is_ok());
      applied_total.fetch_add(applied);
    });
  }

  // Telemetry poller: every getter must return a coherent snapshot while
  // writers run.
  threads.emplace_back([&] {
    size_t last_record_count = 0;
    while (!stop_readers.load()) {
      const storage::WalStats wal = engine.stats().wal;
      EXPECT_GE(wal.bytes_appended, wal.bytes_flushed);
      // records() is a snapshot of an append-only stream: monotonic.
      const auto records = engine.wal_records();
      EXPECT_GE(records.size(), last_record_count);
      last_record_count = records.size();
      (void)engine.stats().concurrency;
      std::this_thread::yield();
    }
  });
  // PK readers: lookups race with inserts but must never crash or corrupt.
  threads.emplace_back([&] {
    int64_t probe = 0;
    while (!stop_readers.load()) {
      (void)engine.live_view().pk_lookup(parent_id, {db::Value::i64(probe % 4'000'000)});
      (void)engine.live_view().row_count(child_id);
      probe += 37;
      std::this_thread::yield();
    }
  });
  // Abandoned sessions: rollback (engine-exclusive) races with everything.
  threads.emplace_back([&] {
    for (int r = 0; r < 20; ++r) {
      client::DirectSession session(engine);
      const auto table = session.prepare_insert("parent");
      ASSERT_TRUE(table.is_ok());
      std::vector<db::Row> rows;
      for (int64_t j = 0; j < 8; ++j) {
        rows.push_back({db::Value::i64(9'000'000 + r * 100 + j)});
      }
      (void)session.execute_batch(*table, rows);
      // Session destructor rolls the open transaction back.
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Every applied row is in the engine; every rolled-back row is not.
  EXPECT_EQ(engine.total_rows(), applied_total.load());
  // The observer saw every insert, including ones later rolled back.
  EXPECT_GE(observed.load(), applied_total.load());
  EXPECT_TRUE(engine.verify_integrity().is_ok());

  // Duplicates and dangling FKs were actually planted and rejected.
  EXPECT_LT(engine.total_rows(),
            static_cast<int64_t>(kWriters) * kRowsPerWriter * 3 / 2);
  EXPECT_EQ(engine.live_view().pk_lookup(parent_id, {db::Value::i64(9'000'042)})
                .status()
                .code(),
            ErrorCode::kNotFound);
}

// Eight writers hammer ONE table over an eight-extent sharded heap:
// batched appends with planted duplicate keys, periodic commits, whole-
// transaction rollbacks, while logical scanners, physical heap scanners,
// and extent-stat pollers run concurrently. Exercises the extent latches,
// the three-phase insert's discard path, and the latch-free heap counters;
// TSan-clean under SKY_SANITIZE=thread.
TEST(EngineConcurrencyTest, ShardedSameTableAppendRollbackScanStress) {
  db::Schema schema;
  db::TableDef hot;
  hot.name = "hot";
  hot.col("id", db::ColumnType::kInt64, false);
  hot.col("payload", db::ColumnType::kString);
  hot.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(hot).is_ok());
  db::EngineOptions options;
  options.heap_extents = 8;
  db::Engine engine(schema, options);
  const uint32_t tid = engine.table_id("hot").value();

  constexpr int kWriters = 8;
  constexpr int64_t kBatches = 60;  // per writer, 8 rows each
  std::atomic<int64_t> committed_rows{0};
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      int64_t uncommitted = 0;
      int64_t committed = 0;
      uint64_t txn = engine.begin_transaction();
      const int64_t base = static_cast<int64_t>(w) * 1'000'000;
      for (int64_t b = 0; b < kBatches; ++b) {
        // One batch of 8; every tenth batch plants a duplicate of the
        // previous batch's first key at index 4, so batch semantics drop
        // the tail and the pending heap row is discarded.
        std::vector<db::Row> batch;
        for (int64_t j = 0; j < 8; ++j) {
          const bool dup = (j == 4) && (b % 10 == 3);
          const int64_t id = dup ? base + (b - 1) * 8 : base + b * 8 + j;
          batch.push_back({db::Value::i64(id),
                           db::Value::str("w" + std::to_string(w) + ":" +
                                          std::to_string(b * 8 + j))});
        }
        uncommitted += engine.insert_batch(txn, tid, batch).rows_applied;
        if (b % 12 == 11) {
          // Five transaction boundaries per writer; the third rolls back.
          if ((b / 12) % 3 == 2) {
            EXPECT_TRUE(engine.rollback(txn).is_ok());
          } else {
            EXPECT_TRUE(engine.commit(txn).is_ok());
            committed += uncommitted;
          }
          uncommitted = 0;
          txn = engine.begin_transaction();
        }
      }
      EXPECT_TRUE(engine.commit(txn).is_ok());
      committed += uncommitted;
      committed_rows.fetch_add(committed);
    });
  }

  // Logical scanner + extent-stat poller racing the writers.
  threads.emplace_back([&] {
    while (!stop_readers.load()) {
      (void)engine.live_view().scan_collect(tid, [](const db::Row&) { return true; });
      const db::EngineStats stats = engine.stats();
      EXPECT_LT(tid, stats.extents.size());
      std::this_thread::yield();
    }
  });
  // Physical heap scanner: every visible slot well-formed and non-empty.
  threads.emplace_back([&] {
    while (!stop_readers.load()) {
      EXPECT_TRUE(engine.live_view()
                      .scan_heap(tid,
                                 [](storage::SlotId slot,
                                    std::string_view bytes) {
                                   EXPECT_LT(slot.extent, 8u);
                                   EXPECT_FALSE(bytes.empty());
                                 })
                      .is_ok());
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Exact accounting: committed rows and nothing else, spread across the
  // extents. 48 transactions round-robin over 8 extents and only 8 roll
  // back, so at most one extent can end up empty.
  EXPECT_EQ(engine.live_view().row_count(tid), committed_rows.load());
  const db::EngineStats engine_stats = engine.stats();
  ASSERT_LT(tid, engine_stats.extents.size());
  const auto& stats = engine_stats.extents[tid].extents;
  ASSERT_EQ(stats.size(), 8u);
  int64_t extent_rows = 0;
  int populated = 0;
  for (const auto& extent : stats) {
    extent_rows += extent.rows;
    populated += extent.rows > 0 ? 1 : 0;
  }
  EXPECT_EQ(extent_rows, committed_rows.load());
  EXPECT_GE(populated, 7);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// Column-batch writers racing on the same primary keys over a sharded
// heap: every writer submits the same strictly increasing key range, so
// between a run's shared-latch constraint check and its exclusive-latch
// publish another writer can publish a conflicting key. The loser must
// discard its pending rows from the conflict on and report a primary-key
// error at that index. Afterwards every key exists exactly once, nothing
// pending is visible, the engine audits clean, and a pinned snapshot
// reads exactly what the live trees and heap hold.
TEST(EngineConcurrencyTest, ColumnBatchKeyRaceDiscardsLosers) {
  db::Schema schema;
  db::TableDef hot;
  hot.name = "hot";
  hot.col("id", db::ColumnType::kInt64, false);
  hot.col("payload", db::ColumnType::kString);
  hot.primary_key = {"id"};
  hot.indexes.push_back(db::IndexDef{"ix_payload", {"payload"}, {}});
  ASSERT_TRUE(schema.add_table(hot).is_ok());
  db::EngineOptions options;
  options.heap_extents = 4;
  db::Engine engine(schema, options);
  const uint32_t tid = engine.table_id("hot").value();

  constexpr int kWriters = 6;
  constexpr int64_t kBatches = 40;
  constexpr int64_t kRows = 16;  // per batch
  std::atomic<int64_t> applied{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const uint64_t txn = engine.begin_transaction();
      int64_t mine = 0;
      // Odd writers' batches straddle two of the even writers' batches, so
      // a race can be lost partway through a run (the survivors are its
      // prefix). Even writers submit [0, kBatches * kRows), odd writers the
      // same range from kRows / 2 on, their last batch cut at its end.
      const int64_t shift = (w % 2) * (kRows / 2);
      for (int64_t b = 0; b < kBatches; ++b) {
        db::ColumnBatch batch(engine.schema().table(tid));
        const int64_t end =
            std::min((b + 1) * kRows + shift, kBatches * kRows);
        for (int64_t id = b * kRows + shift; id < end; ++id) {
          batch.push_i64(0, id);
          batch.push_str(1, "w" + std::to_string(w));
        }
        const db::BatchResult result =
            engine.insert_column_batch(txn, tid, batch);
        mine += result.rows_applied;
        if (result.error.has_value()) {
          EXPECT_EQ(result.error->status.code(),
                    ErrorCode::kConstraintPrimaryKey);
          EXPECT_EQ(result.error->row_index,
                    static_cast<size_t>(result.rows_applied));
        }
      }
      EXPECT_TRUE(engine.commit(txn).is_ok());
      applied.fetch_add(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(applied.load(), kBatches * kRows);
  EXPECT_EQ(engine.live_view().row_count(tid), kBatches * kRows);
  std::vector<int64_t> ids;
  EXPECT_TRUE(engine.live_view()
                  .scan_heap(tid,
                             [&](storage::SlotId, std::string_view bytes) {
                               ids.push_back(
                                   db::decode_row(bytes).value()[0].as_i64());
                             })
                  .is_ok());
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(static_cast<int64_t>(ids.size()), kBatches * kRows);
  for (int64_t i = 0; i < kBatches * kRows; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], i);
  }
  EXPECT_TRUE(engine.verify_integrity().is_ok());

  // The committed chunks hold exactly the surviving rows: the pinned PK and
  // secondary reads equal the live ones, and the pinned heap visit sees
  // the live slots — no slot a lost race discarded.
  const db::Snapshot snap = engine.pin_snapshot();
  const db::ReadView pinned = engine.view_at(snap);
  const db::ReadView live = engine.live_view();
  EXPECT_EQ(pinned.row_count(tid), kBatches * kRows);
  const auto live_pk = live.pk_range(tid, {}, {});
  const auto snap_pk = pinned.pk_range(tid, {}, {});
  ASSERT_TRUE(live_pk.is_ok());
  ASSERT_TRUE(snap_pk.is_ok());
  EXPECT_EQ(*live_pk, *snap_pk);
  const auto live_ix = live.index_range(tid, "ix_payload", {}, {});
  const auto snap_ix = pinned.index_range(tid, "ix_payload", {}, {});
  ASSERT_TRUE(live_ix.is_ok());
  ASSERT_TRUE(snap_ix.is_ok());
  EXPECT_EQ(static_cast<int64_t>(live_ix->size()), kBatches * kRows);
  EXPECT_EQ(*live_ix, *snap_ix);
  const auto slots_of = [&](const db::ReadView& view) {
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> slots;
    EXPECT_TRUE(view.scan_heap(tid,
                               [&](storage::SlotId slot, std::string_view) {
                                 slots.emplace_back(slot.extent, slot.page,
                                                    slot.slot);
                               })
                    .is_ok());
    return slots;
  };
  EXPECT_EQ(slots_of(live), slots_of(pinned));
}

// ITL admission: six writers hammer one table gated at two slots, with
// commits and deliberate rollbacks mixed in. The gate must actually queue
// (waits observed), never lose a release on the abort path (in_use back to
// zero after quiescence, acquires == admissions), and the data must stay
// intact. TSan-clean under SKY_SANITIZE=thread.
TEST(EngineConcurrencyTest, ItlGateContentionWithAborts) {
  db::Schema schema;
  db::TableDef hot;
  hot.name = "hot";
  hot.col("id", db::ColumnType::kInt64, false);
  hot.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(hot).is_ok());
  db::EngineOptions options;
  // Slots < writers: must queue.
  options.policies.concurrency.itl_slots_per_table = 2;
  db::Engine engine(schema, options);
  const uint32_t tid = engine.table_id("hot").value();

  constexpr int kWriters = 6;
  constexpr int kTxnsPerWriter = 12;
  std::atomic<int64_t> committed_rows{0};
  std::atomic<uint64_t> admissions{0};

  // Deterministic contention first: two holders pin both slots with open
  // transactions, a third writer provably queues, then one holder aborts
  // (slot must come back) and the other commits.
  {
    const uint64_t h1 = engine.begin_transaction();
    const uint64_t h2 = engine.begin_transaction();
    const std::vector<db::Row> r1 = {{db::Value::i64(9'000'001)}};
    const std::vector<db::Row> r2 = {{db::Value::i64(9'000'002)}};
    EXPECT_EQ(engine.insert_batch(h1, tid, r1).rows_applied, 1);
    EXPECT_EQ(engine.insert_batch(h2, tid, r2).rows_applied, 1);
    std::thread queued([&] {
      const uint64_t txn = engine.begin_transaction();
      const std::vector<db::Row> r3 = {{db::Value::i64(9'000'003)}};
      EXPECT_EQ(engine.insert_batch(txn, tid, r3).rows_applied, 1);
      EXPECT_TRUE(engine.commit(txn).is_ok());
    });
    while (engine.stats().concurrency.itl.waits < 1) {
      std::this_thread::yield();
    }
    EXPECT_EQ(engine.stats().concurrency.itl.in_use, 2);
    EXPECT_TRUE(engine.rollback(h1).is_ok());  // abort path frees the slot
    EXPECT_TRUE(engine.commit(h2).is_ok());
    queued.join();
    admissions.fetch_add(3);
    committed_rows.fetch_add(2);  // h2 + queued; h1 rolled back
  }

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      int64_t committed = 0;
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        const uint64_t txn = engine.begin_transaction();
        std::vector<db::Row> rows;
        for (int64_t j = 0; j < 6; ++j) {
          rows.push_back(
              {db::Value::i64(w * 1'000'000 + t * 100 + j)});
        }
        const db::BatchResult result = engine.insert_batch(txn, tid, rows);
        admissions.fetch_add(1);  // first write to the table admits once
        EXPECT_EQ(result.rows_applied, 6);
        // Every third transaction aborts: the gate slot must come back.
        if (t % 3 == 2) {
          EXPECT_TRUE(engine.rollback(txn).is_ok());
        } else {
          EXPECT_TRUE(engine.commit(txn).is_ok());
          committed += result.rows_applied;
        }
      }
      committed_rows.fetch_add(committed);
    });
  }
  // Poll the gate while writers run: in_use must never exceed the slots.
  std::atomic<bool> stop_poller{false};
  threads.emplace_back([&] {
    while (!stop_poller.load()) {
      const db::ConcurrencyStats stats = engine.stats().concurrency;
      EXPECT_GE(stats.itl.in_use, 0);
      EXPECT_LE(stats.itl.in_use, 2);
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop_poller.store(true);
  threads.back().join();

  const db::ConcurrencyStats stats = engine.stats().concurrency;
  // Six writers over two slots must actually have queued.
  EXPECT_GT(stats.itl.waits, 0u);
  EXPECT_GT(stats.itl.total_wait, 0);
  // Commit and abort paths both released: nothing leaked.
  EXPECT_EQ(stats.itl.in_use, 0);
  EXPECT_EQ(stats.transaction_gate.in_use, 0);
  // One admission per (transaction, table) first write, no double-acquire.
  EXPECT_EQ(stats.itl.acquires, admissions.load());
  // Rolled-back rows are gone, committed rows are all there.
  EXPECT_EQ(engine.live_view().row_count(tid), committed_rows.load());
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// Two-lane scheduler fairness: with every batch slot held by admitted
// batch queries, an interactive arrival must admit immediately — the lanes
// are separate gates, so batch occupancy can never queue interactive work.
TEST(EngineConcurrencyTest, BatchLaneNeverStarvesInteractiveAdmission) {
  db::Schema schema;
  db::TableDef t;
  t.name = "only";
  t.col("id", db::ColumnType::kInt64, false);
  t.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(t).is_ok());
  db::Engine engine(schema);

  core::QueryPolicy policy;
  policy.interactive_slots = 2;
  policy.batch_slots = 2;
  db::QueryScheduler scheduler(engine, policy);

  // Saturate the batch lane completely.
  db::Admission batch1 = scheduler.admit(db::QueryLane::kBatch);
  db::Admission batch2 = scheduler.admit(db::QueryLane::kBatch);
  ASSERT_TRUE(batch1.valid());
  ASSERT_TRUE(batch2.valid());
  EXPECT_EQ(scheduler.stats().batch.gate.in_use, 2);

  // Interactive admission goes straight through: no gate wait recorded.
  db::OpCosts costs;
  const db::Admission interactive =
      scheduler.admit(db::QueryLane::kInteractive, &costs);
  ASSERT_TRUE(interactive.valid());
  EXPECT_TRUE(interactive.snapshot().valid());
  const db::QueryStats stats = scheduler.stats();
  EXPECT_EQ(stats.interactive.gate.waits, 0u);
  EXPECT_EQ(stats.interactive.gate.in_use, 1);
  // A third batch admission would queue; interactive did not.
  EXPECT_EQ(stats.batch.gate.in_use, 2);
}

// Batch yielding: while an interactive query is in flight, a batch
// admission must hold back (batch_yields counts it) and admit only after
// the interactive lane drains.
TEST(EngineConcurrencyTest, BatchAdmissionYieldsToInteractiveInFlight) {
  db::Schema schema;
  db::TableDef t;
  t.name = "only";
  t.col("id", db::ColumnType::kInt64, false);
  t.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(t).is_ok());
  db::Engine engine(schema);

  core::QueryPolicy policy;
  policy.interactive_slots = 1;
  policy.batch_slots = 1;
  db::QueryScheduler scheduler(engine, policy);

  auto interactive = std::make_unique<db::Admission>(
      scheduler.admit(db::QueryLane::kInteractive));
  ASSERT_TRUE(interactive->valid());

  std::atomic<bool> batch_admitted{false};
  std::thread batch_thread([&] {
    db::OpCosts costs;
    const db::Admission batch =
        scheduler.admit(db::QueryLane::kBatch, &costs);
    EXPECT_TRUE(batch.valid());
    // The yield wait is query-lane time, not lock time.
    EXPECT_GT(costs.query_lane_wait_ns, 0);
    EXPECT_EQ(costs.lock_wait_ns, 0);
    batch_admitted.store(true);
  });

  // The batch admitter must register its yield, and must not be admitted
  // while the interactive query is still running.
  while (scheduler.stats().batch_yields < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(batch_admitted.load());
  EXPECT_EQ(scheduler.stats().batch.queue_depth, 1);

  interactive.reset();  // drain the interactive lane
  batch_thread.join();
  EXPECT_TRUE(batch_admitted.load());
  const db::QueryStats stats = scheduler.stats();
  EXPECT_GE(stats.batch_yields, 1);
  EXPECT_EQ(stats.batch.completed, 1);
  EXPECT_EQ(stats.interactive.completed, 1);
  EXPECT_EQ(engine.stats().snapshots.active_pins, 0);  // all unpinned
}

// Scheduler stress for the sanitizer legs: six loaders append committed
// batches while four interactive clients (snapshot PK lookups + index
// ranges) and two batch scanners (snapshot full scans) run ~10k query ops
// through the two-lane scheduler. Exercises concurrent publication, pin /
// unpin, yield handshakes, and histogram recording; TSan-clean under
// SKY_SANITIZE=thread is the point of the test.
TEST(EngineConcurrencyTest, QuerySchedulerMixedWorkloadStress) {
  db::Schema schema;
  db::TableDef objects;
  objects.name = "objects";
  objects.col("objid", db::ColumnType::kInt64, false);
  objects.col("htmid", db::ColumnType::kInt64, false);
  objects.primary_key = {"objid"};
  objects.indexes.push_back(db::IndexDef{"ix_htmid", {"htmid"}, {}});
  ASSERT_TRUE(schema.add_table(objects).is_ok());
  db::EngineOptions options;
  options.heap_extents = 4;
  db::Engine engine(schema, options);
  const uint32_t tid = engine.table_id("objects").value();

  core::QueryPolicy policy;
  policy.interactive_slots = 2;
  policy.batch_slots = 1;
  db::QueryScheduler scheduler(engine, policy);

  constexpr int kLoaders = 6;
  constexpr int kInteractive = 4;
  constexpr int kBatchScanners = 2;
  constexpr int64_t kTxnsPerLoader = 40;   // 8 rows each
  constexpr int64_t kOpsPerInteractive = 2'000;
  constexpr int64_t kOpsPerBatch = 1'000;  // 4*2000 + 2*1000 = 10k query ops

  std::atomic<int64_t> committed_high[kLoaders];
  for (auto& high : committed_high) high.store(-1);

  std::vector<std::thread> threads;
  for (int w = 0; w < kLoaders; ++w) {
    threads.emplace_back([&, w] {
      const int64_t base = static_cast<int64_t>(w) * 1'000'000;
      for (int64_t t2 = 0; t2 < kTxnsPerLoader; ++t2) {
        const uint64_t txn = engine.begin_transaction();
        std::vector<db::Row> rows;
        for (int64_t j = 0; j < 8; ++j) {
          const int64_t id = base + t2 * 8 + j;
          rows.push_back({db::Value::i64(id), db::Value::i64(id % 4096)});
        }
        EXPECT_EQ(engine.insert_batch(txn, tid, rows).rows_applied, 8);
        EXPECT_TRUE(engine.commit(txn).is_ok());
        committed_high[w].store(base + t2 * 8 + 7,
                                std::memory_order_release);
      }
    });
  }
  for (int c = 0; c < kInteractive; ++c) {
    threads.emplace_back([&, c] {
      uint64_t probe = static_cast<uint64_t>(c) * 7919 + 1;
      for (int64_t i = 0; i < kOpsPerInteractive; ++i) {
        probe = probe * 6364136223846793005ull + 1442695040888963407ull;
        const int loader = static_cast<int>(probe % kLoaders);
        // Read the high-water mark BEFORE admitting: the commit that set it
        // finished publishing before this load, so the snapshot pinned at
        // admission must contain the key.
        const int64_t high =
            committed_high[loader].load(std::memory_order_acquire);
        db::OpCosts costs;
        const db::Admission grant =
            scheduler.admit(db::QueryLane::kInteractive, &costs);
        ASSERT_TRUE(grant.valid());
        if (high >= 0 && i % 2 == 0) {
          // A committed key is always visible in a fresh snapshot.
          const int64_t id = static_cast<int64_t>(loader) * 1'000'000 +
                             static_cast<int64_t>(probe >> 32) %
                                 (high % 1'000'000 + 1);
          const auto row = engine.view_at(grant.snapshot())
                               .pk_lookup(tid, {db::Value::i64(id)});
          EXPECT_TRUE(row.is_ok()) << id;
        } else {
          const int64_t h = static_cast<int64_t>(probe % 4096);
          const auto hits = engine.view_at(grant.snapshot())
                                .index_range(tid, "ix_htmid",
                                             {db::Value::i64(h)},
                                             {db::Value::i64(h + 16)});
          EXPECT_TRUE(hits.is_ok());
        }
      }
    });
  }
  for (int b = 0; b < kBatchScanners; ++b) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kOpsPerBatch; ++i) {
        db::OpCosts costs;
        const db::Admission grant =
            scheduler.admit(db::QueryLane::kBatch, &costs);
        ASSERT_TRUE(grant.valid());
        const int64_t pinned =
            engine.view_at(grant.snapshot()).row_count(tid);
        const std::vector<db::Row> rows =
            engine.view_at(grant.snapshot())
                .scan_collect(tid, [](const db::Row&) { return true; });
        // The pinned view is frozen: the scan sees exactly its row count.
        EXPECT_EQ(static_cast<int64_t>(rows.size()), pinned);
      }
    });
  }

  for (std::thread& thread : threads) thread.join();

  const db::QueryStats stats = scheduler.stats();
  EXPECT_EQ(stats.interactive.completed,
            static_cast<int64_t>(kInteractive) * kOpsPerInteractive);
  EXPECT_EQ(stats.batch.completed,
            static_cast<int64_t>(kBatchScanners) * kOpsPerBatch);
  EXPECT_EQ(engine.stats().snapshots.active_pins, 0);
  EXPECT_EQ(stats.interactive.queue_depth, 0);
  EXPECT_EQ(stats.batch.queue_depth, 0);
  // Everything committed is in the final snapshot.
  const db::Snapshot snap = engine.pin_snapshot();
  EXPECT_EQ(engine.view_at(snap).row_count(tid),
            static_cast<int64_t>(kLoaders) * kTxnsPerLoader * 8);
  EXPECT_EQ(engine.live_view().row_count(tid), engine.view_at(snap).row_count(tid));
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// Commit-heavy run: group commit must keep the WAL consistent (flushed
// bytes never exceed appended bytes; piggybacked flushes are possible).
TEST(EngineConcurrencyTest, GroupCommitAccounting) {
  db::Schema schema;
  db::TableDef t;
  t.name = "only";
  t.col("id", db::ColumnType::kInt64, false);
  t.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(t).is_ok());
  db::Engine engine(schema);
  const uint32_t tid = engine.table_id("only").value();

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) {
        const uint64_t txn = engine.begin_transaction();
        const std::vector<db::Row> rows = {{db::Value::i64(w * 1000 + i)}};
        const db::BatchResult result = engine.insert_batch(txn, tid, rows);
        EXPECT_EQ(result.rows_applied, 1);
        EXPECT_TRUE(engine.commit(txn).is_ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const storage::WalStats wal = engine.stats().wal;
  EXPECT_EQ(wal.bytes_flushed, wal.bytes_appended);
  EXPECT_EQ(engine.live_view().row_count(tid), kThreads * 50);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

}  // namespace
}  // namespace sky::core
