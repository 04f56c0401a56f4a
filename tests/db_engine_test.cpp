// Engine tests: constraint enforcement, JDBC batch semantics, transactions
// and rollback, index maintenance, queries, telemetry, thread safety, and a
// randomized differential test of the whole insert path.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "common/strings.h"
#include "db/control_plane.h"
#include "db/engine.h"

namespace sky::db {
namespace {

// Two-table parent/child fixture (the paper's frames/objects Example 1).
Schema frames_objects_schema() {
  Schema schema;
  TableDef frames;
  frames.name = "frames";
  frames.col("frame_id", ColumnType::kInt64, false);
  frames.col("exposure", ColumnType::kDouble);
  frames.primary_key = {"frame_id"};
  frames.checks.push_back(CheckConstraint{"exposure", 0.0, 3600.0});
  EXPECT_TRUE(schema.add_table(frames).is_ok());

  TableDef objects;
  objects.name = "objects";
  objects.col("object_id", ColumnType::kInt64, false);
  objects.col("frame_id", ColumnType::kInt64, false);
  objects.col("ra", ColumnType::kDouble);
  objects.col("dec", ColumnType::kDouble);
  objects.col("mag", ColumnType::kDouble);
  objects.primary_key = {"object_id"};
  objects.foreign_keys.push_back(ForeignKey{{"frame_id"}, "frames"});
  objects.indexes.push_back(IndexDef{"idx_mag", {"mag"}, {}});
  objects.checks.push_back(CheckConstraint{"ra", 0.0, 360.0});
  objects.checks.push_back(CheckConstraint{"dec", -90.0, 90.0});
  EXPECT_TRUE(schema.add_table(objects).is_ok());
  return schema;
}

Row frame_row(int64_t id, double exposure = 60.0) {
  return {Value::i64(id), Value::f64(exposure)};
}

Row object_row(int64_t id, int64_t frame, double ra = 10.0, double dec = 5.0,
               double mag = 18.0) {
  return {Value::i64(id), Value::i64(frame), Value::f64(ra), Value::f64(dec),
          Value::f64(mag)};
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(frames_objects_schema()) {
    frames_ = engine_.table_id("frames").value();
    objects_ = engine_.table_id("objects").value();
  }

  Status insert(uint64_t txn, uint32_t table, const Row& row) {
    OpCosts costs;
    return engine_.insert_row(txn, table, row, costs);
  }

  Engine engine_;
  uint32_t frames_ = 0;
  uint32_t objects_ = 0;
};

TEST_F(EngineTest, BasicInsertAndCount) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  ASSERT_TRUE(insert(txn, objects_, object_row(100, 1)).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(frames_), 1);
  EXPECT_EQ(engine_.live_view().row_count(objects_), 1);
  EXPECT_EQ(engine_.total_rows(), 2);
  ASSERT_TRUE(engine_.commit(txn).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(EngineTest, PrimaryKeyViolation) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  const Status dup = insert(txn, frames_, frame_row(1, 99.0));
  EXPECT_EQ(dup.code(), ErrorCode::kConstraintPrimaryKey);
  EXPECT_EQ(engine_.live_view().row_count(frames_), 1);
  // Original row unchanged.
  const auto row = engine_.live_view().pk_lookup(frames_, {Value::i64(1)});
  ASSERT_TRUE(row.is_ok());
  EXPECT_DOUBLE_EQ((*row)[1].as_f64(), 60.0);
}

TEST_F(EngineTest, ForeignKeyViolation) {
  const uint64_t txn = engine_.begin_transaction();
  const Status orphan = insert(txn, objects_, object_row(100, 42));
  EXPECT_EQ(orphan.code(), ErrorCode::kConstraintForeignKey);
  EXPECT_EQ(engine_.live_view().row_count(objects_), 0);
  // After the parent exists, the same row loads.
  ASSERT_TRUE(insert(txn, frames_, frame_row(42)).is_ok());
  EXPECT_TRUE(insert(txn, objects_, object_row(100, 42)).is_ok());
}

TEST_F(EngineTest, CheckConstraintViolations) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  EXPECT_EQ(insert(txn, objects_, object_row(1, 1, 400.0)).code(),
            ErrorCode::kConstraintCheck);  // ra out of range
  EXPECT_EQ(insert(txn, objects_, object_row(2, 1, 10.0, -95.0)).code(),
            ErrorCode::kConstraintCheck);  // dec out of range
  EXPECT_EQ(insert(txn, frames_, frame_row(2, -1.0)).code(),
            ErrorCode::kConstraintCheck);  // exposure negative
  Row nan_row = object_row(3, 1);
  nan_row[4] = Value::f64(std::nan(""));
  EXPECT_EQ(insert(txn, objects_, nan_row).code(),
            ErrorCode::kConstraintCheck);
}

TEST_F(EngineTest, NotNullAndTypeMismatch) {
  const uint64_t txn = engine_.begin_transaction();
  Row null_pk = frame_row(1);
  null_pk[0] = Value::null();
  EXPECT_EQ(insert(txn, frames_, null_pk).code(),
            ErrorCode::kConstraintNotNull);
  Row wrong_type = frame_row(1);
  wrong_type[1] = Value::str("sixty");
  EXPECT_EQ(insert(txn, frames_, wrong_type).code(),
            ErrorCode::kTypeMismatch);
  Row wrong_arity = {Value::i64(1)};
  EXPECT_EQ(insert(txn, frames_, wrong_arity).code(),
            ErrorCode::kInvalidArgument);

  // In a batch, the rows before a row that does not fit the table's layout
  // are applied, and that row fails with the same status.
  const std::vector<Row> rows = {frame_row(10), frame_row(11), wrong_arity,
                                 frame_row(12)};
  const BatchResult arity = engine_.insert_batch(txn, frames_, rows);
  EXPECT_EQ(arity.rows_applied, 2);
  ASSERT_TRUE(arity.error.has_value());
  EXPECT_EQ(arity.error->row_index, 2u);
  EXPECT_EQ(arity.error->status.code(), ErrorCode::kInvalidArgument);
  // A column batch laid out unlike the table (an integer exposure column)
  // takes the same route: its NULL cells fit, its first integer does not.
  ColumnBatch ints({ColumnType::kInt64, ColumnType::kInt64});
  for (int64_t id = 20; id < 24; ++id) {
    ints.push_i64(0, id);
    if (id < 22) {
      ints.push_null(1);
    } else {
      ints.push_i64(1, 60);
    }
  }
  const BatchResult typed = engine_.insert_column_batch(txn, frames_, ints);
  EXPECT_EQ(typed.rows_applied, 2);
  ASSERT_TRUE(typed.error.has_value());
  EXPECT_EQ(typed.error->row_index, 2u);
  EXPECT_EQ(typed.error->status.code(), ErrorCode::kTypeMismatch);
  EXPECT_EQ(engine_.live_view().row_count(frames_), 4);
}

TEST_F(EngineTest, NullForeignKeyPasses) {
  // SQL MATCH SIMPLE: a NULL FK column passes the constraint. Note the
  // schema must allow NULL in the FK column for this path.
  Schema schema;
  TableDef parent;
  parent.name = "p";
  parent.col("id", ColumnType::kInt64, false);
  parent.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(parent).is_ok());
  TableDef child;
  child.name = "c";
  child.col("id", ColumnType::kInt64, false);
  child.col("p_id", ColumnType::kInt64, true);
  child.primary_key = {"id"};
  child.foreign_keys.push_back(ForeignKey{{"p_id"}, "p"});
  ASSERT_TRUE(schema.add_table(child).is_ok());
  Engine engine(std::move(schema));
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  EXPECT_TRUE(engine
                  .insert_row(txn, engine.table_id("c").value(),
                              {Value::i64(1), Value::null()}, costs)
                  .is_ok());
}

// ------------------------------------------------------- batch semantics ---

TEST_F(EngineTest, BatchAppliesAllWhenClean) {
  const uint64_t txn = engine_.begin_transaction();
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) rows.push_back(frame_row(i));
  const BatchResult result = engine_.insert_batch(txn, frames_, rows);
  EXPECT_EQ(result.rows_applied, 40);
  EXPECT_FALSE(result.error.has_value());
  EXPECT_EQ(engine_.live_view().row_count(frames_), 40);
}

TEST_F(EngineTest, BatchStopsAtFirstErrorEarlierRowsStay) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(5)).is_ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(frame_row(i));
  // Row index 5 duplicates the pre-inserted key.
  const BatchResult result = engine_.insert_batch(txn, frames_, rows);
  EXPECT_EQ(result.rows_applied, 5);  // rows 0..4 applied
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 5u);
  EXPECT_EQ(result.error->status.code(), ErrorCode::kConstraintPrimaryKey);
  // Rows 6..9 were NOT applied (JDBC: remainder of batch discarded).
  EXPECT_EQ(engine_.live_view().row_count(frames_), 6);  // 0..4 plus the original 5
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(7)}).is_ok());
}

TEST_F(EngineTest, EmptyBatchIsNoOp) {
  const uint64_t txn = engine_.begin_transaction();
  const BatchResult result = engine_.insert_batch(txn, frames_, {});
  EXPECT_EQ(result.rows_applied, 0);
  EXPECT_FALSE(result.error.has_value());
}

TEST_F(EngineTest, BatchCostsAccumulate) {
  const uint64_t txn = engine_.begin_transaction();
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(frame_row(i));
  const BatchResult result = engine_.insert_batch(txn, frames_, rows);
  EXPECT_EQ(result.costs.rows_applied, 100);
  EXPECT_EQ(result.costs.index_updates, 100);  // PK tree only
  // One sorted-run merge: each node it walks counts once.
  EXPECT_GT(result.costs.index_node_visits, 0);
  EXPECT_GT(result.costs.heap_bytes, 0);
  EXPECT_GT(result.costs.wal_bytes, 0);
  EXPECT_GT(result.costs.check_evals, 0);
}

// ----------------------------------------------------------- transactions ---

TEST_F(EngineTest, CommitFlushesWal) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  const auto commit = engine_.commit(txn);
  ASSERT_TRUE(commit.is_ok());
  EXPECT_GT(commit->costs.io.log_bytes_flushed, 0);
  EXPECT_EQ(engine_.stats().wal.flushes, 1);
  // Unknown transaction errors.
  EXPECT_FALSE(engine_.commit(999).is_ok());
  EXPECT_FALSE(engine_.rollback(999).is_ok());
}

TEST_F(EngineTest, RollbackUndoesInserts) {
  const uint64_t keep = engine_.begin_transaction();
  ASSERT_TRUE(insert(keep, frames_, frame_row(1)).is_ok());
  ASSERT_TRUE(engine_.commit(keep).is_ok());

  const uint64_t doomed = engine_.begin_transaction();
  ASSERT_TRUE(insert(doomed, frames_, frame_row(2)).is_ok());
  ASSERT_TRUE(insert(doomed, objects_, object_row(10, 2)).is_ok());
  EXPECT_EQ(engine_.total_rows(), 3);
  ASSERT_TRUE(engine_.rollback(doomed).is_ok());
  EXPECT_EQ(engine_.total_rows(), 1);
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(2)}).is_ok());
  EXPECT_TRUE(engine_.live_view().pk_lookup(frames_, {Value::i64(1)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
  // Rolled-back keys can be re-inserted.
  const uint64_t retry = engine_.begin_transaction();
  EXPECT_TRUE(insert(retry, frames_, frame_row(2)).is_ok());
}

TEST_F(EngineTest, InsertIntoUnknownTransactionFails) {
  OpCosts costs;
  EXPECT_EQ(engine_.insert_row(12345, frames_, frame_row(1), costs).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(EngineTest, TransactionGateLimitsConcurrency) {
  Schema schema = frames_objects_schema();
  EngineOptions options;
  options.policies.concurrency.max_concurrent_transactions = 2;
  Engine engine(std::move(schema), options);
  const uint64_t t1 = engine.begin_transaction();
  const uint64_t t2 = engine.begin_transaction();
  std::atomic<bool> third_started{false};
  std::thread blocked([&] {
    const uint64_t t3 = engine.begin_transaction();  // blocks until a slot
    third_started = true;
    ASSERT_TRUE(engine.commit(t3).is_ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_started.load());
  ASSERT_TRUE(engine.commit(t1).is_ok());
  blocked.join();
  EXPECT_TRUE(third_started.load());
  EXPECT_GE(engine.stats().concurrency.transaction_gate.waits, 1u);
  ASSERT_TRUE(engine.commit(t2).is_ok());
}

TEST_F(EngineTest, LeastLoadedExtentAssignmentBalancesSkew) {
  Schema schema = frames_objects_schema();
  EngineOptions options;
  options.heap_extents = 4;
  options.extent_assignment = ExtentAssignment::kLeastLoaded;
  Engine engine(std::move(schema), options);
  const uint32_t frames = engine.table_id("frames").value();
  OpCosts costs;
  // Sequential single-row transactions: least-loaded assignment must cycle
  // through the extents (each insert makes its extent the heaviest), ending
  // with all four populated and byte-balanced to within one row.
  for (int i = 0; i < 16; ++i) {
    const uint64_t txn = engine.begin_transaction();
    ASSERT_TRUE(engine.insert_row(txn, frames, frame_row(i), costs).is_ok());
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }
  const EngineStats engine_stats = engine.stats();
  ASSERT_LT(frames, engine_stats.extents.size());
  const auto& stats = engine_stats.extents[frames].extents;
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& extent : stats) {
    EXPECT_EQ(extent.rows, 4) << "least-loaded should balance equal rows";
  }
  EXPECT_TRUE(engine.verify_integrity().is_ok());

  // Now skew extent 0 hard with forced placements; subsequent least-loaded
  // transactions must steer around it.
  {
    const uint64_t txn = engine.begin_transaction();
    for (int i = 100; i < 140; ++i) {
      const std::vector<Row> row = {frame_row(i)};
      ASSERT_FALSE(engine.insert_batch(txn, frames, row, /*extent=*/0)
                       .error.has_value());
    }
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }
  for (int i = 200; i < 206; ++i) {
    const uint64_t txn = engine.begin_transaction();
    ASSERT_TRUE(engine.insert_row(txn, frames, frame_row(i), costs).is_ok());
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }
  const EngineStats after = engine.stats();
  ASSERT_LT(frames, after.extents.size());
  // Extent 0 held 44 rows before the six balanced inserts; none land there.
  EXPECT_EQ(after.extents[frames].extents[0].rows, 44);
}

TEST_F(EngineTest, SecondaryIndexRangeQuery) {
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        insert(txn, objects_, object_row(i, 1, 10, 5, 15.0 + i * 0.1))
            .is_ok());
  }
  const auto bright = engine_.live_view().index_range(objects_, "idx_mag",
                                          {Value::f64(15.0)},
                                          {Value::f64(16.0)});
  ASSERT_TRUE(bright.is_ok());
  EXPECT_EQ(bright->size(), 10u);  // mags 15.0 .. 15.9
  for (const Row& row : *bright) {
    EXPECT_LT(row[4].as_f64(), 16.0);
  }
}

TEST_F(EngineTest, DisableAndRebuildIndex) {
  ASSERT_TRUE(engine_.set_index_enabled(objects_, "idx_mag", false).is_ok());
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(insert(txn, objects_, object_row(i, 1)).is_ok());
  }
  // Disabled index rejects queries.
  EXPECT_EQ(engine_.live_view()
                .index_range(objects_, "idx_mag", {Value::f64(0)},
                             {Value::f64(100)})
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  // Rebuild restores it with all rows.
  ASSERT_TRUE(engine_.rebuild_index(objects_, "idx_mag").is_ok());
  const auto all = engine_.live_view().index_range(objects_, "idx_mag", {Value::f64(0)},
                                       {Value::f64(100)});
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all->size(), 20u);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
  // Unknown index errors.
  EXPECT_FALSE(engine_.set_index_enabled(objects_, "ghost", true).is_ok());
  EXPECT_FALSE(engine_.rebuild_index(objects_, "ghost").is_ok());
}

TEST_F(EngineTest, IndexMaintenanceCostVisible) {
  // With the secondary index enabled, inserts touch more index structures.
  auto run = [this](bool enabled) {
    Engine engine(frames_objects_schema());
    const uint32_t frames = engine.table_id("frames").value();
    const uint32_t objects = engine.table_id("objects").value();
    if (!enabled) {
      EXPECT_TRUE(
          engine.set_index_enabled(objects, "idx_mag", false).is_ok());
    }
    const uint64_t txn = engine.begin_transaction();
    OpCosts setup;
    EXPECT_TRUE(engine.insert_row(txn, frames, frame_row(1), setup).is_ok());
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) rows.push_back(object_row(i, 1));
    return engine.insert_batch(txn, objects, rows).costs.index_updates;
  };
  EXPECT_GT(run(true), run(false));
}

TEST_F(EngineTest, BulkLoadSortedPreload) {
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(frame_row(i));
  ASSERT_TRUE(engine_.bulk_load_sorted(frames_, rows).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(frames_), 1000);
  EXPECT_TRUE(engine_.live_view().pk_lookup(frames_, {Value::i64(500)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
  // Preload requires empty table.
  EXPECT_EQ(engine_.bulk_load_sorted(frames_, rows).code(),
            ErrorCode::kFailedPrecondition);
  // Loading continues on top of preloaded data.
  const uint64_t txn = engine_.begin_transaction();
  EXPECT_TRUE(insert(txn, frames_, frame_row(5000)).is_ok());
  EXPECT_EQ(insert(txn, frames_, frame_row(500)).code(),
            ErrorCode::kConstraintPrimaryKey);
}

TEST_F(EngineTest, BulkLoadSortedRejectsUnsorted) {
  // A rejected preload lands no row: the table stays empty and consistent,
  // and the corrected preload then succeeds.
  const auto expect_empty = [&] {
    EXPECT_EQ(engine_.live_view().row_count(frames_), 0);
    EXPECT_EQ(engine_.total_rows(), 0);
    EXPECT_TRUE(engine_.verify_integrity().is_ok());
  };
  EXPECT_EQ(
      engine_.bulk_load_sorted(frames_, {frame_row(2), frame_row(1)}).code(),
      ErrorCode::kInvalidArgument);
  expect_empty();
  // A row failing validation after a valid one returns validate_row's
  // status.
  const Row null_pk = {Value::null(), Value::f64(60.0)};
  const Status not_null =
      engine_.bulk_load_sorted(frames_, {frame_row(1), null_pk});
  EXPECT_EQ(not_null.code(), ErrorCode::kConstraintNotNull);
  EXPECT_EQ(not_null.message(), "frames.frame_id is NOT NULL");
  expect_empty();
  ASSERT_TRUE(
      engine_.bulk_load_sorted(frames_, {frame_row(1), frame_row(2)}).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(frames_), 2);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

// ----------------------------------------------------------------- queries ---

TEST_F(EngineTest, PkRangeAndScan) {
  const uint64_t txn = engine_.begin_transaction();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(insert(txn, frames_, frame_row(i, i * 10.0)).is_ok());
  }
  const auto range =
      engine_.live_view().pk_range(frames_, {Value::i64(10)}, {Value::i64(20)});
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range->size(), 10u);
  const auto filtered = engine_.live_view().scan_collect(frames_, [](const Row& row) {
    return row[1].as_f64() >= 250.0;
  });
  EXPECT_EQ(filtered.size(), 5u);  // 250, 260, 270, 280, 290
}

TEST_F(EngineTest, PkLookupErrors) {
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(1)}).is_ok());
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(1), Value::i64(2)})
                   .is_ok());  // arity
  EXPECT_FALSE(engine_.live_view().pk_lookup(999, {Value::i64(1)}).is_ok());
}

// --------------------------------------------------------------- telemetry ---

TEST_F(EngineTest, WalRecordsRetainedWhenRequested) {
  EngineOptions options;
  options.retain_wal_records = true;
  Engine engine(frames_objects_schema(), options);
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(engine
                  .insert_row(txn, engine.table_id("frames").value(),
                              frame_row(1), costs)
                  .is_ok());
  ASSERT_TRUE(engine.commit(txn).is_ok());
  ASSERT_EQ(engine.wal_records().size(), 2u);
  // A one-row call logs a one-row run.
  EXPECT_EQ(engine.wal_records()[0].type,
            storage::WalRecordType::kInsertBatch);
  EXPECT_EQ(engine.wal_records()[1].type, storage::WalRecordType::kCommit);
  // The insert payload replays to the original row.
  std::vector<Row> replayed;
  ASSERT_TRUE(storage::for_each_insert_batch_row(
                  engine.wal_records()[0].payload,
                  [&](std::string_view bytes) -> Status {
                    SKY_ASSIGN_OR_RETURN(Row row, decode_row(bytes));
                    replayed.push_back(std::move(row));
                    return ok_status();
                  })
                  .is_ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0][0].as_i64(), 1);
}

TEST_F(EngineTest, InsertObserverSeesOrder) {
  std::vector<uint32_t> order;
  engine_.set_insert_observer(
      [&](uint32_t table, uint64_t) { order.push_back(table); });
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  ASSERT_TRUE(insert(txn, objects_, object_row(1, 1)).is_ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], frames_);
  EXPECT_EQ(order[1], objects_);
}

// ------------------------------------------------------------ thread safety ---

TEST_F(EngineTest, ConcurrentLoadersKeepIntegrity) {
  // Seed a parent frame per worker, then hammer objects from 4 threads.
  const uint64_t setup = engine_.begin_transaction();
  for (int w = 0; w < 4; ++w) {
    ASSERT_TRUE(insert(setup, frames_, frame_row(w)).is_ok());
  }
  ASSERT_TRUE(engine_.commit(setup).is_ok());

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      const uint64_t txn = engine_.begin_transaction();
      std::vector<Row> rows;
      for (int i = 0; i < 500; ++i) {
        rows.push_back(object_row(w * 10000 + i, w));
      }
      for (size_t start = 0; start < rows.size(); start += 40) {
        const size_t n = std::min<size_t>(40, rows.size() - start);
        const auto result = engine_.insert_batch(
            txn, objects_, std::span<const Row>(&rows[start], n));
        if (result.error.has_value()) ++failures;
      }
      if (!engine_.commit(txn).is_ok()) ++failures;
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine_.live_view().row_count(objects_), 2000);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

// ----------------------------------------------------- columnar batch path ---

ColumnBatch column_frames(const Schema& schema,
                          std::initializer_list<int64_t> ids) {
  ColumnBatch batch(schema.table(schema.table_id("frames").value()));
  for (int64_t id : ids) {
    batch.push_i64(0, id);
    batch.push_f64(1, 60.0);
  }
  return batch;
}

TEST_F(EngineTest, ColumnBatchMatchesRowBatchFinalState) {
  // The same rows through insert_batch (row input, copied into a column
  // batch) and insert_column_batch — physically identical heap state,
  // identical row counts, identical index contents. Then the same again for
  // dirty input and for in-call duplicate keys: identical per-call outcomes
  // too.
  // Physically identical heaps: same extent/page/slot layout, same bytes.
  const auto expect_same_heaps = [](const Engine& a_engine,
                                    const Engine& b_engine,
                                    std::initializer_list<uint32_t> tids) {
    for (uint32_t tid : tids) {
      std::vector<std::tuple<uint32_t, uint32_t, uint32_t, std::string>> a, b;
      ASSERT_TRUE(a_engine.live_view()
                      .scan_heap(tid,
                                 [&](storage::SlotId slot,
                                     std::string_view bytes) {
                                   a.emplace_back(slot.extent, slot.page,
                                                  slot.slot,
                                                  std::string(bytes));
                                 })
                      .is_ok());
      ASSERT_TRUE(b_engine.live_view()
                      .scan_heap(tid,
                                 [&](storage::SlotId slot,
                                     std::string_view bytes) {
                                   b.emplace_back(slot.extent, slot.page,
                                                  slot.slot,
                                                  std::string(bytes));
                                 })
                      .is_ok());
      EXPECT_EQ(a, b) << "table " << tid;
    }
  };
  // Identical secondary indexes: a full-range read of every index returns
  // the same rows in the same order (keys and row-id suffixes agree).
  const auto expect_same_indexes = [](const Engine& a_engine,
                                      const Engine& b_engine, uint32_t tid) {
    for (const IndexDef& index : a_engine.schema().table(tid).indexes) {
      const auto a = a_engine.live_view().index_range(tid, index.name, {}, {});
      const auto b = b_engine.live_view().index_range(tid, index.name, {}, {});
      ASSERT_TRUE(a.is_ok()) << index.name;
      ASSERT_TRUE(b.is_ok()) << index.name;
      EXPECT_EQ(static_cast<int64_t>(a->size()),
                a_engine.live_view().row_count(tid))
          << index.name;
      EXPECT_TRUE(*a == *b) << index.name;
    }
  };
  // The fixture schema plus an HTM index on objects, so the trixel-key path
  // is compared too (its position columns must be NOT NULL).
  Schema schema;
  {
    const Schema fixture = frames_objects_schema();
    ASSERT_TRUE(schema.add_table(fixture.table(0)).is_ok());
    TableDef objects_def = fixture.table(1);
    objects_def.columns[2].nullable = false;  // ra
    objects_def.columns[3].nullable = false;  // dec
    objects_def.indexes.push_back(
        IndexDef{"ix_htm", {}, HtmIndexSpec{"ra", "dec", 12}});
    ASSERT_TRUE(schema.add_table(objects_def).is_ok());
  }
  Engine row_engine(schema);
  Engine col_engine(schema);
  const uint32_t frames = row_engine.table_id("frames").value();
  const uint32_t objects = row_engine.table_id("objects").value();

  std::vector<Row> frame_rows, object_rows;
  ColumnBatch frame_cols(schema.table(frames));
  ColumnBatch object_cols(schema.table(objects));
  for (int i = 0; i < 200; ++i) {
    frame_rows.push_back(frame_row(i, i * 1.5));
    frame_cols.push_i64(0, i);
    frame_cols.push_f64(1, i * 1.5);
  }
  for (int i = 0; i < 500; ++i) {
    const double mag = 19.0 - (i % 7) * 0.25;  // repeats: equal keys too
    object_rows.push_back(object_row(i, i % 200, 10.0 + i * 0.01, -5.0, mag));
    object_cols.push_i64(0, i);
    object_cols.push_i64(1, i % 200);
    object_cols.push_f64(2, 10.0 + i * 0.01);
    object_cols.push_f64(3, -5.0);
    object_cols.push_f64(4, mag);
  }

  const uint64_t row_txn = row_engine.begin_transaction();
  ASSERT_EQ(row_engine.insert_batch(row_txn, frames, frame_rows).rows_applied,
            200);
  ASSERT_EQ(row_engine.insert_batch(row_txn, objects, object_rows).rows_applied,
            500);
  ASSERT_TRUE(row_engine.commit(row_txn).is_ok());

  const uint64_t col_txn = col_engine.begin_transaction();
  const BatchResult fr = col_engine.insert_column_batch(col_txn, frames,
                                                        frame_cols);
  ASSERT_FALSE(fr.error.has_value()) << fr.error->status.to_string();
  EXPECT_EQ(fr.rows_applied, 200);
  const BatchResult ob = col_engine.insert_column_batch(col_txn, objects,
                                                        object_cols);
  ASSERT_FALSE(ob.error.has_value()) << ob.error->status.to_string();
  EXPECT_EQ(ob.rows_applied, 500);
  ASSERT_TRUE(col_engine.commit(col_txn).is_ok());

  EXPECT_TRUE(row_engine.verify_integrity().is_ok());
  EXPECT_TRUE(col_engine.verify_integrity().is_ok());

  expect_same_heaps(row_engine, col_engine, {frames, objects});
  expect_same_indexes(row_engine, col_engine, objects);

  // Dirty input, resumed after each error the way BulkLoader::batch_columns
  // does (skip the failing row, resend from the next). This objects variant
  // has a nullable FK (a NULL parent reference passes) and a NOT NULL mag.
  Schema dirty_schema;
  ASSERT_TRUE(dirty_schema.add_table(schema.table(frames)).is_ok());
  TableDef dirty_def = schema.table(objects);
  dirty_def.columns[1].nullable = true;   // frame_id
  dirty_def.columns[4].nullable = false;  // mag
  ASSERT_TRUE(dirty_schema.add_table(dirty_def).is_ok());
  const Value null = Value::null();
  const Value nan = Value::f64(std::numeric_limits<double>::quiet_NaN());
  const auto obj = [](int64_t id, Value frame, Value ra, Value dec,
                      Value mag) {
    return Row{Value::i64(id), std::move(frame), std::move(ra),
               std::move(dec), std::move(mag)};
  };
  const Value f1 = Value::i64(1), orphan = Value::i64(999);
  const Value ra = Value::f64(10.0), dec = Value::f64(5.0);
  const Value mag = Value::f64(18.0);
  const std::vector<Row> dirty = {
      obj(0, f1, ra, dec, mag),
      obj(1, Value::i64(2), ra, dec, mag),
      obj(2, Value::i64(3), ra, dec, mag),
      obj(3, Value::i64(4), ra, dec, mag),
      obj(2, f1, ra, dec, mag),                     // in-table duplicate PK
      obj(3, orphan, ra, dec, mag),                 // duplicate PK reported first
      obj(4, f1, ra, dec, mag),
      obj(5, orphan, ra, dec, mag),                 // missing FK parent
      obj(6, null, ra, dec, mag),                   // NULL FK passes
      obj(7, f1, ra, dec, null),                    // NULL in NOT NULL mag
      obj(8, f1, nan, dec, mag),                    // NaN
      obj(9, f1, ra, Value::f64(95.0), mag),        // dec CHECK out of range
      obj(10, orphan, Value::f64(400.0), dec, mag), // CHECK before FK
      obj(11, f1, ra, dec, mag),
      obj(12, f1, ra, dec, mag),
      obj(13, f1, ra, dec, mag),
      obj(13, Value::i64(2), ra, dec, mag),         // in-batch duplicate PK
      obj(14, f1, ra, dec, mag),
  };
  ColumnBatch dirty_cols(dirty_def);
  for (const Row& row : dirty) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_null()) {
        dirty_cols.push_null(c);
      } else if (row[c].is_i64()) {
        dirty_cols.push_i64(c, row[c].as_i64());
      } else {
        dirty_cols.push_f64(c, row[c].as_f64());
      }
    }
  }
  Engine dirty_row_engine(dirty_schema);
  Engine dirty_col_engine(dirty_schema);
  const uint64_t dirty_row_txn = dirty_row_engine.begin_transaction();
  const uint64_t dirty_col_txn = dirty_col_engine.begin_transaction();
  ASSERT_EQ(dirty_row_engine
                .insert_batch(dirty_row_txn, frames,
                              std::span<const Row>(frame_rows.data(), 10))
                .rows_applied,
            10);
  ASSERT_EQ(dirty_col_engine
                .insert_column_batch(dirty_col_txn, frames, frame_cols, 0, 10)
                .rows_applied,
            10);
  constexpr size_t kDirtyBatch = 4;
  std::set<ErrorCode> codes;
  int64_t dirty_applied = 0;
  size_t first = 0;
  while (first < dirty.size()) {
    const size_t n = std::min(kDirtyBatch, dirty.size() - first);
    const BatchResult r = dirty_row_engine.insert_batch(
        dirty_row_txn, objects, std::span<const Row>(&dirty[first], n));
    const BatchResult c = dirty_col_engine.insert_column_batch(
        dirty_col_txn, objects, dirty_cols, first, n);
    ASSERT_EQ(r.rows_applied, c.rows_applied) << "slice at " << first;
    ASSERT_EQ(r.error.has_value(), c.error.has_value()) << "slice at " << first;
    dirty_applied += c.rows_applied;
    if (!c.error.has_value()) {
      first += n;
      continue;
    }
    EXPECT_EQ(r.error->row_index, c.error->row_index) << "slice at " << first;
    EXPECT_EQ(r.error->status.code(), c.error->status.code())
        << "slice at " << first;
    EXPECT_EQ(r.error->status.message(), c.error->status.message())
        << "slice at " << first;
    codes.insert(c.error->status.code());
    first += c.error->row_index + 1;
  }
  EXPECT_EQ(dirty_applied, 10);
  EXPECT_EQ(codes, (std::set<ErrorCode>{ErrorCode::kConstraintPrimaryKey,
                                        ErrorCode::kConstraintForeignKey,
                                        ErrorCode::kConstraintNotNull,
                                        ErrorCode::kConstraintCheck}));
  ASSERT_TRUE(dirty_row_engine.commit(dirty_row_txn).is_ok());
  ASSERT_TRUE(dirty_col_engine.commit(dirty_col_txn).is_ok());
  EXPECT_TRUE(dirty_row_engine.verify_integrity().is_ok());
  EXPECT_TRUE(dirty_col_engine.verify_integrity().is_ok());
  expect_same_heaps(dirty_row_engine, dirty_col_engine, {frames, objects});
  expect_same_indexes(dirty_row_engine, dirty_col_engine, objects);

  // One call whose row `at` repeats the key of row `source` (-1: a key an
  // earlier call published), at positions 0, 1, the middle and the last:
  // same applied prefix, failing index and status, then the rest resent.
  constexpr int64_t kCall = 12;
  const std::vector<std::pair<int64_t, int64_t>> duplicates = {
      {0, -1}, {1, 0}, {kCall / 2, kCall / 2 - 1}, {kCall / 2, 0},
      {kCall - 1, kCall - 2}, {kCall - 1, 2}};
  for (const auto& [at, source] : duplicates) {
    SCOPED_TRACE("duplicate at " + std::to_string(at) + " of " +
                 std::to_string(source));
    Engine row_dup(schema);
    Engine col_dup(schema);
    const uint64_t row_dup_txn = row_dup.begin_transaction();
    const uint64_t col_dup_txn = col_dup.begin_transaction();
    ASSERT_EQ(row_dup.insert_batch(row_dup_txn, frames, frame_rows)
                  .rows_applied,
              200);
    ASSERT_EQ(col_dup.insert_column_batch(col_dup_txn, frames, frame_cols)
                  .rows_applied,
              200);
    // The earlier call: object 1000.
    std::vector<Row> call_rows = {object_row(1000, 7, 11.0, -5.0, 18.5)};
    for (int64_t i = 0; i < kCall; ++i) {
      const int64_t id = i == at ? (source < 0 ? 1000 : 1001 + source)
                                 : 1001 + i;
      const auto x = static_cast<double>(i);
      call_rows.push_back(object_row(id, (i * 13) % 200, 10.0 + x * 0.5,
                                     -5.0 + x * 0.25, 17.0 + x / 3));
    }
    ColumnBatch call_cols(schema.table(objects));
    for (const Row& row : call_rows) {
      call_cols.push_i64(0, row[0].as_i64());
      call_cols.push_i64(1, row[1].as_i64());
      for (size_t c = 2; c < 5; ++c) call_cols.push_f64(c, row[c].as_f64());
    }
    // Row 0 goes alone; the call follows, resent after its error.
    size_t next = 0;
    size_t end = 1;
    while (next < call_rows.size()) {
      const BatchResult r = row_dup.insert_batch(
          row_dup_txn, objects,
          std::span<const Row>(&call_rows[next], end - next));
      const BatchResult c = col_dup.insert_column_batch(
          col_dup_txn, objects, call_cols, next, end - next);
      ASSERT_EQ(r.rows_applied, c.rows_applied) << "call at " << next;
      ASSERT_EQ(r.error.has_value(), c.error.has_value()) << "call at " << next;
      if (!c.error.has_value()) {
        next = end;
        end = call_rows.size();
        continue;
      }
      EXPECT_EQ(next + c.error->row_index, static_cast<size_t>(at + 1));
      EXPECT_EQ(r.error->row_index, c.error->row_index);
      EXPECT_EQ(c.error->status.code(), ErrorCode::kConstraintPrimaryKey);
      EXPECT_EQ(r.error->status.message(), c.error->status.message());
      next += c.error->row_index + 1;
    }
    EXPECT_EQ(col_dup.live_view().row_count(objects), kCall);
    ASSERT_TRUE(row_dup.commit(row_dup_txn).is_ok());
    ASSERT_TRUE(col_dup.commit(col_dup_txn).is_ok());
    EXPECT_TRUE(col_dup.verify_integrity().is_ok());
    expect_same_heaps(row_dup, col_dup, {frames, objects});
    expect_same_indexes(row_dup, col_dup, objects);
  }
}

// One call over shuffled keys holding one equal-key pair far apart (in a
// table with an FK and a secondary index) stops where the same rows sent
// one call each stop: same failing row and status, same heap slots, same
// index contents. Row and column input agree with both.
TEST_F(EngineTest, ShuffledCallWithEqualKeysMatchesOneCallPerRow) {
  constexpr int kRows = 60;
  constexpr int kDuplicateOf = 9;
  constexpr int kDuplicateAt = 41;
  Rng rng(2026);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < kRows; ++i) ids.push_back(100 + i);
  for (size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<size_t>(rng.uniform_int(
                          0, static_cast<int64_t>(i)))]);
  }
  ids[kDuplicateAt] = ids[kDuplicateOf];
  std::vector<Row> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(object_row(ids[static_cast<size_t>(i)], i % 5,
                              10.0 + i * 0.1, 5.0, 15.0 + (i % 4)));
  }
  const Schema schema = frames_objects_schema();
  ColumnBatch cols(schema.table(objects_));
  for (const Row& row : rows) {
    cols.push_i64(0, row[0].as_i64());
    cols.push_i64(1, row[1].as_i64());
    for (size_t c = 2; c < 5; ++c) cols.push_f64(c, row[c].as_f64());
  }

  struct Outcome {
    size_t failed_at = 0;
    Status status;
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, std::string>> heap;
    std::vector<Row> by_mag;
  };
  enum class Mode { kRowCall, kColumnCall, kCallPerRow };
  const auto run = [&](Mode mode) {
    Engine engine(schema);
    const uint64_t txn = engine.begin_transaction();
    std::vector<Row> frame_rows;
    for (int64_t f = 0; f < 5; ++f) frame_rows.push_back(frame_row(f));
    EXPECT_EQ(engine.insert_batch(txn, frames_, frame_rows).rows_applied, 5);
    Outcome outcome;
    if (mode == Mode::kCallPerRow) {
      outcome.failed_at = rows.size();
      for (size_t i = 0; i < rows.size(); ++i) {
        OpCosts costs;
        Status status = engine.insert_row(txn, objects_, rows[i], costs);
        if (!status.is_ok()) {
          outcome.failed_at = i;
          outcome.status = std::move(status);
          break;
        }
      }
    } else {
      const BatchResult result =
          mode == Mode::kRowCall
              ? engine.insert_batch(txn, objects_, rows)
              : engine.insert_column_batch(txn, objects_, cols);
      EXPECT_TRUE(result.error.has_value());
      if (result.error.has_value()) {
        EXPECT_EQ(result.rows_applied,
                  static_cast<int64_t>(result.error->row_index));
        outcome.failed_at = result.error->row_index;
        outcome.status = result.error->status;
      }
    }
    EXPECT_TRUE(engine.commit(txn).is_ok());
    EXPECT_TRUE(engine.verify_integrity().is_ok());
    EXPECT_TRUE(engine.live_view()
                    .scan_heap(objects_,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 outcome.heap.emplace_back(
                                     slot.extent, slot.page, slot.slot,
                                     std::string(bytes));
                               })
                    .is_ok());
    const auto by_mag = engine.live_view().index_range(objects_, "idx_mag",
                                                       {}, {});
    EXPECT_TRUE(by_mag.is_ok());
    if (by_mag.is_ok()) outcome.by_mag = *by_mag;
    return outcome;
  };
  const Outcome per_row = run(Mode::kCallPerRow);
  EXPECT_EQ(per_row.failed_at, static_cast<size_t>(kDuplicateAt));
  EXPECT_EQ(per_row.status.code(), ErrorCode::kConstraintPrimaryKey);
  EXPECT_EQ(per_row.heap.size(), static_cast<size_t>(kDuplicateAt));
  for (const Mode mode : {Mode::kRowCall, Mode::kColumnCall}) {
    SCOPED_TRACE(mode == Mode::kRowCall ? "row call" : "column call");
    const Outcome call = run(mode);
    EXPECT_EQ(call.failed_at, per_row.failed_at);
    EXPECT_EQ(call.status.code(), per_row.status.code());
    EXPECT_EQ(call.status.message(), per_row.status.message());
    EXPECT_EQ(call.heap, per_row.heap);
    EXPECT_TRUE(call.by_mag == per_row.by_mag);
  }
}

TEST_F(EngineTest, ColumnBatchStopsAtFirstErrorJdbcSemantics) {
  const Schema schema = frames_objects_schema();
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(5)).is_ok());
  // Keys 0..9: index 5 duplicates the pre-inserted key.
  const ColumnBatch batch =
      column_frames(schema, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const BatchResult result = engine_.insert_column_batch(txn, frames_, batch);
  EXPECT_EQ(result.rows_applied, 5);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 5u);
  EXPECT_EQ(result.error->status.code(), ErrorCode::kConstraintPrimaryKey);
  // Remainder of the batch discarded, exactly like insert_batch.
  EXPECT_EQ(engine_.live_view().row_count(frames_), 6);
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(7)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(EngineTest, ColumnBatchSubrangeReportsRelativeErrorIndex) {
  const Schema schema = frames_objects_schema();
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(8)).is_ok());
  const ColumnBatch batch =
      column_frames(schema, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  // Send rows [6, 10): the duplicate (key 8) is at relative index 2.
  const BatchResult result =
      engine_.insert_column_batch(txn, frames_, batch, /*first=*/6,
                                  /*count=*/4);
  EXPECT_EQ(result.rows_applied, 2);  // keys 6 and 7
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 2u);
  EXPECT_EQ(engine_.live_view().row_count(frames_), 3);  // 6, 7 and the original 8
}

TEST_F(EngineTest, ColumnBatchUnsortedKeysFallBackWithSameSemantics) {
  // Unsorted primary keys cut the call into several runs; every row must
  // still land.
  const Schema schema = frames_objects_schema();
  Engine col_engine(schema);
  const uint32_t frames = col_engine.table_id("frames").value();
  const ColumnBatch batch = column_frames(schema, {9, 3, 7, 1, 5});
  const uint64_t txn = col_engine.begin_transaction();
  const BatchResult result = col_engine.insert_column_batch(txn, frames, batch);
  EXPECT_EQ(result.rows_applied, 5);
  EXPECT_FALSE(result.error.has_value());
  ASSERT_TRUE(col_engine.commit(txn).is_ok());
  EXPECT_TRUE(col_engine.verify_integrity().is_ok());
  for (int64_t id : {1, 3, 5, 7, 9}) {
    EXPECT_TRUE(col_engine.live_view().pk_lookup(frames, {Value::i64(id)}).is_ok()) << id;
  }
}

TEST_F(EngineTest, ColumnBatchRollbackUndoesTheRun) {
  const Schema schema = frames_objects_schema();
  const uint64_t txn = engine_.begin_transaction();
  const ColumnBatch batch = column_frames(schema, {0, 1, 2, 3, 4});
  ASSERT_EQ(engine_.insert_column_batch(txn, frames_, batch).rows_applied, 5);
  EXPECT_EQ(engine_.live_view().row_count(frames_), 5);
  ASSERT_TRUE(engine_.rollback(txn).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(frames_), 0);
  EXPECT_FALSE(engine_.live_view().pk_lookup(frames_, {Value::i64(2)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

// A rolled-back transaction of column and row calls over two indexed
// tables leaves the heaps and every tree as they were before it, and logs
// one kRollbackInsert per applied row, newest row first.
TEST_F(EngineTest, RollbackAfterMixedCallsRestoresState) {
  Schema schema;
  {
    const Schema base = frames_objects_schema();
    TableDef frames = base.table(base.table_id("frames").value());
    frames.indexes.push_back(IndexDef{"idx_exposure", {"exposure"}, {}});
    ASSERT_TRUE(schema.add_table(frames).is_ok());
    ASSERT_TRUE(
        schema.add_table(base.table(base.table_id("objects").value())).is_ok());
  }
  EngineOptions options;
  options.retain_wal_records = true;
  Engine engine(schema, options);
  const uint32_t frames = engine.table_id("frames").value();
  const uint32_t objects = engine.table_id("objects").value();
  OpCosts costs;
  const auto frame_batch = [&](std::initializer_list<int64_t> ids) {
    ColumnBatch batch(schema.table(frames));
    for (const int64_t id : ids) {
      batch.push_i64(0, id);
      batch.push_f64(1, static_cast<double>(id % 7) * 10.0);
    }
    return batch;
  };
  const auto object_batch = [&](std::initializer_list<int64_t> ids) {
    ColumnBatch batch(schema.table(objects));
    for (const int64_t id : ids) {
      batch.push_i64(0, id);
      batch.push_i64(1, 1 + id % 3);
      batch.push_f64(2, 10.0);
      batch.push_f64(3, 5.0);
      batch.push_f64(4, static_cast<double>(id % 11) + 12.5);
    }
    return batch;
  };

  const uint64_t setup = engine.begin_transaction();
  for (int64_t id = 1; id <= 4; ++id) {
    const double exposure = 5.0 * static_cast<double>(id);
    ASSERT_TRUE(
        engine.insert_row(setup, frames, frame_row(id, exposure), costs)
            .is_ok());
  }
  ASSERT_FALSE(engine
                   .insert_column_batch(setup, objects,
                                        object_batch({100, 101, 102, 103}))
                   .error.has_value());
  ASSERT_TRUE(engine.commit(setup).is_ok());

  // Every row the live trees and heaps serve, in their orders.
  const auto state = [&] {
    std::vector<std::vector<Row>> reads;
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, std::string>> heap;
    const ReadView live = engine.live_view();
    for (const uint32_t table : {frames, objects}) {
      reads.push_back(live.pk_range(table, {}, {}).value());
      for (const IndexDef& index : schema.table(table).indexes) {
        reads.push_back(live.index_range(table, index.name, {}, {}).value());
      }
      EXPECT_TRUE(live.scan_heap(table,
                                 [&](storage::SlotId slot,
                                     std::string_view bytes) {
                                   heap.emplace_back(slot.extent, slot.page,
                                                     slot.slot,
                                                     std::string(bytes));
                                 })
                      .is_ok());
    }
    return std::make_pair(reads, heap);
  };
  const auto before = state();

  const uint64_t doomed = engine.begin_transaction();
  // 1: a column run on frames.
  ASSERT_FALSE(
      engine.insert_column_batch(doomed, frames, frame_batch({10, 11, 12}))
          .error.has_value());
  // 2: a row-path call on objects whose middle row has no parent.
  const std::vector<Row> rows = {object_row(200, 10), object_row(201, 99),
                                 object_row(202, 11)};
  const BatchResult failing = engine.insert_batch(doomed, objects, rows);
  ASSERT_TRUE(failing.error.has_value());
  EXPECT_EQ(failing.rows_applied, 1);
  // 3: a column run on objects.
  ASSERT_FALSE(engine
                   .insert_column_batch(doomed, objects,
                                        object_batch({300, 301, 302, 303}))
                   .error.has_value());
  // 4: a single-row insert on frames.
  ASSERT_TRUE(engine.insert_row(doomed, frames, frame_row(13), costs).is_ok());
  // 5: unsorted keys, which take the row path.
  ASSERT_FALSE(
      engine.insert_column_batch(doomed, objects, object_batch({402, 401}))
          .error.has_value());
  EXPECT_NE(state(), before);
  ASSERT_TRUE(engine.rollback(doomed).is_ok());

  EXPECT_EQ(state(), before);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  std::vector<uint32_t> undone;
  for (const storage::WalRecord& record : engine.wal_records()) {
    if (record.type == storage::WalRecordType::kRollbackInsert) {
      EXPECT_EQ(record.txn_id, doomed);
      undone.push_back(record.table_id);
    }
  }
  // Calls 5, 4, 3, 2, 1; within each call, rows newest first.
  const std::vector<uint32_t> want = {objects, objects, frames,  objects,
                                      objects, objects, objects, objects,
                                      frames,  frames,  frames};
  EXPECT_EQ(undone, want);
}

TEST_F(EngineTest, ColumnBatchForeignKeyViolationReported) {
  const Schema schema = frames_objects_schema();
  const uint64_t txn = engine_.begin_transaction();
  ASSERT_TRUE(insert(txn, frames_, frame_row(1)).is_ok());
  ColumnBatch batch(schema.table(schema.table_id("objects").value()));
  for (int64_t id : {10, 11}) {
    batch.push_i64(0, id);
    batch.push_i64(1, id == 10 ? 1 : 999);  // 999: no such frame
    batch.push_f64(2, 10.0);
    batch.push_f64(3, 5.0);
    batch.push_f64(4, 18.0);
  }
  const BatchResult result = engine_.insert_column_batch(txn, objects_, batch);
  EXPECT_EQ(result.rows_applied, 1);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 1u);
  EXPECT_EQ(result.error->status.code(), ErrorCode::kConstraintForeignKey);
}

// --------------------------------------------------- FK checks of one run ---

// Parents keyed by int64 (`a`, 1000 rows: a two-level tree), string (`b`,
// 200 rows) and double (`z`: 0.0 and 1.5), and a child `c` with one
// nullable FK to each.
class ForeignKeyRunTest : public ::testing::Test {
 protected:
  struct ChildRow {
    int64_t id;
    std::optional<int64_t> a;
    std::optional<std::string> code;
    std::optional<double> v;
  };

  static Schema schema() {
    Schema schema;
    TableDef a;
    a.name = "a";
    a.col("a_id", ColumnType::kInt64, false);
    a.primary_key = {"a_id"};
    EXPECT_TRUE(schema.add_table(a).is_ok());
    TableDef b;
    b.name = "b";
    b.col("code", ColumnType::kString, false);
    b.primary_key = {"code"};
    EXPECT_TRUE(schema.add_table(b).is_ok());
    TableDef z;
    z.name = "z";
    z.col("v", ColumnType::kDouble, false);
    z.primary_key = {"v"};
    EXPECT_TRUE(schema.add_table(z).is_ok());
    TableDef c;
    c.name = "c";
    c.col("id", ColumnType::kInt64, false);
    c.col("a_id", ColumnType::kInt64, true);
    c.col("code", ColumnType::kString, true);
    c.col("v", ColumnType::kDouble, true);
    c.primary_key = {"id"};
    c.foreign_keys.push_back(ForeignKey{{"a_id"}, "a"});
    c.foreign_keys.push_back(ForeignKey{{"code"}, "b"});
    c.foreign_keys.push_back(ForeignKey{{"v"}, "z"});
    EXPECT_TRUE(schema.add_table(c).is_ok());
    return schema;
  }

  static std::string code(int64_t i) {
    return str_format("b%03d", static_cast<int>(i));
  }

  ForeignKeyRunTest() : engine_(schema()) {
    child_ = engine_.table_id("c").value();
    txn_ = engine_.begin_transaction();
    std::vector<Row> a_rows;
    for (int64_t i = 0; i < 1000; ++i) a_rows.push_back({Value::i64(i)});
    std::vector<Row> b_rows;
    for (int64_t i = 0; i < 200; ++i) b_rows.push_back({Value::str(code(i))});
    const std::vector<Row> z_rows = {{Value::f64(0.0)}, {Value::f64(1.5)}};
    for (const auto& [name, rows] :
         {std::pair{"a", a_rows}, {"b", b_rows}, {"z", z_rows}}) {
      const BatchResult loaded =
          engine_.insert_batch(txn_, engine_.table_id(name).value(), rows);
      EXPECT_FALSE(loaded.error.has_value());
    }
  }

  BatchResult insert_children(const std::vector<ChildRow>& rows) {
    ColumnBatch batch(engine_.schema().table(child_));
    for (const ChildRow& row : rows) {
      batch.push_i64(0, row.id);
      row.a.has_value() ? batch.push_i64(1, *row.a) : batch.push_null(1);
      row.code.has_value() ? batch.push_str(2, *row.code) : batch.push_null(2);
      row.v.has_value() ? batch.push_f64(3, *row.v) : batch.push_null(3);
    }
    return engine_.insert_column_batch(txn_, child_, batch);
  }

  // 300 rows, one run (increasing ids). `a` keys are unsorted, each on 3
  // adjacent rows, and recur on rows far apart (block k and k + 61 share a
  // key); `code` keys descend in blocks of 4 and recur every 90 blocks'
  // worth; row 150 has a NULL `a`, row 77 a NULL code; `v` is NULL
  // throughout.
  static std::vector<ChildRow> mixed_rows() {
    std::vector<ChildRow> rows;
    for (int64_t i = 0; i < 300; ++i) {
      ChildRow row{1000 + i, ((i / 3) * 37) % 61 * 16,
                   code(199 - ((i / 4) * 11) % 90), std::nullopt};
      if (i == 150) row.a.reset();
      if (i == 77) row.code.reset();
      rows.push_back(row);
    }
    return rows;
  }

  Engine engine_;
  uint32_t child_ = 0;
  uint64_t txn_ = 0;
};

TEST_F(ForeignKeyRunTest, CleanUnsortedRunChargesEachDistinctKeyOnce) {
  const BatchResult result = insert_children(mixed_rows());
  ASSERT_FALSE(result.error.has_value()) << result.error->status.to_string();
  EXPECT_EQ(result.rows_applied, 300);
  EXPECT_EQ(result.costs.fk_checks, 900);  // every row, once per FK
  // 61 distinct `a` keys and 75 distinct codes, each parent a two-level
  // tree: one descent charged per distinct key.
  EXPECT_EQ(result.costs.fk_node_visits, 2 * 61 + 2 * 75);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(ForeignKeyRunTest, EarlierOfTwoFailingForeignKeysIsReported) {
  // The second FK fails first (row 120); the first FK's failure (row 200)
  // lies past it.
  std::vector<ChildRow> rows = mixed_rows();
  rows[200].a = 5000;
  rows[120].code = "zzz";
  BatchResult result = insert_children(rows);
  EXPECT_EQ(result.rows_applied, 120);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 120u);
  EXPECT_EQ(result.error->status.code(), ErrorCode::kConstraintForeignKey);
  EXPECT_EQ(result.error->status.message(),
            "c: no parent row in b for (1120, 256, zzz, NULL)");
  // FK a walks rows 0..200, FK code rows 0..120, FK v rows 0..119; the
  // missing key is charged too (61 + 1 `a` keys, 30 + 1 codes).
  EXPECT_EQ(result.costs.fk_checks, 201 + 121 + 120);
  EXPECT_EQ(result.costs.fk_node_visits, 2 * 62 + 2 * 31);

  // The first FK fails first (row 60 of the resent rest).
  rows.erase(rows.begin(), rows.begin() + 121);
  rows[60].a = 7000;
  result = insert_children(rows);
  EXPECT_EQ(result.rows_applied, 60);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 60u);
  EXPECT_EQ(result.error->status.message(),
            "c: no parent row in a for (1181, 7000, b154, NULL)");
  EXPECT_EQ(result.costs.fk_checks, 61 + 60 + 60);
  EXPECT_EQ(result.costs.fk_node_visits, 2 * (21 + 1) + 2 * 16);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(ForeignKeyRunTest, DanglingKeyOnLastRowOfLongRun) {
  // 4000 rows, four per parent (presorted), codes in blocks of 20; the
  // last row's parent does not exist.
  std::vector<ChildRow> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back({i, i / 4, code(i / 20), std::nullopt});
  }
  rows.back().a = 1000;
  const BatchResult result = insert_children(rows);
  EXPECT_EQ(result.rows_applied, 3999);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 3999u);
  EXPECT_EQ(result.error->status.message(),
            "c: no parent row in a for (3999, 1000, b199, NULL)");
  EXPECT_EQ(result.costs.fk_checks, 4000 + 3999 + 3999);
  EXPECT_EQ(result.costs.fk_node_visits, 2 * (1000 + 1) + 2 * 200);
}

TEST_F(ForeignKeyRunTest, RepeatAcrossChunkBoundaryIsNotProbedAgain) {
  // Rows 0..64 share a parent, so row 64 repeats row 63 across the first
  // chunk boundary (64 rows); row 65 has no parent.
  std::vector<ChildRow> rows;
  for (int64_t i = 0; i < 66; ++i) {
    rows.push_back({i, 5, std::nullopt, std::nullopt});
  }
  rows.back().a = 5000;
  const BatchResult result = insert_children(rows);
  EXPECT_EQ(result.rows_applied, 65);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 65u);
  EXPECT_EQ(result.costs.fk_checks, 66 + 65 + 65);
  EXPECT_EQ(result.costs.fk_node_visits, 2 * 2);  // 5 once, then 5000
}

TEST_F(ForeignKeyRunTest, DoubleKeysCompareByBitPattern) {
  // -0.0 equals 0.0 as a double but encodes differently, so it is its own
  // key even on the row after a 0.0, and `z` holds only 0.0.
  const BatchResult result =
      insert_children({{1, std::nullopt, std::nullopt, 1.5},
                       {2, std::nullopt, std::nullopt, 0.0},
                       {3, std::nullopt, std::nullopt, 0.0},
                       {4, std::nullopt, std::nullopt, -0.0}});
  EXPECT_EQ(result.rows_applied, 3);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->row_index, 3u);
  EXPECT_EQ(result.error->status.code(), ErrorCode::kConstraintForeignKey);
  EXPECT_EQ(result.costs.fk_checks, 4 + 4 + 4);
  EXPECT_EQ(result.costs.fk_node_visits, 3);  // 0.0, 1.5, -0.0 on one leaf
}

// ------------------------------------------------- randomized differential ---

class EngineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  Engine engine(frames_objects_schema());
  const uint32_t frames = engine.table_id("frames").value();
  const uint32_t objects = engine.table_id("objects").value();
  std::set<int64_t> ref_frames;
  std::map<int64_t, int64_t> ref_objects;  // id -> frame

  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  for (int op = 0; op < 2000; ++op) {
    if (rng.bernoulli(0.3)) {
      const int64_t id = rng.uniform_int(0, 60);
      const Status status = engine.insert_row(txn, frames, frame_row(id),
                                              costs);
      if (ref_frames.count(id) > 0) {
        EXPECT_EQ(status.code(), ErrorCode::kConstraintPrimaryKey);
      } else {
        EXPECT_TRUE(status.is_ok());
        ref_frames.insert(id);
      }
    } else {
      const int64_t id = rng.uniform_int(0, 1500);
      const int64_t frame = rng.uniform_int(0, 80);  // often dangling
      const Status status =
          engine.insert_row(txn, objects, object_row(id, frame), costs);
      if (ref_objects.count(id) > 0) {
        // PK is checked before FK in our engine.
        EXPECT_EQ(status.code(), ErrorCode::kConstraintPrimaryKey);
      } else if (ref_frames.count(frame) == 0) {
        EXPECT_EQ(status.code(), ErrorCode::kConstraintForeignKey);
      } else {
        EXPECT_TRUE(status.is_ok()) << status.to_string();
        ref_objects[id] = frame;
      }
    }
  }
  EXPECT_EQ(engine.live_view().row_count(frames),
            static_cast<int64_t>(ref_frames.size()));
  EXPECT_EQ(engine.live_view().row_count(objects),
            static_cast<int64_t>(ref_objects.size()));
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(101, 102, 103, 104, 105));

}  // namespace
}  // namespace sky::db
