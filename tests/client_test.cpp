// Client-layer tests: JDBC batch semantics through both session types,
// lazy transactions, commit behaviour, cost-model pricing, and virtual-time
// accounting in simulation mode.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "client/session.h"
#include "client/sim_session.h"
#include "common/rng.h"
#include "core/bulk_loader.h"
#include "db/engine.h"
#include "sim/environment.h"

namespace sky::client {
namespace {

db::Schema two_table_schema() {
  db::Schema schema;
  db::TableDef parent;
  parent.name = "frames";
  parent.col("frame_id", db::ColumnType::kInt64, false);
  parent.primary_key = {"frame_id"};
  EXPECT_TRUE(schema.add_table(parent).is_ok());
  db::TableDef child;
  child.name = "objects";
  child.col("object_id", db::ColumnType::kInt64, false);
  child.col("frame_id", db::ColumnType::kInt64, false);
  child.primary_key = {"object_id"};
  child.foreign_keys.push_back(db::ForeignKey{{"frame_id"}, "frames"});
  EXPECT_TRUE(schema.add_table(child).is_ok());
  return schema;
}

db::Row frame(int64_t id) { return {db::Value::i64(id)}; }
db::Row object(int64_t id, int64_t frame_id) {
  return {db::Value::i64(id), db::Value::i64(frame_id)};
}

// ---------------------------------------------------------- DirectSession ---

TEST(DirectSessionTest, PrepareValidatesTable) {
  db::Engine engine(two_table_schema());
  DirectSession session(engine);
  EXPECT_TRUE(session.prepare_insert("frames").is_ok());
  EXPECT_FALSE(session.prepare_insert("nonexistent").is_ok());
}

TEST(DirectSessionTest, BatchRoundTrip) {
  db::Engine engine(two_table_schema());
  DirectSession session(engine);
  const uint32_t frames = session.prepare_insert("frames").value();
  std::vector<db::Row> rows = {frame(1), frame(2), frame(3)};
  const BatchOutcome outcome = session.execute_batch(frames, rows);
  EXPECT_EQ(outcome.applied, 3);
  EXPECT_FALSE(outcome.error.has_value());
  ASSERT_TRUE(session.commit().is_ok());
  EXPECT_EQ(engine.live_view().row_count(frames), 3);
  EXPECT_EQ(session.stats().db_calls, 2);  // batch + commit
  EXPECT_EQ(session.stats().rows_applied, 3);
}

TEST(DirectSessionTest, BatchErrorSemantics) {
  db::Engine engine(two_table_schema());
  DirectSession session(engine);
  const uint32_t frames = session.prepare_insert("frames").value();
  std::vector<db::Row> rows = {frame(1), frame(2), frame(1), frame(4)};
  const BatchOutcome outcome = session.execute_batch(frames, rows);
  EXPECT_EQ(outcome.applied, 2);
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(outcome.error->row_index, 2u);
  // Row 4 was discarded with the rest of the failed batch.
  EXPECT_EQ(engine.live_view().row_count(frames), 2);
  EXPECT_EQ(session.stats().failed_calls, 1);
}

TEST(DirectSessionTest, SingleInsertPath) {
  db::Engine engine(two_table_schema());
  DirectSession session(engine);
  const uint32_t frames = session.prepare_insert("frames").value();
  EXPECT_TRUE(session.execute_single(frames, frame(1)).is_ok());
  EXPECT_EQ(session.execute_single(frames, frame(1)).code(),
            ErrorCode::kConstraintPrimaryKey);
  EXPECT_EQ(session.stats().single_calls, 2);
  EXPECT_EQ(session.stats().rows_applied, 1);
}

TEST(DirectSessionTest, CommitWithoutTransactionIsNoOp) {
  db::Engine engine(two_table_schema());
  DirectSession session(engine);
  EXPECT_TRUE(session.commit().is_ok());
  EXPECT_EQ(session.stats().commits, 0);
}

TEST(DirectSessionTest, AbandonedTransactionRollsBackOnClose) {
  db::Engine engine(two_table_schema());
  const uint32_t frames = engine.table_id("frames").value();
  {
    DirectSession session(engine);
    ASSERT_TRUE(session.execute_single(frames, frame(1)).is_ok());
    // No commit: destructor must roll back.
  }
  EXPECT_EQ(engine.live_view().row_count(frames), 0);
  // And a fresh session can reuse the key.
  DirectSession session(engine);
  EXPECT_TRUE(session.execute_single(frames, frame(1)).is_ok());
  EXPECT_TRUE(session.commit().is_ok());
  EXPECT_EQ(engine.live_view().row_count(frames), 1);
}

// -------------------------------------------------------------- CostModel ---

TEST(CostModelTest, ServerTimeScalesWithWork) {
  const CostModel costs = paper_calibrated_costs();
  db::OpCosts light;
  light.rows_applied = 1;
  db::OpCosts heavy;
  heavy.rows_applied = 1;
  heavy.index_updates = 4;
  heavy.index_float_columns = 3;
  heavy.index_node_visits = 20;
  heavy.wal_bytes = 4096;
  EXPECT_GT(costs.server_cpu_time(heavy), costs.server_cpu_time(light));
  EXPECT_GT(costs.server_cpu_time(light), 0);
}

TEST(CostModelTest, FloatIndexColumnsCostMoreThanInt) {
  const CostModel costs = paper_calibrated_costs();
  db::OpCosts int_index;
  int_index.index_updates = 1;
  int_index.index_int_columns = 1;
  db::OpCosts float_index;
  float_index.index_updates = 1;
  float_index.index_float_columns = 3;
  EXPECT_GT(static_cast<double>(costs.server_cpu_time(float_index)),
            static_cast<double>(costs.server_cpu_time(int_index)) * 3.0);
}

TEST(CostModelTest, CalibratedSpeedupInPaperRange) {
  // Analytic sanity check of the calibration: the modeled bulk/non-bulk
  // per-row cost ratio at batch-size 40 must land in the paper's 7-9x.
  const CostModel costs = paper_calibrated_costs();
  db::OpCosts one_row;
  one_row.rows_applied = 1;
  one_row.check_evals = 8;
  one_row.index_updates = 1;
  one_row.index_int_columns = 1;
  one_row.index_node_visits = 8;
  one_row.fk_checks = 1;
  one_row.fk_node_visits = 4;
  one_row.heap_bytes = 330;
  one_row.wal_bytes = 330;
  const double row_server =
      static_cast<double>(costs.server_cpu_time(one_row));
  const double call_overhead =
      static_cast<double>(costs.client_call_overhead + costs.wire_latency * 2 +
                          costs.server_call_overhead);
  // Client-side parse price, charged by both loaders.
  const double parse =
      static_cast<double>(core::BulkLoaderOptions{}.client_parse_cost_per_row);
  const double non_bulk_per_row = call_overhead + row_server + parse;
  const double b = 40;
  const double bulk_per_row =
      call_overhead / b + row_server + parse +
      b * static_cast<double>(costs.client_marshal_per_row_per_batchrow);
  const double speedup = non_bulk_per_row / bulk_per_row;
  EXPECT_GE(speedup, 6.5) << "speedup=" << speedup;
  EXPECT_LE(speedup, 9.5) << "speedup=" << speedup;
  // Optimal batch size (minimizing call/b + q*b) is in the paper's 40-50.
  const double optimal_b = std::sqrt(
      call_overhead /
      static_cast<double>(costs.client_marshal_per_row_per_batchrow));
  EXPECT_GE(optimal_b, 35.0) << optimal_b;
  EXPECT_LE(optimal_b, 55.0) << optimal_b;
}

// ------------------------------------------------------------- SimSession ---

TEST(SimSessionTest, VirtualTimeAdvancesPerCall) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  SimServer server(env, engine, ServerConfig{});
  Nanos batch_time = 0, single_time = 0;
  env.spawn("loader", [&] {
    SimSession session(server);
    const uint32_t frames = session.prepare_insert("frames").value();
    std::vector<db::Row> rows;
    for (int i = 0; i < 40; ++i) rows.push_back(frame(i));
    const Nanos t0 = env.now();
    session.execute_batch(frames, rows);
    batch_time = env.now() - t0;
    const Nanos t1 = env.now();
    ASSERT_TRUE(session.execute_single(frames, frame(100)).is_ok());
    single_time = env.now() - t1;
    ASSERT_TRUE(session.commit().is_ok());
  });
  env.run();
  EXPECT_GT(batch_time, 0);
  EXPECT_GT(single_time, 0);
  // 40 rows in one call cost far less than 40 single calls would.
  EXPECT_LT(batch_time, 40 * single_time);
  // But a batch still costs more than one single call.
  EXPECT_GT(batch_time, single_time);
  EXPECT_EQ(engine.live_view().row_count(0), 41);
}

TEST(SimSessionTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    db::Engine engine(two_table_schema());
    sim::Environment env;
    SimServer server(env, engine, ServerConfig{});
    env.spawn("loader", [&] {
      SimSession session(server);
      const uint32_t frames = session.prepare_insert("frames").value();
      const uint32_t objects = session.prepare_insert("objects").value();
      std::vector<db::Row> frame_rows, object_rows;
      for (int i = 0; i < 25; ++i) frame_rows.push_back(frame(i));
      for (int i = 0; i < 100; ++i) object_rows.push_back(object(i, i % 25));
      session.execute_batch(frames, frame_rows);
      session.execute_batch(objects, object_rows);
      ASSERT_TRUE(session.commit().is_ok());
    });
    env.run();
    return env.now();
  };
  const Nanos first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_GT(first, 0);
}

TEST(SimSessionTest, StatsDecomposeTime) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  SimServer server(env, engine, ServerConfig{});
  SessionStats stats;
  env.spawn("loader", [&] {
    SimSession session(server);
    const uint32_t frames = session.prepare_insert("frames").value();
    std::vector<db::Row> rows;
    for (int i = 0; i < 200; ++i) rows.push_back(frame(i));
    for (size_t start = 0; start < rows.size(); start += 40) {
      session.execute_batch(
          frames, std::span<const db::Row>(&rows[start], 40));
    }
    ASSERT_TRUE(session.commit().is_ok());
    session.client_compute(5 * kMillisecond);
    stats = session.stats();
  });
  env.run();
  EXPECT_EQ(stats.batch_calls, 5);
  EXPECT_EQ(stats.commits, 1);
  EXPECT_EQ(stats.rows_applied, 200);
  EXPECT_GT(stats.client_time, 5 * kMillisecond);
  EXPECT_GT(stats.server_time, 0);
  EXPECT_GT(stats.network_time, 0);
  EXPECT_GT(stats.io_time, 0);  // commit flushed the log
}

TEST(SimSessionTest, PagingChargesMoreThanFitting) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  SimServer server(env, engine, ServerConfig{});
  Nanos fits_time = 0, paging_time = 0;
  env.spawn("loader", [&] {
    SimSession session(server);
    Nanos t0 = env.now();
    session.note_buffered_rows(1000, 100 * 1024,
                               /*columnar=*/false);  // fits in client memory
    fits_time = env.now() - t0;
    t0 = env.now();
    session.note_buffered_rows(1000, 64 * 1024 * 1024,
                               /*columnar=*/false);  // thrashing
    paging_time = env.now() - t0;
  });
  env.run();
  EXPECT_GT(paging_time, fits_time * 10);
}

TEST(SimSessionTest, TransactionSlotsLimitConcurrency) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  ServerConfig config;
  config.policies.concurrency.max_concurrent_transactions = 2;
  SimServer server(env, engine, config);
  // Three loaders each hold a transaction for a long client compute; the
  // third must wait for a slot (virtual time shows serialization).
  std::vector<Nanos> first_insert_done(3);
  for (int w = 0; w < 3; ++w) {
    env.spawn("w" + std::to_string(w), [&, w] {
      SimSession session(server);
      const uint32_t frames = session.prepare_insert("frames").value();
      ASSERT_TRUE(
          session.execute_single(frames, frame(w)).is_ok());
      session.client_compute(10 * kSecond);  // hold the slot
      first_insert_done[static_cast<size_t>(w)] = env.now();
      ASSERT_TRUE(session.commit().is_ok());
    });
  }
  env.run();
  // Workers 0 and 1 proceed together; worker 2 is delayed by ~a full hold.
  EXPECT_GT(first_insert_done[2], first_insert_done[0] + 9 * kSecond);
  EXPECT_GE(server.transaction_slots().stats().waits, 1u);
}

TEST(SimServerTest, SessionsAttachToNodesRoundRobin) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  ServerConfig config;
  config.nodes = 3;
  config.cpus = 6;
  SimServer server(env, engine, config);
  EXPECT_EQ(server.node_count(), 3);
  EXPECT_EQ(server.assign_node(), 0);
  EXPECT_EQ(server.assign_node(), 1);
  EXPECT_EQ(server.assign_node(), 2);
  EXPECT_EQ(server.assign_node(), 0);
  // Each node got cpus/nodes CPUs.
  EXPECT_EQ(server.node_cpus(0).capacity(), 2);
  EXPECT_EQ(server.node_cpus(2).capacity(), 2);
}

TEST(SimServerTest, CacheFusionOnlyOnCrossNodeWrites) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  ServerConfig config;
  config.nodes = 2;
  SimServer server(env, engine, config);
  // First write establishes ownership: no transfer.
  EXPECT_EQ(server.note_table_writer(0, 0, 5), 0);
  // Same node again: no transfer.
  EXPECT_EQ(server.note_table_writer(0, 0, 5), 0);
  // Other node takes over: pages ship.
  EXPECT_EQ(server.note_table_writer(0, 1, 5), 5);
  // And back.
  EXPECT_EQ(server.note_table_writer(0, 0, 3), 3);
  // A different table has independent ownership.
  EXPECT_EQ(server.note_table_writer(1, 1, 7), 0);
}

TEST(SimServerTest, SingleInstanceNeverShips) {
  db::Engine engine(two_table_schema());
  sim::Environment env;
  SimServer server(env, engine, ServerConfig{});  // nodes = 1
  EXPECT_EQ(server.note_table_writer(0, 0, 10), 0);
  EXPECT_EQ(server.note_table_writer(0, 0, 10), 0);
}

TEST(SimSessionTest, ClusterSharedTableSlowerThanSingleNodeOnlyWhenAlternating) {
  // Two loaders alternating inserts into one table: on a 2-node cluster
  // each handoff ships the hot blocks, so the same work takes longer than
  // on one node with the same total CPU count.
  auto run_nodes = [](int nodes) {
    db::Engine engine(two_table_schema());
    sim::Environment env;
    ServerConfig config;
    config.nodes = nodes;
    config.cpus = 8;
    SimServer server(env, engine, config);
    for (int w = 0; w < 2; ++w) {
      env.spawn("w" + std::to_string(w), [&, w] {
        SimSession session(server);
        const uint32_t frames = session.prepare_insert("frames").value();
        for (int i = 0; i < 50; ++i) {
          std::vector<db::Row> rows;
          for (int r = 0; r < 10; ++r) {
            rows.push_back(frame(w * 100000 + i * 100 + r));
          }
          session.execute_batch(frames, rows);
        }
        ASSERT_TRUE(session.commit().is_ok());
      });
    }
    env.run();
    return env.now();
  };
  EXPECT_GT(run_nodes(2), run_nodes(1));
}

// Two seeded loaders through one SimServer whose 48-page cache evicts
// clean and dirty pages and wakes DBWR: every object probes its frame (an
// FK parent-leaf read), and a secondary index adds leaf writes. With
// `presorted_only` every call is a column batch with strictly increasing
// keys; otherwise frames go as row batches and every other round's objects
// are shuffled. The sim figures depend on every cache and I/O figure, and
// on each call's delta being priced (the final virtual time).
struct CacheModelRun {
  int64_t objects = 0;
  storage::CacheEvents cache;
  storage::IoTally io;
  Nanos now = 0;
};

CacheModelRun run_cache_model(bool presorted_only) {
  db::Schema schema = two_table_schema();
  db::TableDef objects = schema.table(1);
  db::Schema indexed;
  EXPECT_TRUE(indexed.add_table(schema.table(0)).is_ok());
  objects.col("mag", db::ColumnType::kDouble, false);
  objects.indexes.push_back(db::IndexDef{"idx_mag", {"mag"}, {}});
  EXPECT_TRUE(indexed.add_table(objects).is_ok());
  db::Engine engine(indexed);
  sim::Environment env;
  ServerConfig config;
  config.cache_pages = 48;
  config.dirty_trigger = 47;
  SimServer server(env, engine, config);
  for (int w = 0; w < 2; ++w) {
    env.spawn("w" + std::to_string(w), [&, w] {
      SimSession session(server);
      Rng rng(31 + static_cast<uint64_t>(w));
      const uint32_t frames = session.prepare_insert("frames").value();
      const uint32_t object_table = session.prepare_insert("objects").value();
      for (int round = 0; round < 12; ++round) {
        const int64_t frame_base = w * 1'000'000 + round * 20;
        if (presorted_only) {
          db::ColumnBatch frame_batch(indexed.table(0));
          for (int i = 0; i < 20; ++i) frame_batch.push_i64(0, frame_base + i);
          session.execute_column_batch(frames, frame_batch, 0,
                                       frame_batch.size());
        } else {
          std::vector<db::Row> frame_rows;
          for (int i = 0; i < 20; ++i) {
            frame_rows.push_back(frame(frame_base + i));
          }
          session.execute_batch(frames, frame_rows);
        }
        const int64_t object_base = (w * 100 + round) * 1'000;
        std::vector<int64_t> ids;
        for (int64_t i = 0; i < 400; ++i) ids.push_back(object_base + i);
        if (!presorted_only && round % 2 == 1) {
          for (size_t i = ids.size() - 1; i > 0; --i) {
            std::swap(ids[i], ids[static_cast<size_t>(rng.uniform_int(
                                  0, static_cast<int64_t>(i)))]);
          }
        }
        db::ColumnBatch batch(objects);
        for (const int64_t id : ids) {
          batch.push_i64(0, id);
          batch.push_i64(1, frame_base + rng.uniform_int(0, 19));
          batch.push_f64(2, rng.uniform_range(10.0, 25.0));
        }
        session.execute_column_batch(object_table, batch, 0, batch.size());
        ASSERT_TRUE(session.commit().is_ok());
      }
    });
  }
  env.run();
  return CacheModelRun{engine.live_view().row_count(1), server.cache_events(),
                       server.io_tally(), env.now()};
}

TEST(SimServerTest, CacheModelFiguresArePinnedPresorted) {
  // Every call a presorted column run. These values were captured when the
  // cache model still lived inside db::Engine and when row-input calls still
  // had their own per-row body; neither change may move them.
  const CacheModelRun run = run_cache_model(/*presorted_only=*/true);
  EXPECT_EQ(run.objects, 2 * 12 * 400);
  EXPECT_EQ(run.cache.hits, 543);
  EXPECT_EQ(run.cache.misses, 2745);
  EXPECT_EQ(run.cache.clean_evictions, 2697);
  EXPECT_EQ(run.cache.dirty_evictions, 0);
  EXPECT_EQ(run.cache.writer_wakes, 58);
  EXPECT_EQ(run.cache.writer_scanned_frames, 2784);
  EXPECT_EQ(run.cache.writer_flushed_pages, 2726);
  EXPECT_EQ(run.io.pages_written, (std::array<int64_t, 3>{71, 2655, 0}));
  EXPECT_EQ(run.io.pages_read, (std::array<int64_t, 3>{67, 2678, 0}));
  EXPECT_EQ(run.now, 2'283'829'803);
}

TEST(SimServerTest, CacheModelFiguresArePinnedMixed) {
  // Row-batch frames and shuffled object rounds: each call runs as column
  // runs cut at every key below its predecessor, so FK probes are memoized
  // per run and pages are touched run by run.
  const CacheModelRun run = run_cache_model(/*presorted_only=*/false);
  EXPECT_EQ(run.objects, 2 * 12 * 400);
  EXPECT_EQ(run.cache.hits, 13466);
  EXPECT_EQ(run.cache.misses, 4063);
  EXPECT_EQ(run.cache.clean_evictions, 3883);
  EXPECT_EQ(run.cache.dirty_evictions, 132);
  EXPECT_EQ(run.cache.writer_wakes, 109);
  EXPECT_EQ(run.cache.writer_scanned_frames, 5232);
  EXPECT_EQ(run.cache.writer_flushed_pages, 5123);
  EXPECT_EQ(run.io.pages_written, (std::array<int64_t, 3>{137, 5118, 0}));
  EXPECT_EQ(run.io.pages_read, (std::array<int64_t, 3>{58, 4005, 0}));
  EXPECT_EQ(run.now, 2'792'135'283);
}

TEST(SimSessionTest, SingleDeviceLayoutSlowerThanSeparate) {
  // The section 4.5.3 mechanism: with everything on one RAID, log flushes
  // queue behind data/index writes.
  auto run_layout = [](storage::DeviceLayout layout) {
    db::Engine engine(two_table_schema());
    sim::Environment env;
    ServerConfig config;
    config.device_layout = layout;
    config.dirty_trigger = 16;  // flush often to stress devices
    config.cache_pages = 64;
    SimServer server(env, engine, config);
    for (int w = 0; w < 3; ++w) {
      env.spawn("w" + std::to_string(w), [&, w] {
        SimSession session(server);
        const uint32_t frames = session.prepare_insert("frames").value();
        std::vector<db::Row> rows;
        for (int i = 0; i < 400; ++i) rows.push_back(frame(w * 10000 + i));
        for (size_t start = 0; start < rows.size(); start += 40) {
          session.execute_batch(
              frames, std::span<const db::Row>(&rows[start], 40));
          ASSERT_TRUE(session.commit().is_ok());  // frequent commits
        }
      });
    }
    env.run();
    return env.now();
  };
  const Nanos separate = run_layout(storage::DeviceLayout::separate_raids());
  const Nanos single = run_layout(storage::DeviceLayout::single_raid());
  EXPECT_GT(single, separate);
}

}  // namespace
}  // namespace sky::client
