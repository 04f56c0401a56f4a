// ArraySet tests: on-demand array creation, capacity triggers, per-table
// config overrides, the memory high-water extension, and cycle teardown.
#include <gtest/gtest.h>

#include "core/array_set.h"

namespace sky::core {
namespace {

db::Schema tiny_schema() {
  db::Schema schema;
  for (const char* name : {"parents", "children", "grandchildren"}) {
    db::TableDef def;
    def.name = name;
    def.col("id", db::ColumnType::kInt64, false);
    def.col("payload", db::ColumnType::kString);
    def.primary_key = {"id"};
    EXPECT_TRUE(schema.add_table(def).is_ok());
  }
  return schema;
}

db::ColumnBatch make_batch(const db::Schema& schema, uint32_t table_id,
                           int64_t first_id, int rows,
                           const std::string& payload = "payload") {
  db::ColumnBatch batch(schema.table(table_id));
  for (int i = 0; i < rows; ++i) {
    batch.push_i64(0, first_id + i);
    batch.push_str(1, payload);
  }
  return batch;
}

TEST(ArraySetTest, ArraysCreatedOnDemand) {
  const db::Schema schema = tiny_schema();
  ArraySet set(schema, ArraySet::Config{});
  EXPECT_EQ(set.active_arrays(), 0);
  set.append_batch(1, make_batch(schema, 1, 1, 1));
  EXPECT_EQ(set.active_arrays(), 1);
  set.append_batch(0, make_batch(schema, 0, 2, 1));
  EXPECT_EQ(set.active_arrays(), 2);
  set.append_batch(1, make_batch(schema, 1, 3, 1));
  EXPECT_EQ(set.active_arrays(), 2);
  EXPECT_EQ(set.buffered_rows(), 3);
}

TEST(ArraySetTest, FlushTriggersAtCapacity) {
  const db::Schema schema = tiny_schema();
  ArraySet::Config config;
  config.default_rows = 5;
  ArraySet set(schema, config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(set.append_batch(0, make_batch(schema, 0, i, 1)));
  }
  EXPECT_FALSE(set.should_flush());
  EXPECT_TRUE(set.append_batch(0, make_batch(schema, 0, 4, 1)));
  EXPECT_TRUE(set.should_flush());
}

TEST(ArraySetTest, PerTableCapacityOverride) {
  const db::Schema schema = tiny_schema();
  ArraySet::Config config;
  config.default_rows = 100;
  config.per_table_rows["children"] = 3;
  ArraySet set(schema, config);
  EXPECT_EQ(set.capacity_for(0), 100);
  EXPECT_EQ(set.capacity_for(1), 3);
  set.append_batch(1, make_batch(schema, 1, 1, 1));
  set.append_batch(1, make_batch(schema, 1, 2, 1));
  EXPECT_TRUE(set.append_batch(1, make_batch(schema, 1, 3, 1)));
}

TEST(ArraySetTest, HighWaterMarkTriggersFlush) {
  const db::Schema schema = tiny_schema();
  ArraySet::Config config;
  config.default_rows = 1'000'000;
  config.memory_high_water_bytes = 4096;
  ArraySet set(schema, config);
  bool triggered = false;
  for (int i = 0; i < 1000 && !triggered; ++i) {
    triggered =
        set.append_batch(0, make_batch(schema, 0, i, 1, std::string(100, 'p')));
  }
  EXPECT_TRUE(triggered);
  EXPECT_GE(set.footprint_bytes(), 4096);
  EXPECT_LT(set.buffered_rows(), 1000);
}

TEST(ArraySetTest, TopoOrderIterationIsParentFirst) {
  const db::Schema schema = tiny_schema();
  ArraySet set(schema, ArraySet::Config{});
  set.append_batch(2, make_batch(schema, 2, 30, 1));  // grandchild first
  set.append_batch(0, make_batch(schema, 0, 10, 1));
  set.append_batch(1, make_batch(schema, 1, 20, 1));
  std::vector<uint32_t> order;
  set.for_each_batch_in_topo_order(
      [&](uint32_t table_id, const db::ColumnBatch&) {
        order.push_back(table_id);
      });
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(ArraySetTest, ClearReleasesEverything) {
  const db::Schema schema = tiny_schema();
  ArraySet set(schema, ArraySet::Config{});
  set.append_batch(0, make_batch(schema, 0, 0, 50));
  set.clear();
  EXPECT_EQ(set.buffered_rows(), 0);
  EXPECT_EQ(set.footprint_bytes(), 0);
  EXPECT_EQ(set.active_arrays(), 0);
  EXPECT_FALSE(set.should_flush());
  // Usable again after clear.
  set.append_batch(1, make_batch(schema, 1, 1, 1));
  EXPECT_EQ(set.buffered_rows(), 1);
}

TEST(ArraySetTest, ConfigFromFile) {
  const db::Schema schema = tiny_schema();
  const auto file = Config::parse(R"(
[array_set]
default_rows = 500
memory_high_water_bytes = 1048576
children = 2000
)");
  ASSERT_TRUE(file.is_ok());
  const auto config = ArraySet::Config::from_config(*file, schema);
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config->default_rows, 500);
  EXPECT_EQ(config->memory_high_water_bytes.value(), 1048576);
  EXPECT_EQ(config->per_table_rows.at("children"), 2000);
}

TEST(ArraySetTest, ConfigRejectsBadValues) {
  const db::Schema schema = tiny_schema();
  auto bad_table = Config::parse("[array_set]\nnonexistent = 10\n");
  ASSERT_TRUE(bad_table.is_ok());
  EXPECT_FALSE(ArraySet::Config::from_config(*bad_table, schema).is_ok());

  auto bad_rows = Config::parse("[array_set]\ndefault_rows = -5\n");
  ASSERT_TRUE(bad_rows.is_ok());
  EXPECT_FALSE(ArraySet::Config::from_config(*bad_rows, schema).is_ok());

  auto bad_hwm = Config::parse("[array_set]\nmemory_high_water_bytes = 0\n");
  ASSERT_TRUE(bad_hwm.is_ok());
  EXPECT_FALSE(ArraySet::Config::from_config(*bad_hwm, schema).is_ok());

  auto bad_per_table = Config::parse("[array_set]\nchildren = 0\n");
  ASSERT_TRUE(bad_per_table.is_ok());
  EXPECT_FALSE(ArraySet::Config::from_config(*bad_per_table, schema).is_ok());
}

TEST(ArraySetTest, AppendBatchMergesAndTriggersAtCapacity) {
  const db::Schema schema = tiny_schema();
  ArraySet::Config config;
  config.default_rows = 10;
  ArraySet set(schema, config);
  EXPECT_FALSE(set.append_batch(0, make_batch(schema, 0, 0, 4)));
  EXPECT_FALSE(set.append_batch(0, make_batch(schema, 0, 4, 4)));
  EXPECT_EQ(set.buffered_rows(), 8);
  EXPECT_EQ(set.active_arrays(), 1);
  EXPECT_GT(set.footprint_bytes(), 0);
  // Crossing the per-table capacity flips the flush flag.
  EXPECT_TRUE(set.append_batch(0, make_batch(schema, 0, 8, 4)));
  EXPECT_TRUE(set.should_flush());
  // The merged buffer holds every appended row, in order.
  int64_t seen = 0;
  set.for_each_batch_in_topo_order(
      [&](uint32_t table_id, const db::ColumnBatch& batch) {
        EXPECT_EQ(table_id, 0u);
        for (size_t r = 0; r < batch.size(); ++r) {
          EXPECT_EQ(batch.i64_at(r, 0), seen++);
        }
      });
  EXPECT_EQ(seen, 12);
}

TEST(ArraySetTest, AppendBatchHighWaterTriggersFlush) {
  const db::Schema schema = tiny_schema();
  ArraySet::Config config;
  config.default_rows = 1000000;
  config.memory_high_water_bytes = 256;
  ArraySet set(schema, config);
  bool flush = false;
  int64_t appended = 0;
  while (!flush && appended < 10000) {
    flush = set.append_batch(0, make_batch(schema, 0, appended, 8));
    appended += 8;
  }
  EXPECT_TRUE(flush);
  EXPECT_GE(set.footprint_bytes(), 256);
  EXPECT_LT(appended, 10000);  // the byte budget fired, not the row cap
}

TEST(ArraySetTest, ClearKeepBuffersRetainsLayoutAndResetsCounters) {
  const db::Schema schema = tiny_schema();
  ArraySet set(schema, ArraySet::Config{});
  set.append_batch(0, make_batch(schema, 0, 0, 16));
  set.append_batch(1, make_batch(schema, 1, 0, 16));
  EXPECT_EQ(set.active_arrays(), 2);
  set.clear_keep_buffers();
  // Counters reset, retained-but-empty buffers are not "active".
  EXPECT_EQ(set.buffered_rows(), 0);
  EXPECT_EQ(set.footprint_bytes(), 0);
  EXPECT_EQ(set.active_arrays(), 0);
  EXPECT_FALSE(set.should_flush());
  int visited = 0;
  set.for_each_batch_in_topo_order(
      [&](uint32_t, const db::ColumnBatch&) { ++visited; });
  EXPECT_EQ(visited, 0);
  // Next cycle reuses the buffers; footprint counts only the new rows.
  set.append_batch(0, make_batch(schema, 0, 100, 4));
  EXPECT_EQ(set.buffered_rows(), 4);
  const int64_t footprint_4 = set.footprint_bytes();
  EXPECT_GT(footprint_4, 0);
  set.for_each_batch_in_topo_order(
      [&](uint32_t table_id, const db::ColumnBatch& batch) {
        EXPECT_EQ(table_id, 0u);
        ASSERT_EQ(batch.size(), 4u);
        EXPECT_EQ(batch.i64_at(0, 0), 100);
      });
}

}  // namespace
}  // namespace sky::core
