// Query planner tests: access-path selection (PK range, secondary index
// range, full scan), condition semantics, ordering/limit, and a randomized
// differential test against brute-force filtering.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/engine.h"
#include "db/query.h"

namespace sky::db {
namespace {

Schema stars_schema() {
  Schema schema;
  TableDef stars;
  stars.name = "stars";
  stars.col("star_id", ColumnType::kInt64, false);
  stars.col("field", ColumnType::kInt32, false);
  stars.col("mag", ColumnType::kDouble);
  stars.col("color", ColumnType::kDouble);
  stars.col("name", ColumnType::kString);
  stars.primary_key = {"star_id"};
  stars.indexes.push_back(
      IndexDef{"idx_field_mag", {"field", "mag"}, {}});
  EXPECT_TRUE(schema.add_table(stars).is_ok());
  return schema;
}

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : engine_(stars_schema()), planner_(engine_) {
    const uint64_t txn = engine_.begin_transaction();
    OpCosts costs;
    Rng rng(31415);
    for (int64_t i = 0; i < 500; ++i) {
      const Row row = {Value::i64(i), Value::i32(static_cast<int32_t>(i % 7)),
                       Value::f64(15.0 + static_cast<double>(i % 100) * 0.1),
                       Value::f64(rng.uniform_range(-0.5, 2.0)),
                       Value::str("star-" + std::to_string(i))};
      EXPECT_TRUE(engine_.insert_row(txn, 0, row, costs).is_ok());
    }
    EXPECT_TRUE(engine_.commit(txn).is_ok());
  }

  Engine engine_;
  QueryPlanner planner_;
};

TEST_F(QueryTest, FullScanWhenNoUsableIndex) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"color", Condition::Op::kGt, Value::f64(1.5)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "FULL SCAN stars");
  EXPECT_EQ(result->rows_examined, 500);
  for (const Row& row : result->rows) EXPECT_GT(row[3].as_f64(), 1.5);
}

TEST_F(QueryTest, PkEqualityUsesPkRange) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"star_id", Condition::Op::kEq, Value::i64(42)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "PK RANGE stars");
  EXPECT_EQ(result->rows_examined, 1);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].as_i64(), 42);
}

TEST_F(QueryTest, PkRangeBoundsInclusiveExclusive) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"star_id", Condition::Op::kGe, Value::i64(10)},
                     {"star_id", Condition::Op::kLt, Value::i64(20)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "PK RANGE stars");
  EXPECT_EQ(result->rows.size(), 10u);
  // The range consumed the conditions: nothing extra examined.
  EXPECT_EQ(result->rows_examined, 10);

  spec.conditions = {{"star_id", Condition::Op::kGt, Value::i64(10)},
                     {"star_id", Condition::Op::kLe, Value::i64(20)}};
  const auto open_closed = planner_.execute(spec);
  ASSERT_TRUE(open_closed.is_ok());
  EXPECT_EQ(open_closed->rows.size(), 10u);
  EXPECT_EQ(open_closed->rows.front()[0].as_i64(), 11);
  EXPECT_EQ(open_closed->rows.back()[0].as_i64(), 20);
}

TEST_F(QueryTest, CompositeIndexEqThenRange) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"field", Condition::Op::kEq, Value::i32(3)},
                     {"mag", Condition::Op::kLt, Value::f64(18.0)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "INDEX RANGE idx_field_mag");
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[1].as_i32(), 3);
    EXPECT_LT(row[2].as_f64(), 18.0);
  }
  // Examined only the index-range hits, a strict subset of the table.
  EXPECT_LT(result->rows_examined, 500);
  EXPECT_EQ(static_cast<size_t>(result->rows_examined),
            result->rows.size());
}

TEST_F(QueryTest, IndexEqualityPrefixOnly) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"field", Condition::Op::kEq, Value::i32(5)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "INDEX RANGE idx_field_mag");
  size_t expected = 0;
  for (int64_t i = 0; i < 500; ++i) {
    if (i % 7 == 5) ++expected;
  }
  EXPECT_EQ(result->rows.size(), expected);
}

TEST_F(QueryTest, DisabledIndexFallsBackToScan) {
  ASSERT_TRUE(engine_.set_index_enabled(0, "idx_field_mag", false).is_ok());
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"field", Condition::Op::kEq, Value::i32(5)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "FULL SCAN stars");
  // Same answer, different path.
  size_t expected = 0;
  for (int64_t i = 0; i < 500; ++i) {
    if (i % 7 == 5) ++expected;
  }
  EXPECT_EQ(result->rows.size(), expected);
}

TEST_F(QueryTest, PlannerPrefersPathConsumingMoreConditions) {
  // star_id range (1 condition) vs field+mag (2 conditions): index wins.
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"star_id", Condition::Op::kGe, Value::i64(0)},
                     {"field", Condition::Op::kEq, Value::i32(2)},
                     {"mag", Condition::Op::kGe, Value::f64(20.0)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "INDEX RANGE idx_field_mag");
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[1].as_i32(), 2);
    EXPECT_GE(row[2].as_f64(), 20.0);
  }
}

TEST_F(QueryTest, OrderByAndLimit) {
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"field", Condition::Op::kEq, Value::i32(1)}};
  spec.order_by = "mag";
  spec.descending = true;
  spec.limit = 5;
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result->rows.size(), 5u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_GE(result->rows[i - 1][2].as_f64(), result->rows[i][2].as_f64());
  }
}

TEST_F(QueryTest, LimitZeroAndNoConditions) {
  QuerySpec all;
  all.table = "stars";
  const auto everything = planner_.execute(all);
  ASSERT_TRUE(everything.is_ok());
  EXPECT_EQ(everything->rows.size(), 500u);
  all.limit = 0;
  const auto none = planner_.execute(all);
  ASSERT_TRUE(none.is_ok());
  EXPECT_TRUE(none->rows.empty());
}

TEST_F(QueryTest, ValidationErrors) {
  QuerySpec bad_table;
  bad_table.table = "ghosts";
  EXPECT_FALSE(planner_.execute(bad_table).is_ok());

  QuerySpec bad_column;
  bad_column.table = "stars";
  bad_column.conditions = {{"ghost", Condition::Op::kEq, Value::i64(1)}};
  EXPECT_FALSE(planner_.execute(bad_column).is_ok());

  QuerySpec bad_type;
  bad_type.table = "stars";
  bad_type.conditions = {{"star_id", Condition::Op::kEq, Value::str("x")}};
  EXPECT_EQ(planner_.execute(bad_type).status().code(),
            ErrorCode::kTypeMismatch);

  QuerySpec null_value;
  null_value.table = "stars";
  null_value.conditions = {{"star_id", Condition::Op::kEq, Value::null()}};
  EXPECT_FALSE(planner_.execute(null_value).is_ok());

  QuerySpec bad_order;
  bad_order.table = "stars";
  bad_order.order_by = "ghost";
  EXPECT_FALSE(planner_.execute(bad_order).is_ok());
}

TEST_F(QueryTest, NullColumnValuesMatchNothing) {
  const uint64_t txn = engine_.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(engine_
                  .insert_row(txn, 0,
                              {Value::i64(9999), Value::i32(1), Value::null(),
                               Value::null(), Value::null()},
                              costs)
                  .is_ok());
  ASSERT_TRUE(engine_.commit(txn).is_ok());
  QuerySpec spec;
  spec.table = "stars";
  spec.conditions = {{"mag", Condition::Op::kGt, Value::f64(-1e9)}};
  const auto result = planner_.execute(spec);
  ASSERT_TRUE(result.is_ok());
  for (const Row& row : result->rows) EXPECT_NE(row[0].as_i64(), 9999);
}

// Differential property: planner output equals brute-force filter for
// random condition sets, regardless of chosen path.
class QueryFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzz, MatchesBruteForce) {
  Engine engine(stars_schema());
  QueryPlanner planner(engine);
  Rng rng(GetParam());
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  for (int64_t i = 0; i < 300; ++i) {
    const Row row = {Value::i64(rng.uniform_int(0, 2000)),
                     Value::i32(static_cast<int32_t>(rng.uniform_int(0, 9))),
                     Value::f64(rng.uniform_range(10, 25)),
                     Value::f64(rng.uniform_range(-1, 3)),
                     Value::str(rng.ident(6))};
    const Status status = engine.insert_row(txn, 0, row, costs);
    (void)status;  // duplicate PKs skipped; fine
  }
  ASSERT_TRUE(engine.commit(txn).is_ok());
  const TableDef& def = engine.schema().table(0);

  const char* columns[] = {"star_id", "field", "mag", "color"};
  for (int trial = 0; trial < 40; ++trial) {
    QuerySpec spec;
    spec.table = "stars";
    const int64_t n_conditions = rng.uniform_int(0, 3);
    for (int64_t c = 0; c < n_conditions; ++c) {
      Condition cond;
      cond.column = columns[rng.uniform_int(0, 3)];
      cond.op = static_cast<Condition::Op>(rng.uniform_int(0, 4));
      if (cond.column == "star_id") {
        cond.value = Value::i64(rng.uniform_int(0, 2000));
      } else if (cond.column == "field") {
        cond.value = Value::i32(static_cast<int32_t>(rng.uniform_int(0, 9)));
      } else {
        cond.value = Value::f64(rng.uniform_range(-1, 25));
      }
      spec.conditions.push_back(std::move(cond));
    }
    const auto result = planner.execute(spec);
    ASSERT_TRUE(result.is_ok());
    const auto brute = engine.live_view().scan_collect(0, [&](const Row& row) {
      for (const Condition& cond : spec.conditions) {
        const auto ok = condition_matches(def, cond, row);
        if (!ok.is_ok() || !*ok) return false;
      }
      return true;
    });
    EXPECT_EQ(result->rows.size(), brute.size())
        << "trial " << trial << " plan=" << result->plan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sky::db
