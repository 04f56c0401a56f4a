// Tests for the textual query language: lexing, parsing, literal coercion,
// error positions, and end-to-end execution through the planner.
#include <gtest/gtest.h>

#include "db/engine.h"
#include "db/query.h"
#include "db/sql.h"

namespace sky::db {
namespace {

Schema stars_schema() {
  Schema schema;
  TableDef stars;
  stars.name = "stars";
  stars.col("star_id", ColumnType::kInt64, false);
  stars.col("field", ColumnType::kInt32, false);
  stars.col("mag", ColumnType::kDouble);
  stars.col("name", ColumnType::kString);
  stars.col("seen_at", ColumnType::kTimestamp);
  stars.primary_key = {"star_id"};
  stars.indexes.push_back(
      IndexDef{"idx_field_mag", {"field", "mag"}, {}});
  EXPECT_TRUE(schema.add_table(stars).is_ok());
  return schema;
}

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : schema_(stars_schema()) {}
  db::Schema schema_;
};

TEST_F(SqlTest, MinimalSelect) {
  const auto spec = parse_query(schema_, "SELECT * FROM stars");
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_EQ(spec->table, "stars");
  EXPECT_TRUE(spec->conditions.empty());
  EXPECT_FALSE(spec->order_by.has_value());
  EXPECT_EQ(spec->limit, -1);
}

TEST_F(SqlTest, FullClause) {
  const auto spec = parse_query(
      schema_,
      "select * from stars where field = 3 and mag < 18.5 "
      "order by mag desc limit 10");
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  ASSERT_EQ(spec->conditions.size(), 2u);
  EXPECT_EQ(spec->conditions[0].column, "field");
  EXPECT_EQ(spec->conditions[0].op, Condition::Op::kEq);
  EXPECT_EQ(spec->conditions[0].value.as_i32(), 3);  // coerced to int32
  EXPECT_EQ(spec->conditions[1].op, Condition::Op::kLt);
  EXPECT_DOUBLE_EQ(spec->conditions[1].value.as_f64(), 18.5);
  EXPECT_EQ(spec->order_by.value(), "mag");
  EXPECT_TRUE(spec->descending);
  EXPECT_EQ(spec->limit, 10);
}

TEST_F(SqlTest, OperatorsAndLiterals) {
  const auto spec = parse_query(
      schema_,
      "SELECT * FROM stars WHERE star_id >= -5 AND mag <= 20 AND "
      "name = 'BD+17''4708' AND seen_at > 1000000");
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  ASSERT_EQ(spec->conditions.size(), 4u);
  EXPECT_EQ(spec->conditions[0].op, Condition::Op::kGe);
  EXPECT_EQ(spec->conditions[0].value.as_i64(), -5);
  // Integer literal against a double column coerces to double.
  EXPECT_DOUBLE_EQ(spec->conditions[1].value.as_f64(), 20.0);
  // '' is the quote escape.
  EXPECT_EQ(spec->conditions[2].value.as_str(), "BD+17'4708");
  EXPECT_EQ(spec->conditions[3].value.as_i64(), 1000000);
}

TEST_F(SqlTest, ParseErrorsWithPositions) {
  const char* bad_queries[] = {
      "",                                         // empty
      "INSERT INTO stars",                        // not SELECT
      "SELECT name FROM stars",                   // projection unsupported
      "SELECT * FROM ghosts",                     // unknown table
      "SELECT * FROM stars WHERE ghost = 1",      // unknown column
      "SELECT * FROM stars WHERE mag <> 5",       // bad operator
      "SELECT * FROM stars WHERE mag <",          // missing literal
      "SELECT * FROM stars WHERE name = unquoted",// bare word literal
      "SELECT * FROM stars ORDER BY ghost",       // unknown order column
      "SELECT * FROM stars LIMIT x",              // bad limit
      "SELECT * FROM stars LIMIT -2",             // negative limit
      "SELECT * FROM stars trailing junk",        // trailing tokens
      "SELECT * FROM stars WHERE name = 'open",   // unterminated string
      "SELECT * FROM stars WHERE field = 3000000000",  // int32 overflow
      "SELECT * FROM stars WHERE field = 1.5",    // float vs int column
      "SELECT * FROM stars WHERE name = 7",       // number vs string column
  };
  for (const char* query : bad_queries) {
    EXPECT_FALSE(parse_query(schema_, query).is_ok()) << query;
  }
  // Errors carry a position marker.
  const auto status =
      parse_query(schema_, "SELECT * FROM stars WHERE mag @ 5").status();
  EXPECT_NE(status.message().find("position"), std::string::npos);
}

TEST_F(SqlTest, EndToEndThroughPlanner) {
  Engine engine(schema_);
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .insert_row(txn, 0,
                                {Value::i64(i),
                                 Value::i32(static_cast<int32_t>(i % 5)),
                                 Value::f64(15.0 + static_cast<double>(i) * 0.1),
                                 Value::str("s" + std::to_string(i)),
                                 Value::timestamp(i * 1000)},
                                costs)
                    .is_ok());
  }
  ASSERT_TRUE(engine.commit(txn).is_ok());

  QueryPlanner planner(engine);
  const auto spec = parse_query(
      schema_,
      "SELECT * FROM stars WHERE field = 2 AND mag < 20 ORDER BY mag LIMIT 3");
  ASSERT_TRUE(spec.is_ok());
  const auto result = planner.execute(*spec);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->plan, "INDEX RANGE idx_field_mag");
  ASSERT_EQ(result->rows.size(), 3u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_LE(result->rows[i - 1][2].as_f64(), result->rows[i][2].as_f64());
  }
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[1].as_i32(), 2);
    EXPECT_LT(row[2].as_f64(), 20.0);
  }
}

TEST_F(SqlTest, KeywordsAreCaseInsensitive) {
  const auto spec = parse_query(
      schema_, "SeLeCt * FrOm stars WhErE mag > 1 oRdEr By mag AsC lImIt 5");
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_FALSE(spec->descending);
  EXPECT_EQ(spec->limit, 5);
}

}  // namespace
}  // namespace sky::db
