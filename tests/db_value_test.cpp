// Tests for typed values, the row codec, and schema validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "db/row.h"
#include "db/schema.h"
#include "db/value.h"

namespace sky::db {
namespace {

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, NullBasics) {
  const Value v = Value::null();
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(v.matches(ColumnType::kInt64));
  EXPECT_TRUE(v.matches(ColumnType::kString));
  EXPECT_EQ(v.to_display(), "NULL");
  EXPECT_FALSE(v.numeric().is_ok());
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::i32(-5).as_i32(), -5);
  EXPECT_EQ(Value::i64(1LL << 40).as_i64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::f64(2.5).as_f64(), 2.5);
  EXPECT_EQ(Value::str("abc").as_str(), "abc");
  EXPECT_EQ(Value::timestamp(123456).as_i64(), 123456);
}

TEST(ValueTest, TypeMatching) {
  EXPECT_TRUE(Value::i32(1).matches(ColumnType::kInt32));
  EXPECT_FALSE(Value::i32(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::i64(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::i64(1).matches(ColumnType::kTimestamp));
  EXPECT_FALSE(Value::f64(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::str("x").matches(ColumnType::kString));
  EXPECT_FALSE(Value::str("x").matches(ColumnType::kDouble));
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value::i32(-4).numeric().value(), -4.0);
  EXPECT_DOUBLE_EQ(Value::i64(10).numeric().value(), 10.0);
  EXPECT_DOUBLE_EQ(Value::f64(0.5).numeric().value(), 0.5);
  EXPECT_FALSE(Value::str("no").numeric().is_ok());
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::null().compare(Value::i64(0)), 0);
  EXPECT_EQ(Value::null().compare(Value::null()), 0);
  EXPECT_LT(Value::i64(1).compare(Value::i64(2)), 0);
  EXPECT_GT(Value::i64(2).compare(Value::i64(1)), 0);
  EXPECT_EQ(Value::f64(1.5).compare(Value::f64(1.5)), 0);
  EXPECT_LT(Value::str("a").compare(Value::str("b")), 0);
  // Cross numeric kinds compare by value.
  EXPECT_EQ(Value::i32(3).compare(Value::f64(3.0)), 0);
  EXPECT_LT(Value::i64(2).compare(Value::f64(2.5)), 0);
}

TEST(ValueTest, ParseAs) {
  EXPECT_EQ(Value::parse_as(ColumnType::kInt32, "42")->as_i32(), 42);
  EXPECT_EQ(Value::parse_as(ColumnType::kInt64, "-9")->as_i64(), -9);
  EXPECT_DOUBLE_EQ(Value::parse_as(ColumnType::kDouble, "1.25")->as_f64(),
                   1.25);
  EXPECT_EQ(Value::parse_as(ColumnType::kString, " padded ")->as_str(),
            "padded");
  EXPECT_EQ(Value::parse_as(ColumnType::kTimestamp, "1000")->as_i64(), 1000);
}

TEST(ValueTest, ParseNullMarkers) {
  EXPECT_TRUE(Value::parse_as(ColumnType::kInt64, "")->is_null());
  EXPECT_TRUE(Value::parse_as(ColumnType::kDouble, "NULL")->is_null());
  EXPECT_TRUE(Value::parse_as(ColumnType::kString, "\\N")->is_null());
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::parse_as(ColumnType::kInt32, "abc").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kInt32, "99999999999").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kDouble, "1.2.3").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kDouble, "nan").is_ok());
}

// One value of every kind, strings short, long (past any small-string
// buffer), empty and with embedded NULs.
std::vector<Value> every_kind() {
  return {Value::null(),
          Value::i32(-7),
          Value::i64(1LL << 50),
          Value::f64(-0.125),
          Value::timestamp(1234567),
          Value::str(""),
          Value::str("palomar"),
          Value::str(std::string(100, 'q')),
          Value::str(std::string("a\0b\0", 4))};
}

// Same kind and same bytes (compare() alone equates 3 and 3.0).
void expect_identical(const Value& got, const Value& want) {
  ASSERT_EQ(got.is_null(), want.is_null());
  ASSERT_EQ(got.is_i32(), want.is_i32());
  ASSERT_EQ(got.is_i64(), want.is_i64());
  ASSERT_EQ(got.is_f64(), want.is_f64());
  ASSERT_EQ(got.is_str(), want.is_str());
  if (want.is_str()) {
    EXPECT_EQ(got.as_str(), want.as_str());
  } else {
    EXPECT_EQ(got.compare(want), 0);
  }
}

TEST(ValueTest, CopyAndMoveEveryKind) {
  for (const Value& want : every_kind()) {
    const Value copied(want);
    expect_identical(copied, want);
    Value moved_from(want);
    const Value moved(std::move(moved_from));
    expect_identical(moved, want);
    // Assignment onto a target of every kind, by copy and by move.
    for (const Value& target : every_kind()) {
      Value assigned = target;
      assigned = want;
      expect_identical(assigned, want);
      Value move_assigned = target;
      Value source = want;
      move_assigned = std::move(source);
      expect_identical(move_assigned, want);
    }
    Value self = want;
    const Value& alias = self;
    self = alias;
    expect_identical(self, want);
  }
}

TEST(ValueTest, CopiesAreIndependent) {
  Value original = Value::str("first");
  const Value copy = original;
  original = Value::str("second");
  EXPECT_EQ(copy.as_str(), "first");
  EXPECT_EQ(original.as_str(), "second");
}

TEST(ValueTest, MovedFromStringIsSafe) {
  Value from = Value::str(std::string(64, 'z'));
  Value to = std::move(from);
  EXPECT_EQ(to.as_str(), std::string(64, 'z'));
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_TRUE(from.is_str());
  EXPECT_TRUE(from.as_str().empty());
  EXPECT_EQ(from.to_display(), "");
  const Value copy = from;
  EXPECT_TRUE(copy.as_str().empty());
  const Value& alias = from;
  from = alias;
  EXPECT_TRUE(from.as_str().empty());
  to = std::move(from);  // a husk moved onto a live string
  EXPECT_TRUE(to.as_str().empty());
  from = Value::str("again");
  EXPECT_EQ(from.as_str(), "again");
  Value husk = Value::str("x");
  const Value sink = std::move(husk);
  husk = Value::i64(3);
  EXPECT_EQ(husk.as_i64(), 3);
  // NOLINTEND(bugprone-use-after-move)
}

TEST(ValueTest, WrongKindAccessorThrows) {
  EXPECT_THROW((void)Value::null().as_i64(), std::bad_variant_access);
  EXPECT_THROW((void)Value::i32(1).as_i64(), std::bad_variant_access);
  EXPECT_THROW((void)Value::i64(1).as_i32(), std::bad_variant_access);
  EXPECT_THROW((void)Value::i64(1).as_f64(), std::bad_variant_access);
  EXPECT_THROW((void)Value::f64(1).as_str(), std::bad_variant_access);
  EXPECT_THROW((void)Value::str("s").as_i32(), std::bad_variant_access);
  EXPECT_THROW((void)Value::str("s").as_f64(), std::bad_variant_access);
}

// ------------------------------------------------------------- row codec ---

TEST(RowCodecTest, RoundTripAllKinds) {
  const Row row = {Value::null(), Value::i32(-7), Value::i64(1LL << 50),
                   Value::f64(-0.125), Value::str("palomar"),
                   Value::str(std::string("\0\x01", 2))};
  const auto decoded = decode_row(encode_row(row));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i].compare(row[i]), 0) << i;
  }
}

TEST(RowCodecTest, EmptyRow) {
  const auto decoded = decode_row(encode_row({}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RowCodecTest, RejectsCorruption) {
  const Row row = {Value::i64(5), Value::str("x")};
  std::string bytes = encode_row(row);
  EXPECT_FALSE(decode_row(bytes.substr(0, bytes.size() - 1)).is_ok());
  EXPECT_FALSE(decode_row(bytes + "junk").is_ok());
  std::string bad_kind = bytes;
  bad_kind[4] = '\x7F';
  EXPECT_FALSE(decode_row(bad_kind).is_ok());
  EXPECT_FALSE(decode_row("").is_ok());
}

TEST(RowCodecTest, RejectsOversizedColumnCount) {
  // A count no remaining byte could back is refused before any allocation.
  const auto huge = decode_row("\xff\xff\xff\xff");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_EQ(huge.status().code(), ErrorCode::kParseError);
  std::string two_claimed = encode_row({Value::null()});
  two_claimed[0] = '\x02';
  const auto short_row = decode_row(two_claimed);
  ASSERT_FALSE(short_row.is_ok());
  EXPECT_EQ(short_row.status().code(), ErrorCode::kParseError);
}

TEST(RowCodecTest, PreservesDoubleBits) {
  const Row row = {Value::f64(std::numeric_limits<double>::denorm_min()),
                   Value::f64(-0.0),
                   Value::f64(std::numeric_limits<double>::infinity())};
  const auto decoded = decode_row(encode_row(row));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(std::signbit((*decoded)[1].as_f64()), true);
  EXPECT_TRUE(std::isinf((*decoded)[2].as_f64()));
}

class RowCodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowCodecFuzz, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    Row row;
    const int64_t columns = rng.uniform_int(0, 12);
    for (int64_t c = 0; c < columns; ++c) {
      switch (rng.uniform_int(0, 4)) {
        case 0: row.push_back(Value::null()); break;
        case 1:
          row.push_back(Value::i32(static_cast<int32_t>(
              rng.uniform_int(INT32_MIN, INT32_MAX))));
          break;
        case 2:
          row.push_back(Value::i64(static_cast<int64_t>(rng.next_u64())));
          break;
        case 3: row.push_back(Value::f64(rng.normal(0, 1e9))); break;
        default:
          row.push_back(Value::str(rng.ident(
              static_cast<size_t>(rng.uniform_int(0, 30)))));
      }
    }
    auto decoded = decode_row(encode_row(row));
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ((*decoded)[i].compare(row[i]), 0);
    }
    // Copies of a decoded row own their strings: they outlive the decoded
    // row and re-encode to the same bytes.
    Row copy = *decoded;
    Row assigned;
    assigned = copy;
    const Row moved = std::move(*decoded);
    decoded = Row{};
    EXPECT_EQ(encode_row(copy), encode_row(row));
    EXPECT_EQ(encode_row(assigned), encode_row(row));
    EXPECT_EQ(encode_row(moved), encode_row(row));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecFuzz, ::testing::Values(7, 8, 9));

// ---------------------------------------------------------------- Schema ---

TableDef simple_table(std::string name) {
  TableDef def;
  def.name = std::move(name);
  def.col("id", ColumnType::kInt64, false);
  def.col("payload", ColumnType::kString);
  def.primary_key = {"id"};
  return def;
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("alpha")).is_ok());
  ASSERT_TRUE(schema.add_table(simple_table("beta")).is_ok());
  EXPECT_EQ(schema.table_count(), 2);
  EXPECT_TRUE(schema.has_table("alpha"));
  EXPECT_FALSE(schema.has_table("gamma"));
  EXPECT_EQ(schema.table_id("beta").value(), 1u);
  EXPECT_EQ(schema.table(0).name, "alpha");
  EXPECT_FALSE(schema.table_id("gamma").is_ok());
}

TEST(SchemaTest, RejectsDuplicatesAndEmpties) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("t")).is_ok());
  EXPECT_EQ(schema.add_table(simple_table("t")).code(),
            ErrorCode::kAlreadyExists);
  TableDef empty;
  empty.name = "empty";
  EXPECT_FALSE(schema.add_table(empty).is_ok());
  TableDef unnamed = simple_table("");
  EXPECT_FALSE(schema.add_table(unnamed).is_ok());
}

TEST(SchemaTest, RejectsMissingOrDuplicateColumns) {
  Schema schema;
  TableDef def = simple_table("t");
  def.col("payload", ColumnType::kInt32);  // duplicate name
  EXPECT_FALSE(schema.add_table(def).is_ok());

  TableDef no_pk_col = simple_table("u");
  no_pk_col.primary_key = {"ghost"};
  EXPECT_FALSE(schema.add_table(no_pk_col).is_ok());

  TableDef no_pk = simple_table("v");
  no_pk.primary_key.clear();
  EXPECT_FALSE(schema.add_table(no_pk).is_ok());
}

TEST(SchemaTest, PkColumnsBecomeNotNull) {
  Schema schema;
  TableDef def = simple_table("t");  // declares id nullable=false already
  def.columns[0].nullable = true;    // sneaky: PK column marked nullable
  ASSERT_TRUE(schema.add_table(def).is_ok());
  EXPECT_FALSE(schema.table(0).columns[0].nullable);
}

TEST(SchemaTest, FkValidation) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("parent")).is_ok());

  TableDef child = simple_table("child");
  child.col("parent_id", ColumnType::kInt64);
  child.foreign_keys.push_back(ForeignKey{{"parent_id"}, "parent"});
  ASSERT_TRUE(schema.add_table(child).is_ok());

  // FK to an undeclared table fails (declaration order is the topo order).
  TableDef orphan = simple_table("orphan");
  orphan.col("missing_id", ColumnType::kInt64);
  orphan.foreign_keys.push_back(ForeignKey{{"missing_id"}, "nonexistent"});
  EXPECT_FALSE(schema.add_table(orphan).is_ok());

  // A self-referential FK fails: a table cannot name itself before it is
  // declared. The engine's insert paths rely on every FK parent being
  // another, earlier table.
  TableDef self = simple_table("self");
  self.col("parent_id", ColumnType::kInt64);
  self.foreign_keys.push_back(ForeignKey{{"parent_id"}, "self"});
  EXPECT_FALSE(schema.add_table(self).is_ok());
  EXPECT_FALSE(schema.has_table("self"));

  // FK type mismatch fails.
  TableDef mismatched = simple_table("mismatched");
  mismatched.col("parent_id", ColumnType::kInt32);
  mismatched.foreign_keys.push_back(ForeignKey{{"parent_id"}, "parent"});
  EXPECT_FALSE(schema.add_table(mismatched).is_ok());

  // FK arity mismatch fails.
  TableDef wide = simple_table("wide");
  wide.col("a", ColumnType::kInt64);
  wide.col("b", ColumnType::kInt64);
  wide.foreign_keys.push_back(ForeignKey{{"a", "b"}, "parent"});
  EXPECT_FALSE(schema.add_table(wide).is_ok());
}

TEST(SchemaTest, IndexAndCheckValidation) {
  Schema schema;
  TableDef def = simple_table("t");
  def.col("mag", ColumnType::kDouble);
  def.indexes.push_back(IndexDef{"idx_mag", {"mag"}, {}});
  def.checks.push_back(CheckConstraint{"mag", -5.0, 40.0});
  ASSERT_TRUE(schema.add_table(def).is_ok());

  TableDef bad_index = simple_table("u");
  bad_index.indexes.push_back(IndexDef{"idx", {"ghost"}, {}});
  EXPECT_FALSE(schema.add_table(bad_index).is_ok());

  TableDef dup_index = simple_table("v");
  dup_index.col("m", ColumnType::kDouble);
  dup_index.indexes.push_back(IndexDef{"i", {"m"}, {}});
  dup_index.indexes.push_back(IndexDef{"i", {"m"}, {}});
  EXPECT_FALSE(schema.add_table(dup_index).is_ok());

  TableDef string_check = simple_table("w");
  string_check.checks.push_back(CheckConstraint{"payload", 0.0, 1.0});
  EXPECT_FALSE(schema.add_table(string_check).is_ok());

  TableDef ghost_check = simple_table("x");
  ghost_check.checks.push_back(CheckConstraint{"ghost", 0.0, 1.0});
  EXPECT_FALSE(schema.add_table(ghost_check).is_ok());
}

TEST(SchemaTest, TopologicalOrderAndEdges) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("a")).is_ok());
  TableDef b = simple_table("b");
  b.col("a_id", ColumnType::kInt64);
  b.foreign_keys.push_back(ForeignKey{{"a_id"}, "a"});
  ASSERT_TRUE(schema.add_table(b).is_ok());
  TableDef c = simple_table("c");
  c.col("b_id", ColumnType::kInt64);
  c.col("a_id", ColumnType::kInt64);
  c.foreign_keys.push_back(ForeignKey{{"b_id"}, "b"});
  c.foreign_keys.push_back(ForeignKey{{"a_id"}, "a"});
  ASSERT_TRUE(schema.add_table(c).is_ok());

  const auto order = schema.topological_order();
  ASSERT_EQ(order.size(), 3u);
  // Parents appear before children.
  EXPECT_LT(order[0], order[1]);
  EXPECT_LT(order[1], order[2]);

  const auto edges = schema.fk_edges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [child, parent] : edges) EXPECT_GT(child, parent);
}

}  // namespace
}  // namespace sky::db
