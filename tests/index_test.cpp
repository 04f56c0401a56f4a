// Tests for the order-preserving key codec and the B+tree: unit behaviour,
// structural invariants, and randomized differential tests against std::map.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/bptree.h"
#include "index/key_codec.h"

namespace sky::index {
namespace {

std::string enc_i64(int64_t v) { return KeyEncoder().append_int64(v).take(); }
std::string enc_i32(int32_t v) { return KeyEncoder().append_int32(v).take(); }
std::string enc_f64(double v) { return KeyEncoder().append_double(v).take(); }
std::string enc_str(std::string_view v) {
  return KeyEncoder().append_string(v).take();
}

// ------------------------------------------------------------- key codec ---

TEST(KeyCodecTest, Int64OrderPreserved) {
  const std::vector<int64_t> values = {
      std::numeric_limits<int64_t>::min(), -1000, -1, 0, 1, 42, 1000,
      std::numeric_limits<int64_t>::max()};
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(enc_i64(values[i - 1]), enc_i64(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

TEST(KeyCodecTest, Int32OrderPreserved) {
  const std::vector<int32_t> values = {
      std::numeric_limits<int32_t>::min(), -7, 0, 7,
      std::numeric_limits<int32_t>::max()};
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(enc_i32(values[i - 1]), enc_i32(values[i]));
  }
}

TEST(KeyCodecTest, DoubleOrderPreserved) {
  const std::vector<double> values = {
      -std::numeric_limits<double>::infinity(), -1e300, -2.5, -1e-300,
      0.0, 1e-300, 1.0, 2.5, 1e300,
      std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(enc_f64(values[i - 1]), enc_f64(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

// The exact bytes of the fixed-width fields at their edges: stored keys,
// snapshot key runs and FK probes all compare these bytes.
TEST(KeyCodecTest, FixedWidthGoldenBytes) {
  const auto bytes = [](std::initializer_list<unsigned> list) {
    std::string out;
    for (const unsigned b : list) out.push_back(static_cast<char>(b));
    return out;
  };
  EXPECT_EQ(enc_i64(std::numeric_limits<int64_t>::min()),
            bytes({1, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(enc_i64(std::numeric_limits<int64_t>::max()),
            bytes({1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc_i64(-2), bytes({1, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                0xFE}));
  EXPECT_EQ(enc_i32(std::numeric_limits<int32_t>::min()),
            bytes({1, 0, 0, 0, 0}));
  EXPECT_EQ(enc_i32(std::numeric_limits<int32_t>::max()),
            bytes({1, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc_i32(258), bytes({1, 0x80, 0, 0x01, 0x02}));
  EXPECT_EQ(enc_f64(0.0), bytes({1, 0x80, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(enc_f64(-0.0),
            bytes({1, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc_f64(std::numeric_limits<double>::infinity()),
            bytes({1, 0xFF, 0xF0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(enc_f64(-std::numeric_limits<double>::infinity()),
            bytes({1, 0x00, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc_f64(std::numeric_limits<double>::quiet_NaN()),
            bytes({1, 0xFF, 0xF8, 0, 0, 0, 0, 0, 0}));
  // Fields append in order, each with its own tag.
  EXPECT_EQ(KeyEncoder().append_int32(-1).append_null().append_int64(1).take(),
            bytes({1, 0x7F, 0xFF, 0xFF, 0xFF, 0, 1, 0x80, 0, 0, 0, 0, 0, 0,
                   0x01}));
}

TEST(KeyCodecTest, StringOrderPreservedIncludingEmbeddedNul) {
  const std::vector<std::string> values = {
      std::string(), std::string("\0", 1), std::string("\0a", 2), "a",
      std::string("a\0", 2), std::string("a\0b", 3), "ab", "b"};
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(enc_str(values[i - 1]), enc_str(values[i])) << i;
  }
}

TEST(KeyCodecTest, NullSortsBeforeValues) {
  const std::string null_key = KeyEncoder().append_null().take();
  EXPECT_LT(null_key, enc_i64(std::numeric_limits<int64_t>::min()));
  EXPECT_LT(null_key, enc_f64(-std::numeric_limits<double>::infinity()));
  EXPECT_LT(null_key, enc_str(""));
}

TEST(KeyCodecTest, CompositeOrderIsFieldMajor) {
  auto make = [](int64_t a, double b) {
    return KeyEncoder().append_int64(a).append_double(b).take();
  };
  EXPECT_LT(make(1, 9.0), make(2, 0.0));
  EXPECT_LT(make(2, 0.0), make(2, 1.0));
  EXPECT_LT(make(-5, 100.0), make(0, -100.0));
}

TEST(KeyCodecTest, StringNotPrefixOfLonger) {
  // "a" vs "ab" as *first* field; with a second field appended after "a",
  // ordering must still be decided by the first field alone.
  const std::string k1 = KeyEncoder().append_string("a").append_int64(
      std::numeric_limits<int64_t>::max()).take();
  const std::string k2 = KeyEncoder().append_string("ab").append_int64(
      std::numeric_limits<int64_t>::min()).take();
  EXPECT_LT(k1, k2);
}

TEST(KeyCodecTest, RoundTripInt64) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-42},
                    int64_t{0}, int64_t{7}, std::numeric_limits<int64_t>::max()}) {
    const std::string key = enc_i64(v);  // the decoder views it
    KeyDecoder dec(key);
    const auto decoded = dec.decode_int64();
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_TRUE(decoded->has_value());
    EXPECT_EQ(**decoded, v);
    EXPECT_TRUE(dec.at_end());
  }
}

TEST(KeyCodecTest, RoundTripDouble) {
  for (double v : {-1e300, -2.5, 0.0, 3.25, 1e300}) {
    const std::string key = enc_f64(v);  // the decoder views it
    KeyDecoder dec(key);
    const auto decoded = dec.decode_double();
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_TRUE(decoded->has_value());
    EXPECT_DOUBLE_EQ(**decoded, v);
  }
}

TEST(KeyCodecTest, RoundTripString) {
  for (const std::string& v :
       {std::string(""), std::string("hello"), std::string("a\0b", 3),
        std::string("\0\0", 2)}) {
    const std::string key = enc_str(v);  // the decoder views it
    KeyDecoder dec(key);
    const auto decoded = dec.decode_string();
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_TRUE(decoded->has_value());
    EXPECT_EQ(**decoded, v);
    EXPECT_TRUE(dec.at_end());
  }
}

TEST(KeyCodecTest, RoundTripNullAndComposite) {
  const std::string key = KeyEncoder()
                              .append_null()
                              .append_int32(-9)
                              .append_string("x")
                              .take();
  KeyDecoder dec(key);
  const auto f1 = dec.decode_int64();  // NULL decodes under any type
  ASSERT_TRUE(f1.is_ok());
  EXPECT_FALSE(f1->has_value());
  const auto f2 = dec.decode_int32();
  ASSERT_TRUE(f2.is_ok());
  EXPECT_EQ(**f2, -9);
  const auto f3 = dec.decode_string();
  ASSERT_TRUE(f3.is_ok());
  EXPECT_EQ(**f3, "x");
  EXPECT_TRUE(dec.at_end());
}

TEST(KeyCodecTest, DecoderRejectsTruncation) {
  const std::string key = enc_i64(5);
  const std::string truncated = key.substr(0, key.size() - 2);
  KeyDecoder dec(truncated);
  EXPECT_FALSE(dec.decode_int64().is_ok());
  KeyDecoder empty(std::string_view{});
  EXPECT_FALSE(empty.decode_int32().is_ok());
}

// Property: encoding order equals value order for random int64/double pairs.
class KeyCodecOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyCodecOrderProperty, RandomInt64PairsOrdered) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const int64_t a = static_cast<int64_t>(rng.next_u64());
    const int64_t b = static_cast<int64_t>(rng.next_u64());
    EXPECT_EQ(a < b, enc_i64(a) < enc_i64(b));
    EXPECT_EQ(a == b, enc_i64(a) == enc_i64(b));
  }
}

TEST_P(KeyCodecOrderProperty, RandomDoublePairsOrdered) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.normal(0, 1e6);
    const double b = rng.normal(0, 1e6);
    EXPECT_EQ(a < b, enc_f64(a) < enc_f64(b)) << a << " " << b;
  }
}

TEST_P(KeyCodecOrderProperty, RandomStringPairsOrdered) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    std::string a, b;
    const char alphabet[] = {'\x00', 'a', 'b', '\xff'};
    for (int64_t k = rng.uniform_int(0, 6); k > 0; --k) {
      a.push_back(alphabet[rng.uniform_int(0, 3)]);
    }
    for (int64_t k = rng.uniform_int(0, 6); k > 0; --k) {
      b.push_back(alphabet[rng.uniform_int(0, 3)]);
    }
    EXPECT_EQ(a < b, enc_str(a) < enc_str(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyCodecOrderProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------- B+tree ---

// One key as a one-entry sorted run: keys enter a live tree only as sorted
// runs.
Status insert_one(BPlusTree& tree, std::string key, uint64_t value) {
  std::vector<std::pair<std::string, uint64_t>> run;
  run.emplace_back(std::move(key), value);
  return tree.insert_sorted_run(std::move(run));
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(tree.contains("x"));
  EXPECT_FALSE(tree.lookup("x").has_value());
  EXPECT_FALSE(tree.begin().valid());
  EXPECT_TRUE(tree.validate().is_ok());
}

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree;
  ASSERT_TRUE(insert_one(tree, "b", 2).is_ok());
  ASSERT_TRUE(insert_one(tree, "a", 1).is_ok());
  ASSERT_TRUE(insert_one(tree, "c", 3).is_ok());
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.lookup("a").value(), 1u);
  EXPECT_EQ(tree.lookup("b").value(), 2u);
  EXPECT_EQ(tree.lookup("c").value(), 3u);
  EXPECT_FALSE(tree.lookup("d").has_value());
  EXPECT_TRUE(tree.validate().is_ok());
}

TEST(BPlusTreeTest, DuplicateInsertRejected) {
  BPlusTree tree;
  ASSERT_TRUE(insert_one(tree, "k", 1).is_ok());
  const size_t bytes = tree.approx_bytes();
  const Status dup = insert_one(tree, "k", 2);
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  // The tree is unchanged.
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.approx_bytes(), bytes);
  EXPECT_EQ(tree.lookup("k").value(), 1u);
  EXPECT_TRUE(tree.validate().is_ok());
  auto it = tree.begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), "k");
  it.next();
  EXPECT_FALSE(it.valid());
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree tree(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2);
  EXPECT_TRUE(tree.validate().is_ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tree.lookup(enc_i64(i)).value(), static_cast<uint64_t>(i));
  }
}

TEST(BPlusTreeTest, ReverseInsertionOrder) {
  BPlusTree tree(4);
  for (int i = 99; i >= 0; --i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  EXPECT_TRUE(tree.validate().is_ok());
  // In-order iteration yields sorted keys.
  int expected = 0;
  for (auto it = tree.begin(); it.valid(); it.next()) {
    EXPECT_EQ(it.key(), enc_i64(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 100);
}

TEST(BPlusTreeTest, SeekFindsFirstGreaterOrEqual) {
  BPlusTree tree;
  for (int i = 0; i < 50; i += 10) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  auto it = tree.seek(enc_i64(15));
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.value(), 20u);
  it = tree.seek(enc_i64(40));
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.value(), 40u);
  it = tree.seek(enc_i64(41));
  EXPECT_FALSE(it.valid());
}

TEST(BPlusTreeTest, IteratorReportsTheLeafOfEachEntry) {
  BPlusTree tree(8);
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 100; ++i) run.emplace_back(enc_i64(i), i);
  BPlusTree::RunTouch touch;
  ASSERT_TRUE(tree.insert_sorted_run(std::move(run), &touch).is_ok());
  // Walking every entry meets the leaves in tree order, one id per leaf.
  std::vector<uint32_t> walked;
  for (auto it = tree.begin(); it.valid(); it.next()) {
    if (walked.empty() || walked.back() != it.leaf_page_id()) {
      walked.push_back(it.leaf_page_id());
    }
  }
  EXPECT_GT(walked.size(), 10u);
  EXPECT_EQ(walked, touch.touched_leaf_ids);
  EXPECT_EQ(std::set<uint32_t>(walked.begin(), walked.end()).size(),
            walked.size());
}

TEST(BPlusTreeTest, RangeLookupHalfOpen) {
  BPlusTree tree;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  const auto hits = tree.range_lookup(enc_i64(10), enc_i64(20));
  ASSERT_EQ(hits.size(), 10u);
  EXPECT_EQ(hits.front(), 10u);
  EXPECT_EQ(hits.back(), 19u);
  // An empty upper bound reads to the end of the tree.
  const auto tail = tree.range_lookup(enc_i64(90), "");
  ASSERT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail.front(), 90u);
  EXPECT_EQ(tail.back(), 99u);
  EXPECT_EQ(tree.range_lookup("", "").size(), 100u);
  EXPECT_TRUE(tree.range_lookup(enc_i64(100), "").empty());
}

TEST(BPlusTreeTest, RangeLookupForNonUniqueEmulation) {
  // Non-unique secondary index: key = attribute || rowid. One attribute's
  // entries are the range [attr, attr + 1), as ReadView reads them.
  BPlusTree tree;
  for (uint64_t row = 0; row < 30; ++row) {
    const int64_t attr = static_cast<int64_t>(row % 3);
    const std::string key = KeyEncoder()
                                .append_int64(attr)
                                .append_int64(static_cast<int64_t>(row))
                                .take();
    ASSERT_TRUE(insert_one(tree, key, row).is_ok());
  }
  const auto hits = tree.range_lookup(enc_i64(1), enc_i64(2));
  EXPECT_EQ(hits.size(), 10u);
  for (uint64_t row : hits) EXPECT_EQ(row % 3, 1u);
  // The last attribute's range is unbounded above.
  const auto last = tree.range_lookup(enc_i64(2), "");
  EXPECT_EQ(last.size(), 10u);
  for (uint64_t row : last) EXPECT_EQ(row % 3, 2u);
}

TEST(BPlusTreeTest, EraseRemovesAndIterationSkips) {
  BPlusTree tree(4);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  for (int i = 0; i < 60; i += 2) {
    EXPECT_TRUE(tree.erase(enc_i64(i)));
  }
  EXPECT_FALSE(tree.erase(enc_i64(0)));  // already gone
  EXPECT_EQ(tree.size(), 30u);
  EXPECT_TRUE(tree.validate().is_ok());
  int expected = 1;
  for (auto it = tree.begin(); it.valid(); it.next()) {
    EXPECT_EQ(it.key(), enc_i64(expected));
    expected += 2;
  }
  EXPECT_EQ(expected, 61);
}

TEST(BPlusTreeTest, EraseEverything) {
  BPlusTree tree(4);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(tree.erase(enc_i64(i)));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.begin().valid());
  EXPECT_TRUE(tree.validate().is_ok());
  // Tree is still usable after full drain.
  ASSERT_TRUE(insert_one(tree, "again", 7).is_ok());
  EXPECT_EQ(tree.lookup("again").value(), 7u);
}

TEST(BPlusTreeTest, BulkBuildMatchesIncremental) {
  std::vector<std::pair<std::string, uint64_t>> sorted;
  for (int i = 0; i < 1000; ++i) {
    sorted.emplace_back(enc_i64(i * 3), static_cast<uint64_t>(i));
  }
  BPlusTree bulk(16);
  ASSERT_TRUE(bulk.bulk_build(sorted).is_ok());
  EXPECT_EQ(bulk.size(), 1000u);
  EXPECT_TRUE(bulk.validate().is_ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(bulk.lookup(enc_i64(i * 3)).value(), static_cast<uint64_t>(i));
    EXPECT_FALSE(bulk.contains(enc_i64(i * 3 + 1)));
  }
  // Insertions after bulk build keep working.
  ASSERT_TRUE(insert_one(bulk, enc_i64(1), 9999).is_ok());
  EXPECT_TRUE(bulk.validate().is_ok());
  EXPECT_EQ(bulk.size(), 1001u);
}

TEST(BPlusTreeTest, BulkBuildRejectsUnsorted) {
  BPlusTree tree;
  EXPECT_FALSE(tree.bulk_build({{"b", 1}, {"a", 2}}).is_ok());
  EXPECT_FALSE(tree.bulk_build({{"a", 1}, {"a", 2}}).is_ok());
}

TEST(BPlusTreeTest, BulkBuildEmpty) {
  BPlusTree tree;
  ASSERT_TRUE(insert_one(tree, "x", 1).is_ok());
  ASSERT_TRUE(tree.bulk_build({}).is_ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.contains("x"));
  EXPECT_TRUE(tree.validate().is_ok());
}

TEST(BPlusTreeTest, MoveSemantics) {
  BPlusTree tree;
  ASSERT_TRUE(insert_one(tree, "k", 5).is_ok());
  BPlusTree moved = std::move(tree);
  EXPECT_EQ(moved.lookup("k").value(), 5u);
}

TEST(BPlusTreeTest, ApproxBytesTracksGrowth) {
  BPlusTree tree;
  EXPECT_EQ(tree.approx_bytes(), 0u);
  ASSERT_TRUE(insert_one(tree, "abcd", 1).is_ok());
  const size_t after_one = tree.approx_bytes();
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(insert_one(tree, "efgh", 2).is_ok());
  EXPECT_GT(tree.approx_bytes(), after_one);
  tree.erase("abcd");
  EXPECT_LT(tree.approx_bytes(), after_one * 2);
}

// Differential property test: random interleavings of insert/erase/lookup
// against std::map, then full iteration comparison and validate().
struct TreeFuzzParams {
  uint64_t seed;
  int fanout;
  int operations;
};

class BPlusTreeFuzz : public ::testing::TestWithParam<TreeFuzzParams> {};

TEST_P(BPlusTreeFuzz, MatchesReferenceMap) {
  const auto& params = GetParam();
  Rng rng(params.seed);
  BPlusTree tree(params.fanout);
  std::map<std::string, uint64_t> reference;

  for (int op = 0; op < params.operations; ++op) {
    const int64_t key_int = rng.uniform_int(0, 500);
    const std::string key = enc_i64(key_int);
    const double action = rng.uniform();
    if (action < 0.6) {
      const uint64_t value = rng.next_u64();
      const Status status = insert_one(tree, key, value);
      if (reference.count(key) > 0) {
        EXPECT_EQ(status.code(), ErrorCode::kAlreadyExists);
      } else {
        EXPECT_TRUE(status.is_ok());
        reference[key] = value;
      }
    } else if (action < 0.8) {
      const bool erased = tree.erase(key);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    } else {
      const auto found = tree.lookup(key);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_FALSE(found.has_value());
      } else {
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(*found, it->second);
      }
    }
  }

  EXPECT_EQ(tree.size(), reference.size());
  ASSERT_TRUE(tree.validate().is_ok()) << tree.validate().to_string();
  auto it = tree.begin();
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), key);
    EXPECT_EQ(it.value(), value);
    it.next();
  }
  EXPECT_FALSE(it.valid());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BPlusTreeFuzz,
    ::testing::Values(TreeFuzzParams{1, 4, 3000}, TreeFuzzParams{2, 4, 3000},
                      TreeFuzzParams{3, 8, 5000}, TreeFuzzParams{4, 16, 5000},
                      TreeFuzzParams{5, 64, 8000},
                      TreeFuzzParams{6, 5, 4000}));

// Large sequential load exercising many levels.
TEST(BPlusTreeTest, LargeSequentialLoad) {
  BPlusTree tree(8);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(insert_one(tree, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  EXPECT_GE(tree.height(), 4);
  EXPECT_TRUE(tree.validate().is_ok());
  const auto all = tree.range_lookup(enc_i64(0), enc_i64(n));
  EXPECT_EQ(all.size(), static_cast<size_t>(n));
}

// ------------------------------------------------------ sorted-run insert ---

std::vector<std::pair<std::string, uint64_t>> make_run(
    std::initializer_list<int64_t> keys) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int64_t k : keys) run.emplace_back(enc_i64(k), static_cast<uint64_t>(k));
  return run;
}

TEST(BPlusTreeTest, SortedRunIntoEmptyTreeMatchesLoopInsert) {
  BPlusTree batch(4), loop(4);
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 500; ++i) {
    run.emplace_back(enc_i64(i), static_cast<uint64_t>(i * 10));
    ASSERT_TRUE(
        insert_one(loop, enc_i64(i), static_cast<uint64_t>(i * 10)).is_ok());
  }
  ASSERT_TRUE(batch.insert_sorted_run(std::move(run)).is_ok());
  EXPECT_TRUE(batch.validate().is_ok());
  EXPECT_EQ(batch.size(), loop.size());
  // Identical iteration order and payloads.
  auto a = batch.begin();
  auto b = loop.begin();
  while (a.valid() && b.valid()) {
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.value(), b.value());
    a.next();
    b.next();
  }
  EXPECT_FALSE(a.valid());
  EXPECT_FALSE(b.valid());
}

TEST(BPlusTreeTest, SortedRunInterleavesWithExistingKeys) {
  BPlusTree batch(4), loop(4);
  for (int i = 0; i < 300; i += 2) {  // evens pre-loaded in both trees
    ASSERT_TRUE(
        insert_one(batch, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
    ASSERT_TRUE(insert_one(loop, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  std::vector<std::pair<std::string, uint64_t>> odds;
  for (int i = 1; i < 300; i += 2) {
    odds.emplace_back(enc_i64(i), static_cast<uint64_t>(i));
    ASSERT_TRUE(insert_one(loop, enc_i64(i), static_cast<uint64_t>(i)).is_ok());
  }
  BPlusTree::RunTouch touch;
  ASSERT_TRUE(batch.insert_sorted_run(std::move(odds), &touch).is_ok());
  EXPECT_TRUE(batch.validate().is_ok());
  EXPECT_EQ(batch.size(), loop.size());
  EXPECT_GT(touch.nodes_visited, 0);
  EXPECT_FALSE(touch.touched_leaf_ids.empty());
  auto a = batch.begin();
  auto b = loop.begin();
  while (a.valid() && b.valid()) {
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.value(), b.value());
    a.next();
    b.next();
  }
  EXPECT_FALSE(a.valid());
  EXPECT_FALSE(b.valid());
}

TEST(BPlusTreeTest, SortedRunSharesDescentAcrossTheRun) {
  // The point of the batch build: N keys cost ~one descent plus the touched
  // leaves, not N root-to-leaf descents.
  BPlusTree tree(4);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        insert_one(tree, enc_i64(i * 3), static_cast<uint64_t>(i)).is_ok());
  }
  std::vector<std::pair<std::string, uint64_t>> run;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    run.emplace_back(enc_i64(10000 + i * 3 + 1), static_cast<uint64_t>(i));
  }
  BPlusTree::RunTouch touch;
  ASSERT_TRUE(tree.insert_sorted_run(std::move(run), &touch).is_ok());
  EXPECT_TRUE(tree.validate().is_ok());
  // Far fewer nodes visited than n descents of the tree's height would cost.
  EXPECT_LT(touch.nodes_visited, n * tree.height() / 4);
}

TEST(BPlusTreeTest, SortedRunRejectsUnsortedInputUnmodified) {
  BPlusTree tree(4);
  ASSERT_TRUE(tree.insert_sorted_run(make_run({1, 2, 3})).is_ok());
  const Status bad = tree.insert_sorted_run(make_run({10, 9}));
  EXPECT_EQ(bad.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_TRUE(tree.validate().is_ok());
  EXPECT_FALSE(tree.contains(enc_i64(10)));
}

TEST(BPlusTreeTest, SortedRunDuplicateAgainstTreeReported) {
  BPlusTree tree(4);
  ASSERT_TRUE(tree.insert_sorted_run(make_run({1, 5, 9})).is_ok());
  const Status dup = tree.insert_sorted_run(make_run({4, 5, 6}));
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  // Structurally valid either way (the engine treats this as a logic error
  // screened out before the latched publish).
  EXPECT_TRUE(tree.validate().is_ok());
}

TEST(BPlusTreeTest, SortedRunDuplicateBelowTheRootLeavesTheTreeValid) {
  // The duplicate sits in a leaf two levels down, after leaves that take
  // their slices first: every internal node on the way is still rebuilt
  // whole, and the counters agree with what the tree holds.
  BPlusTree tree(4);
  std::vector<std::pair<std::string, uint64_t>> evens;
  for (int i = 0; i < 200; i += 2) evens.emplace_back(enc_i64(i), i);
  ASSERT_TRUE(tree.insert_sorted_run(std::move(evens)).is_ok());
  ASSERT_GT(tree.height(), 2);
  const Status dup = tree.insert_sorted_run(make_run({1, 3, 151, 152, 153}));
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(tree.validate().is_ok()) << tree.validate().to_string();
  size_t walked = 0;
  for (auto it = tree.begin(); it.valid(); it.next()) ++walked;
  EXPECT_EQ(tree.size(), walked);
  EXPECT_TRUE(tree.contains(enc_i64(1)));
  EXPECT_FALSE(tree.contains(enc_i64(153)));
  EXPECT_EQ(tree.lookup(enc_i64(152)).value(), 152u);
}

TEST(BPlusTreeTest, SortedRunDuplicateWithinRunReported) {
  BPlusTree tree(4);
  const Status dup = tree.insert_sorted_run(make_run({7, 7}));
  EXPECT_EQ(dup.code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(tree.validate().is_ok());
}

TEST(BPlusTreeTest, SortedRunEmptyIsANoOp) {
  BPlusTree tree(4);
  ASSERT_TRUE(insert_one(tree, enc_i64(1), 1).is_ok());
  ASSERT_TRUE(tree.insert_sorted_run({}).is_ok());
  EXPECT_EQ(tree.size(), 2u - 1u);
  EXPECT_TRUE(tree.validate().is_ok());
}

}  // namespace
}  // namespace sky::index
