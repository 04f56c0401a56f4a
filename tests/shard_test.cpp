// Multi-engine scale-out battery: the HTM-range router's ownership property
// (every row lands on the shard whose trixel slice contains it, boundary
// trixels included), scatter-gather reads byte-identical to a single-shard
// oracle (every range spelling, pk_lookup, scan_heap, cone_search), batch run-splitting under
// the JDBC prefix contract (row and columnar paths), equal-frequency
// boundary planning holding skew under 1.5 on a clustered footprint, and
// cross-shard FK reconciliation (convergence and orphan detection).
#include "shard/sharded_repository.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/spatial.h"
#include "htm/htm.h"
#include "index/key_codec.h"

namespace sky::db {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr int kIndexDepth = 12;

// objects routes by position (rule 1: the HTM index); detections carry no
// position and route block-cyclically on their int64 PK (rule 4), with an
// FK into objects — the cross-shard edge reconciliation must close.
Schema test_schema() {
  Schema schema;
  TableDef obj;
  obj.name = "obj";
  obj.col("id", ColumnType::kInt64, false);
  obj.col("ra", ColumnType::kDouble, false);
  obj.col("dec", ColumnType::kDouble, false);
  obj.primary_key = {"id"};
  obj.indexes.push_back(
      IndexDef{"ix_htm", {}, HtmIndexSpec{"ra", "dec", kIndexDepth}});
  obj.indexes.push_back(IndexDef{"ix_dec", {"dec"}, {}});
  EXPECT_TRUE(schema.add_table(obj).is_ok());
  TableDef det;
  det.name = "det";
  det.col("id", ColumnType::kInt64, false);
  det.col("object_id", ColumnType::kInt64, false);
  det.col("flux", ColumnType::kDouble, true);
  det.primary_key = {"id"};
  det.foreign_keys.push_back(ForeignKey{{"object_id"}, "obj"});
  EXPECT_TRUE(schema.add_table(det).is_ok());
  return schema;
}

EngineOptions sharded_options(int shards,
                              std::vector<uint64_t> boundaries = {}) {
  EngineOptions options;
  options.policies.shard.shard_count = shards;
  options.policies.shard.boundaries = std::move(boundaries);
  return options;
}

// Clustered positions like the survey footprint: a band, not the full sky.
void band_catalog(Rng& rng, size_t n, std::vector<double>* ra,
                  std::vector<double>* dec) {
  for (size_t i = 0; i < n; ++i) {
    ra->push_back(rng.uniform_range(0.0, 315.0));
    dec->push_back(std::asin(rng.uniform_range(
                       std::sin(-20.0 * kPi / 180.0),
                       std::sin(20.0 * kPi / 180.0))) *
                   180.0 / kPi);
  }
}

std::vector<Row> object_rows(const std::vector<double>& ra,
                             const std::vector<double>& dec,
                             int64_t id_base = 0) {
  std::vector<Row> rows;
  rows.reserve(ra.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    rows.push_back({Value::i64(id_base + static_cast<int64_t>(i)),
                    Value::f64(ra[i]), Value::f64(dec[i])});
  }
  return rows;
}

void expect_rows_identical(const std::vector<Row>& a,
                           const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "row " << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_EQ(a[i][c].compare(b[i][c]), 0)
          << "row " << i << " column " << c;
    }
  }
}

TEST(ShardRouterTest, EveryRowLandsOnItsTrixelOwner) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(4));
  const uint32_t obj = repo.schema().table_id("obj").value();

  Rng rng(0x5AD0001);
  std::vector<double> ra, dec;
  band_catalog(rng, 400, &ra, &dec);
  auto session = repo.make_session();
  ASSERT_TRUE(session->prepare_insert("obj").is_ok());
  const auto outcome = session->execute_batch(obj, object_rows(ra, dec));
  ASSERT_FALSE(outcome.error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  const ShardRouter& router = repo.router();
  const int depth = router.policy().htm_depth;
  int64_t seen = 0;
  const ShardedReadView view = repo.read_view();
  for (int s = 0; s < repo.shard_count(); ++s) {
    const htm::IdRange range = router.shard_range(s);
    const std::vector<Row> rows =
        view.shard_view(s).scan_collect(obj, [](const Row&) { return true; });
    for (const Row& row : rows) {
      const uint64_t trixel =
          htm::htm_id_radec(row[1].as_f64(), row[2].as_f64(), depth);
      EXPECT_GE(trixel, range.first);
      EXPECT_LT(trixel, range.last);
      EXPECT_EQ(router.shard_of_trixel(trixel), s);
      ++seen;
    }
  }
  EXPECT_EQ(seen, static_cast<int64_t>(ra.size()));
  EXPECT_EQ(repo.total_rows(), static_cast<int64_t>(ra.size()));
}

TEST(ShardRouterTest, BoundaryTrixelsBelongToTheUpperShard) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(4));
  const ShardRouter& router = repo.router();
  for (int s = 1; s < router.shard_count(); ++s) {
    const uint64_t boundary = router.shard_range(s).first;
    // A slice's first trixel is inclusive; its predecessor belongs below.
    EXPECT_EQ(router.shard_of_trixel(boundary), s);
    EXPECT_EQ(router.shard_of_trixel(boundary - 1), s - 1);
    // Descendants of a boundary trixel (deeper ids sharing its bit prefix)
    // stay with the boundary's shard.
    EXPECT_EQ(router.shard_of_trixel(boundary * 4 + 3), s);
  }
}

TEST(ShardRouterTest, SegmentsCoverRangeExactlyAtIndexDepth) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(4));
  const ShardRouter& router = repo.router();
  // A range spanning the whole id space at the index depth must split into
  // contiguous, non-overlapping, ascending per-shard segments.
  const uint64_t lo = 8ull << (2 * kIndexDepth);
  const uint64_t hi = 16ull << (2 * kIndexDepth);
  const auto segments = router.segments_for_range(lo, hi, kIndexDepth);
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().first, lo);
  EXPECT_EQ(segments.back().last, hi);
  for (size_t i = 1; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].first, segments[i - 1].last);
    EXPECT_NE(segments[i].shard, segments[i - 1].shard);
  }
}

TEST(ShardRouterTest, PlannedBoundariesHoldSkewUnderClusteredLoad) {
  const Schema schema = test_schema();
  Rng rng(0x5AD0002);
  std::vector<double> ra, dec;
  band_catalog(rng, 2000, &ra, &dec);

  // Equal-frequency boundaries from a position sample at the policy depth.
  const int depth = core::ShardPolicy{}.htm_depth;
  std::vector<uint64_t> sample;
  for (size_t i = 0; i < ra.size(); ++i) {
    sample.push_back(htm::htm_id_radec(ra[i], dec[i], depth));
  }
  const std::vector<uint64_t> boundaries =
      ShardRouter::plan_boundaries(sample, 4);
  ASSERT_EQ(boundaries.size(), 3u);

  ShardedRepository repo(schema, sharded_options(4, boundaries));
  const uint32_t obj = repo.schema().table_id("obj").value();
  auto session = repo.make_session();
  const auto outcome = session->execute_batch(obj, object_rows(ra, dec));
  ASSERT_FALSE(outcome.error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  EXPECT_LE(repo.shard_skew(), 1.5);
  for (const int64_t rows : repo.shard_rows()) EXPECT_GT(rows, 0);
}

class ShardScatterGatherTest : public ::testing::Test {
 protected:
  ShardScatterGatherTest()
      : schema_(test_schema()),
        repo_(schema_, sharded_options(3)),
        oracle_(schema_) {
    obj_ = repo_.schema().table_id("obj").value();
    det_ = repo_.schema().table_id("det").value();
  }

  // Load the identical row stream into the sharded repository (through a
  // session) and the single-engine oracle (directly).
  void load_both(uint32_t table, const std::vector<Row>& rows) {
    auto session = repo_.make_session();
    const auto outcome = session->execute_batch(table, rows);
    ASSERT_FALSE(outcome.error.has_value())
        << outcome.error->status.message();
    ASSERT_TRUE(session->commit().is_ok());
    const uint64_t txn = oracle_.begin_transaction();
    for (const Row& row : rows) {
      OpCosts costs;
      ASSERT_TRUE(oracle_.insert_row(txn, table, row, costs).is_ok());
    }
    ASSERT_TRUE(oracle_.commit(txn).is_ok());
  }

  Schema schema_;
  ShardedRepository repo_;
  Engine oracle_;
  uint32_t obj_ = 0;
  uint32_t det_ = 0;
};

TEST_F(ShardScatterGatherTest, PkRangeByteIdenticalToOracle) {
  Rng rng(0x5AD0003);
  std::vector<double> ra, dec;
  band_catalog(rng, 300, &ra, &dec);
  load_both(obj_, object_rows(ra, dec));

  const ShardedReadView view = repo_.read_view();
  EXPECT_EQ(view.row_count(obj_), oracle_.live_view().row_count(obj_));

  const auto sharded =
      view.pk_range(obj_, {Value::i64(50)}, {Value::i64(222)});
  const auto single = oracle_.live_view().pk_range(obj_, {Value::i64(50)},
                                                   {Value::i64(222)});
  ASSERT_TRUE(sharded.is_ok());
  ASSERT_TRUE(single.is_ok());
  EXPECT_FALSE(single->empty());
  expect_rows_identical(*sharded, *single);
}

TEST_F(ShardScatterGatherTest, PkLookupFindsRowsOnEveryShard) {
  Rng rng(0x5AD0004);
  std::vector<double> ra, dec;
  band_catalog(rng, 200, &ra, &dec);
  load_both(obj_, object_rows(ra, dec));

  const ShardedReadView view = repo_.read_view();
  for (const int64_t id : {int64_t{0}, int64_t{77}, int64_t{199}}) {
    const auto sharded = view.pk_lookup(obj_, {Value::i64(id)});
    const auto single = oracle_.live_view().pk_lookup(obj_, {Value::i64(id)});
    ASSERT_TRUE(sharded.is_ok());
    ASSERT_TRUE(single.is_ok());
    expect_rows_identical({*sharded}, {*single});
  }
  EXPECT_EQ(view.pk_lookup(obj_, {Value::i64(100000)}).status().code(),
            ErrorCode::kNotFound);
}

// Every range spelling against the oracle: index ranges over a plain and an
// HTM index merge by indexed value, the encoded spellings run bounded and
// unbounded (empty hi), and scan_heap visits the same row bytes.
TEST_F(ShardScatterGatherTest, RangeReadsAndHeapMatchOracle) {
  Rng rng(0x5AD0009);
  std::vector<double> ra, dec;
  band_catalog(rng, 300, &ra, &dec);
  load_both(obj_, object_rows(ra, dec));

  const ShardedReadView view = repo_.read_view();
  const ReadView single = oracle_.live_view();
  const auto expect_same = [](const Result<std::vector<Row>>& sharded,
                              const Result<std::vector<Row>>& oracle) {
    ASSERT_TRUE(sharded.is_ok());
    ASSERT_TRUE(oracle.is_ok());
    EXPECT_FALSE(oracle->empty());
    expect_rows_identical(*sharded, *oracle);
  };
  const auto key = [](int64_t v) {
    index::KeyEncoder enc;
    enc.append_int64(v);
    return enc.take();
  };

  expect_same(view.index_range(obj_, "ix_dec", {Value::f64(-10.0)},
                               {Value::f64(5.0)}),
              single.index_range(obj_, "ix_dec", {Value::f64(-10.0)},
                                 {Value::f64(5.0)}));
  // HTM tuples are trixel ids at the index depth: ids in [8, 16) * 4^depth,
  // so this range spans several shard slices.
  const int64_t depth_base = int64_t{1} << (2 * kIndexDepth);
  const Row htm_lo = {Value::i64(9 * depth_base)};
  const Row htm_hi = {Value::i64(14 * depth_base)};
  expect_same(view.index_range(obj_, "ix_htm", htm_lo, htm_hi),
              single.index_range(obj_, "ix_htm", htm_lo, htm_hi));
  for (const std::string& hi : {key(222), std::string()}) {
    expect_same(view.pk_encoded_range(obj_, key(50), hi),
                single.pk_encoded_range(obj_, key(50), hi));
  }
  for (const std::string& hi : {key(14 * depth_base), std::string()}) {
    expect_same(
        view.index_encoded_range(obj_, "ix_htm", key(9 * depth_base), hi),
        single.index_encoded_range(obj_, "ix_htm", key(9 * depth_base), hi));
  }

  std::multiset<std::string> sharded_heap;
  std::multiset<std::string> single_heap;
  ASSERT_TRUE(view.scan_heap(obj_, [&](storage::SlotId, std::string_view b) {
                    sharded_heap.emplace(b);
                  }).is_ok());
  ASSERT_TRUE(single.scan_heap(obj_, [&](storage::SlotId, std::string_view b) {
                      single_heap.emplace(b);
                    }).is_ok());
  EXPECT_EQ(sharded_heap.size(), 300u);
  EXPECT_EQ(sharded_heap, single_heap);
}

TEST_F(ShardScatterGatherTest, ConeSearchByteIdenticalAndPruned) {
  Rng rng(0x5AD0005);
  std::vector<double> ra, dec;
  band_catalog(rng, 600, &ra, &dec);
  load_both(obj_, object_rows(ra, dec));

  const auto spec = spatial::resolve_spatial(oracle_, obj_);
  ASSERT_TRUE(spec.is_ok());
  const ShardedReadView view = repo_.read_view();
  int cones_pruned = 0;
  for (int probe = 0; probe < 12; ++probe) {
    const double center_ra = rng.uniform_range(0.0, 315.0);
    const double center_dec = rng.uniform_range(-18.0, 18.0);
    const double radius = rng.uniform_range(0.2, 2.0);
    OpCosts sharded_costs;
    int shards_probed = 0;
    const auto sharded = shard::cone_search(view, *spec, center_ra,
                                            center_dec, radius,
                                            &sharded_costs, &shards_probed);
    OpCosts oracle_costs;
    const auto single =
        spatial::cone_search(oracle_.live_view(), *spec, center_ra,
                             center_dec, radius, &oracle_costs);
    ASSERT_TRUE(sharded.is_ok());
    ASSERT_TRUE(single.is_ok());
    expect_rows_identical(*sharded, *single);
    EXPECT_EQ(sharded_costs.zone_scan_rows, oracle_costs.zone_scan_rows);
    EXPECT_EQ(sharded_costs.xmatch_pairs, oracle_costs.xmatch_pairs);
    EXPECT_GE(shards_probed, 1);
    if (shards_probed < repo_.shard_count()) ++cones_pruned;
  }
  // Small cones inside one slice must not broadcast to every shard.
  EXPECT_GT(cones_pruned, 0);
}

TEST(ShardConeTest, IndexCoarserThanShardLayoutMergesByTrixel) {
  // Shard trixels finer than the index's: an index trixel can straddle
  // shards, so the sharded cone broadcasts each range to every candidate
  // shard. Shard order is trixel order, so the rows come back already
  // merged by trixel key: the result must equal the single-engine cone,
  // also for cones whose ranges span several shards.
  const Schema schema = test_schema();
  EngineOptions options = sharded_options(3);
  options.policies.shard.htm_depth = kIndexDepth + 2;
  ShardedRepository repo(schema, options);
  Engine oracle(schema);
  const uint32_t obj = repo.schema().table_id("obj").value();
  Rng rng(0x5AD0009);
  std::vector<double> ra, dec;
  band_catalog(rng, 600, &ra, &dec);
  const std::vector<Row> rows = object_rows(ra, dec);
  auto session = repo.make_session();
  ASSERT_FALSE(session->execute_batch(obj, rows).error.has_value());
  ASSERT_TRUE(session->commit().is_ok());
  const uint64_t txn = oracle.begin_transaction();
  ASSERT_FALSE(oracle.insert_batch(txn, obj, rows).error.has_value());
  ASSERT_TRUE(oracle.commit(txn).is_ok());

  const auto spec = spatial::resolve_spatial(oracle, obj);
  ASSERT_TRUE(spec.is_ok());
  int multi_shard_cones = 0;
  for (int probe = 0; probe < 12; ++probe) {
    const double center_ra = rng.uniform_range(0.0, 315.0);
    const double center_dec = rng.uniform_range(-18.0, 18.0);
    const double radius = rng.uniform_range(0.2, 2.0);
    int shards_probed = 0;
    const auto sharded =
        shard::cone_search(repo.read_view(), *spec, center_ra, center_dec,
                           radius, nullptr, &shards_probed);
    if (shards_probed > 1) ++multi_shard_cones;
    const auto single = spatial::cone_search(oracle.live_view(), *spec,
                                             center_ra, center_dec, radius);
    ASSERT_TRUE(sharded.is_ok());
    ASSERT_TRUE(single.is_ok());
    expect_rows_identical(*sharded, *single);
  }
  EXPECT_GT(multi_shard_cones, 0);
}

TEST_F(ShardScatterGatherTest, ConeSearchRejectsInvalidRadius) {
  load_both(obj_, object_rows({10.0}, {10.0}));
  const auto spec = spatial::resolve_spatial(oracle_, obj_);
  ASSERT_TRUE(spec.is_ok());
  const ShardedReadView view = repo_.read_view();
  for (const double radius :
       {std::nan(""), std::numeric_limits<double>::infinity(), -0.5}) {
    int shards_probed = -1;
    const auto hits = shard::cone_search(view, *spec, 10.0, 10.0, radius,
                                         nullptr, &shards_probed);
    ASSERT_FALSE(hits.is_ok()) << "radius=" << radius;
    EXPECT_EQ(hits.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(shards_probed, -1);
  }
}

TEST_F(ShardScatterGatherTest, XmatchMatchesSingleEngineOracle) {
  Rng rng(0x5AD0006);
  std::vector<double> ra, dec;
  band_catalog(rng, 250, &ra, &dec);
  load_both(obj_, object_rows(ra, dec));

  const auto spec = spatial::resolve_spatial(oracle_, obj_);
  ASSERT_TRUE(spec.is_ok());
  spatial::XmatchOptions options;
  options.radius_deg = 0.5;
  const ShardedReadView view = repo_.read_view();
  const auto sharded =
      shard::xmatch(view, *spec, view, *spec, options);
  const auto single = spatial::xmatch(oracle_.live_view(), *spec,
                                      oracle_.live_view(), *spec, options);
  ASSERT_TRUE(sharded.is_ok());
  ASSERT_TRUE(single.is_ok());
  // Pair sets match; indices refer to different collection orders (shard-
  // major vs. single-heap), so compare resolved PK pairs, not raw indices.
  EXPECT_EQ(sharded->pairs.size(), single->pairs.size());
  EXPECT_EQ(sharded->report.pairs, single->report.pairs);
  EXPECT_FALSE(sharded->pairs.empty());
}

TEST_F(ShardScatterGatherTest, ColumnBatchRunsMatchRowBatchResult) {
  Rng rng(0x5AD0007);
  std::vector<double> ra, dec;
  band_catalog(rng, 150, &ra, &dec);
  const std::vector<Row> rows = object_rows(ra, dec);

  ColumnBatch batch(repo_.schema().table(obj_));
  for (const Row& row : rows) {
    batch.push_i64(0, row[0].as_i64());
    batch.push_f64(1, row[1].as_f64());
    batch.push_f64(2, row[2].as_f64());
  }
  auto session = repo_.make_session();
  const auto outcome =
      session->execute_column_batch(obj_, batch, 0, batch.size());
  ASSERT_FALSE(outcome.error.has_value());
  EXPECT_EQ(outcome.applied, static_cast<int64_t>(rows.size()));
  ASSERT_TRUE(session->commit().is_ok());

  const uint64_t txn = oracle_.begin_transaction();
  for (const Row& row : rows) {
    OpCosts costs;
    ASSERT_TRUE(oracle_.insert_row(txn, obj_, row, costs).is_ok());
  }
  ASSERT_TRUE(oracle_.commit(txn).is_ok());

  const auto sharded = repo_.read_view().pk_range(
      obj_, {Value::i64(0)}, {Value::i64(1000)});
  const auto single = oracle_.live_view().pk_range(obj_, {Value::i64(0)},
                                                   {Value::i64(1000)});
  ASSERT_TRUE(sharded.is_ok());
  ASSERT_TRUE(single.is_ok());
  expect_rows_identical(*sharded, *single);
}

TEST_F(ShardScatterGatherTest, BatchErrorKeepsJdbcPrefixContract) {
  Rng rng(0x5AD0008);
  std::vector<double> ra, dec;
  band_catalog(rng, 60, &ra, &dec);
  std::vector<Row> rows = object_rows(ra, dec);
  // Duplicate PK mid-batch: everything before it stays applied, the error
  // reports the original batch index, the tail is discarded. The duplicate
  // copies row 7's position too, so both land on the same shard — PK
  // uniqueness on position-routed tables is enforced per shard (see
  // DESIGN.md §12).
  const size_t dup_at = 40;
  rows[dup_at] = rows[7];

  auto session = repo_.make_session();
  const auto outcome = session->execute_batch(obj_, rows);
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(outcome.error->row_index, dup_at);
  EXPECT_EQ(outcome.applied, static_cast<int64_t>(dup_at));
  ASSERT_TRUE(session->commit().is_ok());

  const ShardedReadView view = repo_.read_view();
  EXPECT_EQ(view.row_count(obj_), static_cast<int64_t>(dup_at));
  // A row from the discarded tail must not exist anywhere.
  EXPECT_EQ(view.pk_lookup(obj_, {rows[dup_at + 5][0]}).status().code(),
            ErrorCode::kNotFound);
}

TEST(ShardFkTest, ReconciliationConvergesAcrossShards) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(4));
  const uint32_t obj = repo.schema().table_id("obj").value();
  const uint32_t det = repo.schema().table_id("det").value();

  Rng rng(0x5AD0009);
  std::vector<double> ra, dec;
  band_catalog(rng, 120, &ra, &dec);
  auto session = repo.make_session();
  ASSERT_FALSE(
      session->execute_batch(obj, object_rows(ra, dec)).error.has_value());
  // Children reference parents scattered across shards; the children
  // themselves route block-cyclically by their own id.
  std::vector<Row> children;
  for (int64_t i = 0; i < 300; ++i) {
    children.push_back({Value::i64(i * 300), Value::i64(i % 120),
                        Value::f64(static_cast<double>(i))});
  }
  ASSERT_FALSE(session->execute_batch(det, children).error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  const auto report = repo.reconcile_foreign_keys();
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->converged());
  EXPECT_EQ(report->orphans, 0);
  EXPECT_EQ(report->rows_checked, 300);
  EXPECT_GT(report->remote_hits, 0);  // some parents live off-shard
  EXPECT_TRUE(repo.verify_integrity().is_ok());
}

TEST(ShardFkTest, OrphanedChildIsReported) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(4));
  const uint32_t obj = repo.schema().table_id("obj").value();
  const uint32_t det = repo.schema().table_id("det").value();

  auto session = repo.make_session();
  const std::vector<Row> parents = {
      {Value::i64(1), Value::f64(10.0), Value::f64(5.0)}};
  ASSERT_FALSE(session->execute_batch(obj, parents).error.has_value());
  // Shard engines defer FK checks, so the orphan is accepted at ingest and
  // must surface in reconciliation instead.
  const std::vector<Row> children = {
      {Value::i64(1), Value::i64(1), Value::f64(1.0)},
      {Value::i64(2), Value::i64(999), Value::f64(2.0)}};
  ASSERT_FALSE(session->execute_batch(det, children).error.has_value());
  ASSERT_TRUE(session->commit().is_ok());

  const auto report = repo.reconcile_foreign_keys();
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->converged());
  EXPECT_EQ(report->orphans, 1);
  ASSERT_EQ(report->orphan_samples.size(), 1u);
  EXPECT_NE(report->orphan_samples[0].find("det"), std::string::npos);
}

TEST(ShardSingleTest, OneShardKeepsInlineForeignKeys) {
  const Schema schema = test_schema();
  ShardedRepository repo(schema, sharded_options(1));
  EXPECT_EQ(repo.shard_count(), 1);
  const uint32_t det = repo.schema().table_id("det").value();
  auto session = repo.make_session();
  // With one shard the engine's inline FK check still fires at ingest.
  const std::vector<Row> orphan = {
      {Value::i64(1), Value::i64(999), Value::f64(1.0)}};
  const auto outcome = session->execute_batch(det, orphan);
  ASSERT_TRUE(outcome.error.has_value());
}

}  // namespace
}  // namespace sky::db
