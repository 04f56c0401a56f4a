// Spatial operator battery: the zone cross-match against a brute-force
// O(n^2) oracle (including zone-boundary, ra-wrap, and polar pairs),
// parallel determinism through LoadCoordinator::task_runner(), HTM cone
// search against a full-scan oracle on both live and snapshot views, a
// cross-match running against a pinned snapshot while a loader appends,
// and the fail-closed cone search on a disabled index.
#include "db/spatial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/coordinator.h"
#include "db/engine.h"
#include "htm/htm.h"

namespace sky::db::spatial {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Uniform points on the sphere (uniform in ra and in sin(dec)).
void random_catalog(Rng& rng, size_t n, std::vector<double>* ra,
                    std::vector<double>* dec) {
  for (size_t i = 0; i < n; ++i) {
    ra->push_back(rng.uniform_range(0.0, 360.0));
    dec->push_back(std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi);
  }
}

// The O(n^2) truth the zone matcher must reproduce exactly.
std::set<std::pair<uint32_t, uint32_t>> brute_pairs(
    const std::vector<double>& a_ra, const std::vector<double>& a_dec,
    const std::vector<double>& b_ra, const std::vector<double>& b_dec,
    double radius_deg) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < a_ra.size(); ++i) {
    const htm::Vec3 a = htm::radec_to_vector(a_ra[i], a_dec[i]);
    for (size_t j = 0; j < b_ra.size(); ++j) {
      const htm::Vec3 b = htm::radec_to_vector(b_ra[j], b_dec[j]);
      if (htm::angular_distance_deg(a, b) <= radius_deg) {
        pairs.emplace(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }
  }
  return pairs;
}

std::set<std::pair<uint32_t, uint32_t>> as_set(
    const std::vector<MatchPair>& pairs) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const MatchPair& p : pairs) out.emplace(p.a, p.b);
  return out;
}

TEST(XmatchArraysTest, MatchesBruteForceOracle) {
  Rng rng(0xCA7A106);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 300, &a_ra, &a_dec);
  random_catalog(rng, 300, &b_ra, &b_dec);
  // Guarantee real matches: every 4th B row is a perturbation of an A row,
  // some inside and some outside the radius.
  const double radius = 0.8;
  for (size_t j = 0; j + 4 <= b_ra.size(); j += 4) {
    b_ra[j] = a_ra[j];
    b_dec[j] = a_dec[j] + rng.uniform_range(-1.5 * radius, 1.5 * radius);
    b_dec[j] = std::min(89.9, std::max(-89.9, b_dec[j]));
  }

  XmatchOptions options;
  options.radius_deg = radius;
  const XmatchResult result =
      xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
  const auto oracle = brute_pairs(a_ra, a_dec, b_ra, b_dec, radius);
  EXPECT_EQ(as_set(result.pairs), oracle);
  EXPECT_FALSE(oracle.empty());

  // Separations are the exact angular distances, and the report's funnel
  // is consistent: scanned >= candidates >= pairs == |result|.
  for (const MatchPair& p : result.pairs) {
    const double truth = htm::angular_distance_deg(
        htm::radec_to_vector(a_ra[p.a], a_dec[p.a]),
        htm::radec_to_vector(b_ra[p.b], b_dec[p.b]));
    EXPECT_DOUBLE_EQ(p.sep_deg, truth);
    EXPECT_LE(p.sep_deg, radius);
  }
  EXPECT_EQ(result.report.pairs,
            static_cast<int64_t>(result.pairs.size()));
  EXPECT_GE(result.report.costs.zone_scan_rows,
            result.report.costs.xmatch_candidates);
  EXPECT_GE(result.report.costs.xmatch_candidates,
            result.report.costs.xmatch_pairs);
  EXPECT_EQ(result.report.costs.xmatch_pairs, result.report.pairs);
}

// Pairs that straddle a zone boundary, wrap ra through 0/360, sit across
// the pole from each other, or span several zones (radius > zone height)
// are exactly the cases a naive bucketing drops.
TEST(XmatchArraysTest, BoundaryWrapAndPolarPairsSurvive) {
  // zone_height 0.5 puts boundaries at -90 + k*0.5; dec 10.0 is one.
  std::vector<double> a_ra = {20.0, 359.98, 10.0, 40.0, 200.0};
  std::vector<double> a_dec = {9.99, 0.0, 89.97, -45.0, -89.95};
  std::vector<double> b_ra = {20.0, 0.01, 190.0, 40.0, 20.0};
  std::vector<double> b_dec = {10.01, 0.0, 89.97, -43.8, -89.95};

  XmatchOptions options;
  options.radius_deg = 1.3;  // spans multiple 0.5-degree zones
  options.policy.zone_height_deg = 0.5;
  const XmatchResult result =
      xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
  const auto oracle = brute_pairs(a_ra, a_dec, b_ra, b_dec, 1.3);
  // Every seeded pair (i, i) is a true match the matcher must keep.
  for (uint32_t i = 0; i < a_ra.size(); ++i) {
    EXPECT_TRUE(oracle.count({i, i})) << i;
  }
  EXPECT_EQ(as_set(result.pairs), oracle);
}

// The pair list must be byte-identical for any worker count and schedule:
// serial, one worker, and six workers over the real thread pool all agree,
// including the order of pairs.
TEST(XmatchArraysTest, ParallelResultIsDeterministic) {
  Rng rng(0xDE7E12);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 600, &a_ra, &a_dec);
  random_catalog(rng, 600, &b_ra, &b_dec);

  XmatchOptions serial;
  serial.radius_deg = 1.0;
  const XmatchResult base = xmatch_arrays(a_ra, a_dec, b_ra, b_dec, serial);

  for (const int workers : {1, 6}) {
    XmatchOptions parallel = serial;
    parallel.policy.xmatch_workers = workers;
    parallel.fan_out = core::LoadCoordinator::task_runner();
    const XmatchResult run =
        xmatch_arrays(a_ra, a_dec, b_ra, b_dec, parallel);
    ASSERT_EQ(run.pairs.size(), base.pairs.size()) << workers;
    for (size_t i = 0; i < base.pairs.size(); ++i) {
      EXPECT_EQ(run.pairs[i].a, base.pairs[i].a);
      EXPECT_EQ(run.pairs[i].b, base.pairs[i].b);
      EXPECT_DOUBLE_EQ(run.pairs[i].sep_deg, base.pairs[i].sep_deg);
    }
    EXPECT_EQ(run.report.workers, workers);
    EXPECT_EQ(run.report.pairs, base.report.pairs);
    EXPECT_EQ(run.report.costs.xmatch_candidates,
              base.report.costs.xmatch_candidates);
  }
}

// ------------------------------------------------- engine-backed operators

Schema sky_schema() {
  Schema schema;
  for (const char* name : {"cat_a", "cat_b"}) {
    TableDef table;
    table.name = name;
    table.col("pk", ColumnType::kInt64, false);
    table.col("ra", ColumnType::kDouble, false);
    table.col("dec", ColumnType::kDouble, false);
    table.primary_key = {"pk"};
    // Columns auto-fill to {ra, dec} from the HTM spec.
    table.indexes.push_back(IndexDef{"ix_htm", {},
                                     HtmIndexSpec{"ra", "dec", 12}});
    EXPECT_TRUE(schema.add_table(table).is_ok());
  }
  return schema;
}

class SpatialEngineTest : public ::testing::Test {
 protected:
  SpatialEngineTest() : engine_(sky_schema()) {
    table_a_ = engine_.table_id("cat_a").value();
    table_b_ = engine_.table_id("cat_b").value();
  }

  void load_rows(uint32_t table, int64_t pk_base,
                 const std::vector<double>& ra,
                 const std::vector<double>& dec) {
    const uint64_t txn = engine_.begin_transaction();
    for (size_t i = 0; i < ra.size(); ++i) {
      OpCosts costs;
      ASSERT_TRUE(engine_
                      .insert_row(txn, table,
                                  {Value::i64(pk_base +
                                              static_cast<int64_t>(i)),
                                   Value::f64(ra[i]), Value::f64(dec[i])},
                                  costs)
                      .is_ok());
    }
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }

  Engine engine_;
  uint32_t table_a_ = 0;
  uint32_t table_b_ = 0;
};

TEST_F(SpatialEngineTest, ConeSearchMatchesScanOracle) {
  Rng rng(0xC0DE5EA);
  std::vector<double> ra, dec;
  random_catalog(rng, 500, &ra, &dec);
  load_rows(table_a_, 0, ra, dec);

  const auto spec = resolve_spatial(engine_, table_a_);
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec->htm_index, "ix_htm");
  EXPECT_EQ(spec->ra_column, 1);
  EXPECT_EQ(spec->dec_column, 2);
  EXPECT_EQ(spec->htm_depth, 12);

  const Snapshot snap = engine_.pin_snapshot();
  for (int probe = 0; probe < 12; ++probe) {
    const double center_ra = rng.uniform_range(0.0, 360.0);
    const double center_dec =
        std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi;
    const double radius = rng.uniform_range(0.5, 12.0);
    const htm::Vec3 center = htm::radec_to_vector(center_ra, center_dec);

    std::set<int64_t> oracle;
    for (size_t i = 0; i < ra.size(); ++i) {
      const htm::Vec3 v = htm::radec_to_vector(ra[i], dec[i]);
      if (htm::angular_distance_deg(center, v) <= radius) {
        oracle.insert(static_cast<int64_t>(i));
      }
    }

    for (const bool snapshot_view : {false, true}) {
      const ReadView view =
          snapshot_view ? engine_.view_at(snap) : engine_.live_view();
      OpCosts costs;
      const auto hits =
          cone_search(view, *spec, center_ra, center_dec, radius, &costs);
      ASSERT_TRUE(hits.is_ok());
      std::set<int64_t> got;
      for (const Row& row : *hits) got.insert(row[0].as_i64());
      EXPECT_EQ(got, oracle) << "probe " << probe;
      // The cover is conservative: every returned row passed the exact
      // test, and the funnel tallies stay ordered.
      EXPECT_EQ(costs.xmatch_pairs, static_cast<int64_t>(hits->size()));
      EXPECT_GE(costs.zone_scan_rows, costs.xmatch_candidates);
      EXPECT_GE(costs.xmatch_candidates, costs.xmatch_pairs);
    }
  }
}

TEST_F(SpatialEngineTest, ConeSearchRejectsInvalidRadius) {
  std::vector<double> ra = {10.0}, dec = {10.0};
  load_rows(table_a_, 0, ra, dec);
  const auto spec = resolve_spatial(engine_, table_a_);
  ASSERT_TRUE(spec.is_ok());
  for (const double radius :
       {std::nan(""), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1e-9, -1.0}) {
    const auto hits =
        cone_search(engine_.live_view(), *spec, 10.0, 10.0, radius);
    ASSERT_FALSE(hits.is_ok()) << "radius=" << radius;
    EXPECT_EQ(hits.status().code(), ErrorCode::kInvalidArgument);
  }
  // A zero radius is valid and finds the row at the exact center.
  const auto exact = cone_search(engine_.live_view(), *spec, 10.0, 10.0, 0.0);
  ASSERT_TRUE(exact.is_ok());
  EXPECT_EQ(exact->size(), 1u);
}

TEST_F(SpatialEngineTest, ConeSearchFailsClosedOnDisabledIndex) {
  std::vector<double> ra = {10.0}, dec = {10.0};
  load_rows(table_a_, 0, ra, dec);
  const auto spec = resolve_spatial(engine_, table_a_);
  ASSERT_TRUE(spec.is_ok());

  ASSERT_TRUE(engine_.set_index_enabled(table_a_, "ix_htm", false).is_ok());
  const auto live =
      cone_search(engine_.live_view(), *spec, 10.0, 10.0, 1.0);
  ASSERT_FALSE(live.is_ok());
  EXPECT_EQ(live.status().code(), ErrorCode::kFailedPrecondition);

  // A chunk committed while the index was off poisons snapshot covers of
  // that chunk the same way (the canonical fail-closed symmetry).
  load_rows(table_a_, 100, ra, dec);
  ASSERT_TRUE(engine_.set_index_enabled(table_a_, "ix_htm", true).is_ok());
  const Snapshot stale = engine_.pin_snapshot();
  const auto snapped =
      cone_search(engine_.view_at(stale), *spec, 10.0, 10.0, 1.0);
  ASSERT_FALSE(snapped.is_ok());
  EXPECT_EQ(snapped.status().code(), ErrorCode::kFailedPrecondition);
}

// The tentpole promise: a cross-match pinned at a snapshot LSN returns the
// same pairs whether or not loaders are appending underneath it.
TEST_F(SpatialEngineTest, XmatchAgainstPinnedSnapshotDuringLoad) {
  Rng rng(0xF00D);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 200, &a_ra, &a_dec);
  b_ra = a_ra;  // B starts as a perturbed copy of A: plenty of matches
  b_dec = a_dec;
  for (size_t i = 0; i < b_ra.size(); ++i) {
    b_dec[i] = std::min(89.9, std::max(-89.9,
                                       b_dec[i] + rng.uniform_range(-0.2,
                                                                    0.2)));
  }
  load_rows(table_a_, 0, a_ra, a_dec);
  load_rows(table_b_, 0, b_ra, b_dec);

  const auto spec_a = resolve_spatial(engine_, table_a_);
  const auto spec_b = resolve_spatial(engine_, table_b_);
  ASSERT_TRUE(spec_a.is_ok());
  ASSERT_TRUE(spec_b.is_ok());

  const Snapshot snap = engine_.pin_snapshot();
  const uint64_t pinned_lsn = snap.read_lsn();
  const ReadView view = engine_.view_at(snap);

  XmatchOptions options;
  options.radius_deg = 0.25;
  options.policy.xmatch_workers = 4;
  options.fan_out = core::LoadCoordinator::task_runner();

  // Baseline before any new commits.
  const auto before = xmatch(view, *spec_a, view, *spec_b, options);
  ASSERT_TRUE(before.is_ok());

  // Load more rows into both tables while re-running the pinned match.
  std::thread loader([&] {
    Rng load_rng(0xBEEF);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<double> ra, dec;
      random_catalog(load_rng, 50, &ra, &dec);
      load_rows(table_a_, 1000 + batch * 100, ra, dec);
      load_rows(table_b_, 1000 + batch * 100, ra, dec);
    }
  });
  std::vector<Row> a_rows, b_rows;
  const auto during =
      xmatch(view, *spec_a, view, *spec_b, options, &a_rows, &b_rows);
  loader.join();
  const auto after = xmatch(view, *spec_a, view, *spec_b, options);

  ASSERT_TRUE(during.is_ok());
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(snap.read_lsn(), pinned_lsn);
  ASSERT_EQ(during->pairs.size(), before->pairs.size());
  ASSERT_EQ(after->pairs.size(), before->pairs.size());
  EXPECT_FALSE(before->pairs.empty());
  for (size_t i = 0; i < before->pairs.size(); ++i) {
    EXPECT_EQ(during->pairs[i].a, before->pairs[i].a);
    EXPECT_EQ(during->pairs[i].b, before->pairs[i].b);
    EXPECT_EQ(after->pairs[i].a, before->pairs[i].a);
    EXPECT_EQ(after->pairs[i].b, before->pairs[i].b);
  }

  // Pair indices resolve through the rows collected from the same view,
  // and the pinned view never saw the loader's rows.
  ASSERT_EQ(a_rows.size(), a_ra.size());
  ASSERT_EQ(b_rows.size(), b_ra.size());
  for (const MatchPair& p : during->pairs) {
    const Row& a = a_rows[p.a];
    const Row& b = b_rows[p.b];
    const double truth = htm::angular_distance_deg(
        htm::radec_to_vector(a[1].as_f64(), a[2].as_f64()),
        htm::radec_to_vector(b[1].as_f64(), b[2].as_f64()));
    EXPECT_DOUBLE_EQ(p.sep_deg, truth);
  }
  // The live view, by contrast, has moved on.
  EXPECT_GT(engine_.live_view().row_count(table_a_),
            view.row_count(table_a_));
}

}  // namespace
}  // namespace sky::db::spatial
