// HTM tests: vector math, id structure invariants (prefix property, depth
// ranges, round trips), containment, and cone-cover correctness properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "htm/htm.h"

namespace sky::htm {
namespace {

Vec3 random_direction(Rng& rng) {
  // Uniform on the sphere via z/phi.
  const double z = rng.uniform_range(-1.0, 1.0);
  const double phi = rng.uniform_range(0.0, 2 * 3.14159265358979323846);
  const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
  return {r * std::cos(phi), r * std::sin(phi), z};
}

// ------------------------------------------------------------ vector math ---

TEST(HtmVectorTest, RaDecRoundTrip) {
  for (double ra : {0.0, 45.0, 123.456, 270.0, 359.9}) {
    for (double dec : {-89.0, -30.0, 0.0, 15.5, 89.0}) {
      const Vec3 v = radec_to_vector(ra, dec);
      EXPECT_NEAR(v.norm(), 1.0, 1e-12);
      double ra_out = 0, dec_out = 0;
      vector_to_radec(v, &ra_out, &dec_out);
      EXPECT_NEAR(ra_out, ra, 1e-9);
      EXPECT_NEAR(dec_out, dec, 1e-9);
    }
  }
}

TEST(HtmVectorTest, AngularDistance) {
  const Vec3 x = radec_to_vector(0, 0);
  EXPECT_NEAR(angular_distance_deg(x, radec_to_vector(0, 0)), 0.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(x, radec_to_vector(90, 0)), 90.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(x, radec_to_vector(180, 0)), 180.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(x, radec_to_vector(0, 90)), 90.0, 1e-9);
  // Tiny separations are resolved accurately.
  EXPECT_NEAR(angular_distance_deg(x, radec_to_vector(1e-5, 0)), 1e-5, 1e-9);
}

TEST(HtmVectorTest, CrossAndDot) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  const Vec3 c = x.cross(y);
  EXPECT_NEAR(c.x, z.x, 1e-15);
  EXPECT_NEAR(c.y, z.y, 1e-15);
  EXPECT_NEAR(c.z, z.z, 1e-15);
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
}

// ------------------------------------------------------------ id structure ---

TEST(HtmIdTest, RootIdsAndDepthRanges) {
  for (const Trixel& root : root_trixels()) {
    EXPECT_GE(root.id, 8u);
    EXPECT_LT(root.id, 16u);
    EXPECT_EQ(depth_of_id(root.id).value(), 0);
  }
  EXPECT_EQ(depth_of_id(32).value(), 1);   // 8 * 4
  EXPECT_EQ(depth_of_id(63).value(), 1);   // 16 * 4 - 1
  EXPECT_FALSE(depth_of_id(0).is_ok());
  EXPECT_FALSE(depth_of_id(7).is_ok());
}

TEST(HtmIdTest, IdWithinDepthRange) {
  Rng rng(5);
  for (int depth : {0, 1, 5, 10, kDefaultDepth}) {
    for (int i = 0; i < 50; ++i) {
      const uint64_t id = htm_id(random_direction(rng), depth);
      const uint64_t lo = 8ULL << (2 * depth);
      const uint64_t hi = 16ULL << (2 * depth);
      EXPECT_GE(id, lo);
      EXPECT_LT(id, hi);
      EXPECT_EQ(depth_of_id(id).value(), depth);
    }
  }
}

TEST(HtmIdTest, PrefixProperty) {
  // The depth-d id is a prefix of the depth-(d+1) id: parent = child >> 2.
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = random_direction(rng);
    for (int depth = 0; depth < 12; ++depth) {
      const uint64_t coarse = htm_id(p, depth);
      const uint64_t fine = htm_id(p, depth + 1);
      EXPECT_EQ(fine >> 2, coarse);
    }
  }
}

TEST(HtmIdTest, ContainmentRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = random_direction(rng);
    const uint64_t id = htm_id(p, 10);
    const auto contains = id_contains(id, p);
    ASSERT_TRUE(contains.is_ok());
    EXPECT_TRUE(*contains);
  }
}

TEST(HtmIdTest, TrixelFromIdRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = htm_id(random_direction(rng), 8);
    const auto trixel = trixel_from_id(id);
    ASSERT_TRUE(trixel.is_ok());
    EXPECT_EQ(trixel->id, id);
    for (const Vec3& v : trixel->v) EXPECT_NEAR(v.norm(), 1.0, 1e-12);
  }
  EXPECT_FALSE(trixel_from_id(3).is_ok());
}

TEST(HtmIdTest, NameRoundTrip) {
  EXPECT_EQ(id_to_name(8).value(), "S0");
  EXPECT_EQ(id_to_name(15).value(), "N3");
  EXPECT_EQ(id_to_name(8 * 4 + 2).value(), "S02");
  EXPECT_EQ(name_to_id("S0").value(), 8u);
  EXPECT_EQ(name_to_id("N3").value(), 15u);
  EXPECT_EQ(name_to_id("N31").value(), 15u * 4 + 1);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = htm_id(random_direction(rng), 12);
    EXPECT_EQ(name_to_id(id_to_name(id).value()).value(), id);
  }
  EXPECT_FALSE(name_to_id("X0").is_ok());
  EXPECT_FALSE(name_to_id("N").is_ok());
  EXPECT_FALSE(name_to_id("N4").is_ok());
  EXPECT_FALSE(name_to_id("N05x").is_ok());
}

TEST(HtmIdTest, DistinctDirectionsSeparateAtDepth) {
  // Two points ~1 degree apart must land in different depth-10 trixels
  // (depth-10 trixels are ~0.1 degrees across).
  const uint64_t a = htm_id_radec(10.0, 10.0, 10);
  const uint64_t b = htm_id_radec(11.0, 10.0, 10);
  EXPECT_NE(a, b);
}

TEST(HtmIdTest, NeighborhoodLocality) {
  // Points very close together share a deep id.
  const uint64_t a = htm_id_radec(45.0, 20.0, 8);
  const uint64_t b = htm_id_radec(45.0 + 1e-9, 20.0 + 1e-9, 8);
  EXPECT_EQ(a, b);
}

TEST(HtmIdTest, EveryRootClaimsItsCenter) {
  for (const Trixel& root : root_trixels()) {
    const Vec3 center =
        (root.v[0] + root.v[1] + root.v[2]).normalized();
    EXPECT_EQ(htm_id(center, 0), root.id);
  }
}

// The descent htm_id() replaced, kept verbatim as the oracle: score all four
// children with the min of their three edge-plane dots and take the first
// maximum.
double reference_insideness(const std::array<Vec3, 3>& v, const Vec3& p) {
  const double d0 = v[0].cross(v[1]).dot(p);
  const double d1 = v[1].cross(v[2]).dot(p);
  const double d2 = v[2].cross(v[0]).dot(p);
  return std::min({d0, d1, d2});
}

std::array<Trixel, 4> reference_children(const Trixel& t) {
  const Vec3 w0 = (t.v[1] + t.v[2]).normalized();
  const Vec3 w1 = (t.v[0] + t.v[2]).normalized();
  const Vec3 w2 = (t.v[0] + t.v[1]).normalized();
  return {
      Trixel{t.id * 4 + 0, {t.v[0], w2, w1}},
      Trixel{t.id * 4 + 1, {t.v[1], w0, w2}},
      Trixel{t.id * 4 + 2, {t.v[2], w1, w0}},
      Trixel{t.id * 4 + 3, {w0, w1, w2}},
  };
}

uint64_t reference_htm_id(const Vec3& direction, int depth) {
  const Vec3 p = direction.normalized();
  const Trixel* current = &root_trixels()[0];
  double best = -2.0;
  for (const Trixel& root : root_trixels()) {
    const double score = reference_insideness(root.v, p);
    if (score > best) {
      best = score;
      current = &root;
    }
  }
  Trixel node = *current;
  for (int level = 0; level < depth; ++level) {
    const auto kids = reference_children(node);
    int best_child = 0;
    double best_score = -2.0;
    for (int k = 0; k < 4; ++k) {
      const double score =
          reference_insideness(kids[static_cast<size_t>(k)].v, p);
      if (score > best_score) {
        best_score = score;
        best_child = k;
      }
    }
    node = kids[static_cast<size_t>(best_child)];
  }
  return node.id;
}

// An id at depth d is the depth-d prefix of the same point's deeper id (one
// descent), so comparing at a deep level checks every shallower one too.
constexpr int kOracleDepth = 24;

TEST(HtmIdTest, MatchesReferenceOnRandomDirections) {
  Rng rng(20260);
  int mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const Vec3 p = random_direction(rng);
    if (htm_id(p, kOracleDepth) != reference_htm_id(p, kOracleDepth)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(HtmIdTest, MatchesReferenceOnTrixelVerticesAndEdgeMidpoints) {
  // Points exactly on trixel edges are where the children's scores tie.
  std::vector<Vec3> points;
  for (const Trixel& root : root_trixels()) {
    for (size_t e = 0; e < 3; ++e) {
      points.push_back(root.v[e]);
      points.push_back(root.v[e] * -1.0);
      points.push_back((root.v[e] + root.v[(e + 1) % 3]).normalized());
    }
  }
  Rng rng(614);
  for (const int depth : {6, 10, 14, 20}) {
    for (int i = 0; i < 4000; ++i) {
      const Trixel t =
          trixel_from_id(htm_id(random_direction(rng), depth)).value();
      for (size_t e = 0; e < 3; ++e) {
        points.push_back(t.v[e]);
        points.push_back((t.v[e] + t.v[(e + 1) % 3]).normalized());
      }
    }
  }
  ASSERT_GE(points.size(), 96000u);
  int mismatches = 0;
  for (const Vec3& p : points) {
    if (htm_id(p, kOracleDepth) != reference_htm_id(p, kOracleDepth)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// -------------------------------------------------------------- cone cover ---

bool ranges_cover(const std::vector<IdRange>& ranges, uint64_t id) {
  for (const IdRange& range : ranges) {
    if (id >= range.first && id < range.last) return true;
  }
  return false;
}

TEST(ConeCoverTest, RangesSortedDisjointCoalesced) {
  const auto ranges = cone_cover(radec_to_vector(30, 40), 2.0, 8);
  ASSERT_FALSE(ranges.empty());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LT(ranges[i].first, ranges[i].last);
    if (i > 0) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].last);
    }
  }
}

TEST(ConeCoverTest, CenterAlwaysCovered) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const Vec3 center = random_direction(rng);
    const auto ranges = cone_cover(center, 1.0, 10);
    EXPECT_TRUE(ranges_cover(ranges, htm_id(center, 10)));
  }
}

class ConeCoverProperty : public ::testing::TestWithParam<double> {};

TEST_P(ConeCoverProperty, EveryInsidePointCovered) {
  const double radius = GetParam();
  Rng rng(static_cast<uint64_t>(radius * 1000) + 11);
  const int depth = 9;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 center = random_direction(rng);
    const auto ranges = cone_cover(center, radius, depth);
    // Sample points inside the cap; all must fall in covered trixels.
    for (int i = 0; i < 50; ++i) {
      double ra = 0, dec = 0;
      vector_to_radec(center, &ra, &dec);
      // Random offset within the cap (crude but inside by construction).
      const double t = rng.uniform_range(0.0, radius * 0.99);
      const double bearing = rng.uniform_range(0.0, 360.0);
      // Walk t degrees along the bearing using the tangent basis.
      const Vec3 north{0, 0, 1};
      Vec3 east = north.cross(center);
      if (east.norm() < 1e-9) east = Vec3{0, 1, 0};
      east = east.normalized();
      const Vec3 up = center.cross(east).normalized();
      const double tr = t * 3.14159265358979323846 / 180.0;
      const double br = bearing * 3.14159265358979323846 / 180.0;
      const Vec3 point =
          (center * std::cos(tr) +
           (east * std::cos(br) + up * std::sin(br)) * std::sin(tr))
              .normalized();
      ASSERT_LE(angular_distance_deg(center, point), radius + 1e-9);
      EXPECT_TRUE(ranges_cover(ranges, htm_id(point, depth)))
          << "radius=" << radius << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, ConeCoverProperty,
                         ::testing::Values(0.05, 0.5, 2.0, 10.0, 45.0));

TEST(ConeCoverTest, SmallConeIsSmall) {
  // A 0.1-degree cone at depth 8 must not cover a large fraction of the sky.
  const auto ranges = cone_cover(radec_to_vector(100, -30), 0.1, 8);
  uint64_t covered = 0;
  for (const IdRange& range : ranges) covered += range.last - range.first;
  const uint64_t total = 8ULL << (2 * 8);  // number of depth-8 trixels
  EXPECT_LT(covered, total / 1000);
}

TEST(ConeCoverTest, FullSkyRadiusCoversEverything) {
  const auto ranges = cone_cover(radec_to_vector(0, 0), 90.0, 4);
  uint64_t covered = 0;
  for (const IdRange& range : ranges) covered += range.last - range.first;
  // A 90-degree cap is half the sphere; cover must be at least that.
  const uint64_t total = 8ULL << (2 * 4);
  EXPECT_GE(covered, total / 2);
}

TEST(SolidAngleTest, RootTrixelsTileTheSphere) {
  // Eight root trixels cover 4*pi steradians exactly.
  double total = 0;
  for (const Trixel& root : root_trixels()) {
    const double area = trixel_solid_angle_sr(root);
    EXPECT_NEAR(area, 4.0 * 3.14159265358979323846 / 8.0, 1e-9);
    total += area;
  }
  EXPECT_NEAR(total, 4.0 * 3.14159265358979323846, 1e-9);
}

TEST(SolidAngleTest, ChildrenPartitionTheParent) {
  // The four children of any trixel tile it (areas sum to the parent's).
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t id = htm_id(random_direction(rng), 5);
    const auto parent = trixel_from_id(id);
    ASSERT_TRUE(parent.is_ok());
    double children_total = 0;
    for (uint64_t k = 0; k < 4; ++k) {
      const auto child = trixel_from_id(id * 4 + k);
      ASSERT_TRUE(child.is_ok());
      children_total += trixel_solid_angle_sr(*child);
    }
    EXPECT_NEAR(children_total, trixel_solid_angle_sr(*parent), 1e-9);
  }
}

TEST(SolidAngleTest, CapArea) {
  EXPECT_NEAR(cap_solid_angle_sr(90.0), 2.0 * 3.14159265358979323846, 1e-9);
  EXPECT_NEAR(cap_solid_angle_sr(0.0), 0.0, 1e-12);
  // Small-angle approximation: pi * r^2.
  const double r = 0.5 * 3.14159265358979323846 / 180.0;
  EXPECT_NEAR(cap_solid_angle_sr(0.5),
              3.14159265358979323846 * r * r, 1e-8);
}

TEST(ConeCoverTest, CoverIsReasonablyTight) {
  // The cover's total trixel area must not blow up relative to the cap:
  // at a depth where trixels are much smaller than the cap, the cover stays
  // within a small constant factor of the cap area.
  Rng rng(78);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 center = random_direction(rng);
    const double radius = 2.0;
    const int depth = 10;  // trixel edge ~0.1 deg << radius
    double covered = 0;
    for (const IdRange& range : cone_cover(center, radius, depth)) {
      for (uint64_t id = range.first; id < range.last; ++id) {
        covered += trixel_solid_angle_sr(*trixel_from_id(id));
      }
    }
    const double cap = cap_solid_angle_sr(radius);
    EXPECT_GE(covered, cap * 0.999);  // covers the cap
    EXPECT_LE(covered, cap * 1.6);    // without gross overshoot
  }
}

TEST(ConeCoverTest, ZeroRadiusStillFindsHostTrixel) {
  const Vec3 p = radec_to_vector(222.2, -33.3);
  const auto ranges = cone_cover(p, 0.0, 12);
  EXPECT_TRUE(ranges_cover(ranges, htm_id(p, 12)));
}

// ------------------------------------------------------- edge geometry ---

TEST(HtmIdTest, PolesProduceValidIds) {
  // The poles are root-trixel corners (four trixels meet there), so the id
  // itself may tie-break either way — but it must stay a valid id of the
  // requested depth, at every depth and any nominal ra.
  for (int depth : {0, 4, 10, kDefaultDepth}) {
    const uint64_t lo = 8ULL << (2 * depth);
    const uint64_t hi = 16ULL << (2 * depth);
    for (double ra : {0.0, 12.3, 181.5, 359.999}) {
      for (double dec : {90.0, -90.0}) {
        const uint64_t id = htm_id_radec(ra, dec, depth);
        EXPECT_GE(id, lo);
        EXPECT_LT(id, hi);
        EXPECT_EQ(depth_of_id(id).value(), depth);
      }
    }
  }
}

TEST(ConeCoverTest, PolarCapCoversAllRightAscensions) {
  // A cap centered exactly on a pole touches every meridian; the cover
  // must hold points at every ra near the pole and stay sorted/disjoint.
  const int depth = 8;
  for (const double pole : {90.0, -90.0}) {
    const auto ranges = cone_cover(radec_to_vector(0.0, pole), 1.0, depth);
    ASSERT_FALSE(ranges.empty());
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].last);
    }
    const double dec = pole > 0 ? 89.5 : -89.5;
    for (double ra = 0.0; ra < 360.0; ra += 7.3) {
      EXPECT_TRUE(ranges_cover(ranges, htm_id_radec(ra, dec, depth)))
          << "pole=" << pole << " ra=" << ra;
    }
  }
}

TEST(ConeCoverTest, RaWrapCoversAcrossZeroMeridian) {
  // A cap centered just east of ra=0 reaches west of the wrap; points on
  // both sides of the 0/360 seam (including ra=360 itself) are covered.
  const int depth = 10;
  const auto ranges = cone_cover(radec_to_vector(0.25, 20.0), 1.0, depth);
  for (double ra : {359.5, 359.9, 0.0, 0.9, 360.0}) {
    EXPECT_TRUE(ranges_cover(ranges, htm_id_radec(ra, 20.0, depth)))
        << "ra=" << ra;
  }
}

TEST(ConeCoverTest, RadiusNinetyDegreesAndBeyond) {
  const int depth = 4;
  const uint64_t total = 8ULL << (2 * depth);
  // radius 180 is the whole sphere: every trixel is covered, and since
  // depth-4 ids are contiguous the coalescer must fold the cover into the
  // single range [8*4^4, 16*4^4).
  {
    const auto ranges = cone_cover(radec_to_vector(10, 10), 180.0, depth);
    uint64_t covered = 0;
    for (const IdRange& range : ranges) covered += range.last - range.first;
    EXPECT_EQ(covered, total);
    EXPECT_EQ(ranges.size(), 1u);
  }
  // A 120-degree cap is 3/4 of the sphere, and its antipode is excludable.
  {
    const Vec3 center = radec_to_vector(10, 10);
    const auto ranges = cone_cover(center, 120.0, depth);
    uint64_t covered = 0;
    for (const IdRange& range : ranges) covered += range.last - range.first;
    EXPECT_GE(covered, (total * 3) / 4);
    EXPECT_LT(covered, total);
    // Points just inside the rim are covered.
    Rng rng(21);
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = random_direction(rng);
      if (angular_distance_deg(center, p) <= 119.0) {
        EXPECT_TRUE(ranges_cover(ranges, htm_id(p, depth)));
      }
    }
  }
}

TEST(ConeCoverTest, MatchesBruteForceTrixelOracle) {
  // Classify every depth-4 trixel against the cap by direct geometry:
  // any corner / edge-midpoint / center inside the cap is an intersection
  // witness (the cover MUST include the trixel); a trixel whose center is
  // farther than radius + its circumradius cannot intersect (the cover
  // MUST exclude it). Trixels between the two bounds are the cover's
  // conservative slack and may go either way.
  Rng rng(123);
  const int depth = 4;
  const uint64_t lo = 8ULL << (2 * depth);
  const uint64_t hi = 16ULL << (2 * depth);
  for (int trial = 0; trial < 5; ++trial) {
    const Vec3 center = random_direction(rng);
    const double radius = 7.0 * (trial + 1);  // 7..35 degrees
    const auto ranges = cone_cover(center, radius, depth);
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].last);  // sorted + coalesced
    }
    for (uint64_t id = lo; id < hi; ++id) {
      const auto trixel = trixel_from_id(id);
      ASSERT_TRUE(trixel.is_ok());
      const Vec3 c =
          (trixel->v[0] + trixel->v[1] + trixel->v[2]).normalized();
      std::vector<Vec3> witnesses = {c};
      double circumradius = 0;
      for (size_t k = 0; k < 3; ++k) {
        witnesses.push_back(trixel->v[k]);
        witnesses.push_back(
            (trixel->v[k] + trixel->v[(k + 1) % 3]).normalized());
        circumradius =
            std::max(circumradius, angular_distance_deg(c, trixel->v[k]));
      }
      double nearest_witness = 1e9;
      for (const Vec3& w : witnesses) {
        nearest_witness =
            std::min(nearest_witness, angular_distance_deg(center, w));
      }
      const bool covered = ranges_cover(ranges, id);
      if (nearest_witness <= radius) {
        EXPECT_TRUE(covered) << "id=" << id << " radius=" << radius;
      } else if (angular_distance_deg(center, c) >
                 radius + circumradius + 1e-9) {
        EXPECT_FALSE(covered) << "id=" << id << " radius=" << radius;
      }
    }
  }
}

// ------------------------------------------------ reference cone cover ---
//
// The cone cover as first written: every child re-tests its three vertices
// by atan2 angular distance, every edge is projected, and the ranges are
// sorted and coalesced afterwards. The fast cover must reproduce it
// exactly away from exact ties.
namespace reference {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDegToRad = kPi / 180.0;
constexpr double kEpsilon = 1e-12;

double insideness(const std::array<Vec3, 3>& v, const Vec3& p) {
  const double d0 = v[0].cross(v[1]).dot(p);
  const double d1 = v[1].cross(v[2]).dot(p);
  const double d2 = v[2].cross(v[0]).dot(p);
  return std::min({d0, d1, d2});
}

std::array<Trixel, 4> children_of(const Trixel& t) {
  const Vec3 w0 = (t.v[1] + t.v[2]).normalized();
  const Vec3 w1 = (t.v[0] + t.v[2]).normalized();
  const Vec3 w2 = (t.v[0] + t.v[1]).normalized();
  return {
      Trixel{t.id * 4 + 0, {t.v[0], w2, w1}},
      Trixel{t.id * 4 + 1, {t.v[1], w0, w2}},
      Trixel{t.id * 4 + 2, {t.v[2], w1, w0}},
      Trixel{t.id * 4 + 3, {w0, w1, w2}},
  };
}

double arc_interior_distance_rad(const Vec3& a, const Vec3& b, const Vec3& c) {
  const Vec3 n_raw = a.cross(b);
  const double n_len = n_raw.norm();
  if (n_len < 1e-15) return kPi;
  const Vec3 n = {n_raw.x / n_len, n_raw.y / n_len, n_raw.z / n_len};
  const Vec3 proj = c - n * c.dot(n);
  if (proj.norm() < 1e-15) return kPi / 2;
  const Vec3 p = proj.normalized();
  if (a.cross(p).dot(n) >= 0 && p.cross(b).dot(n) >= 0) {
    return std::asin(std::clamp(std::abs(c.dot(n)), 0.0, 1.0));
  }
  return kPi;
}

enum class CapRelation { kDisjoint, kPartial, kFull };

CapRelation classify(const Trixel& t, const Vec3& center, double radius_deg) {
  int inside = 0;
  for (const Vec3& v : t.v) {
    if (angular_distance_deg(center, v) <= radius_deg) ++inside;
  }
  if (inside == 3) return CapRelation::kFull;
  if (inside > 0) return CapRelation::kPartial;
  if (insideness(t.v, center) >= -kEpsilon) return CapRelation::kPartial;
  const double radius_rad = radius_deg * kDegToRad;
  for (int e = 0; e < 3; ++e) {
    const Vec3& a = t.v[static_cast<size_t>(e)];
    const Vec3& b = t.v[static_cast<size_t>((e + 1) % 3)];
    if (arc_interior_distance_rad(a, b, center) <= radius_rad) {
      return CapRelation::kPartial;
    }
  }
  return CapRelation::kDisjoint;
}

CapRelation classify_wide(const Trixel& t, const Vec3& center,
                          double radius_deg) {
  const Vec3 anti = center * -1.0;
  const double complement = 180.0 - radius_deg;
  switch (classify(t, anti, complement)) {
    case CapRelation::kDisjoint:
      return CapRelation::kFull;
    case CapRelation::kFull: {
      int strictly_inside = 0;
      for (const Vec3& v : t.v) {
        if (angular_distance_deg(anti, v) < complement - 1e-12) {
          ++strictly_inside;
        }
      }
      return strictly_inside == 3 ? CapRelation::kDisjoint
                                  : CapRelation::kPartial;
    }
    case CapRelation::kPartial:
      break;
  }
  return CapRelation::kPartial;
}

void cover_recursive(const Trixel& t, int level, int depth, const Vec3& center,
                     double radius_deg, std::vector<IdRange>& out) {
  const CapRelation relation = radius_deg > 90.0
                                   ? classify_wide(t, center, radius_deg)
                                   : classify(t, center, radius_deg);
  if (relation == CapRelation::kDisjoint) return;
  const int remaining = depth - level;
  if (relation == CapRelation::kFull || remaining == 0) {
    const uint64_t width = 1ULL << (2 * remaining);
    out.push_back(IdRange{t.id * width, (t.id + 1) * width});
    return;
  }
  for (const Trixel& child : children_of(t)) {
    cover_recursive(child, level + 1, depth, center, radius_deg, out);
  }
}

std::vector<IdRange> cone_cover(const Vec3& center, double radius_deg,
                                int depth) {
  const double clamped_radius = std::clamp(radius_deg, 0.0, 180.0);
  const Vec3 c = center.normalized();
  std::vector<IdRange> ranges;
  for (const Trixel& root : root_trixels()) {
    cover_recursive(root, 0, depth, c, clamped_radius, ranges);
  }
  std::sort(
      ranges.begin(), ranges.end(),
      [](const IdRange& a, const IdRange& b) { return a.first < b.first; });
  std::vector<IdRange> merged;
  for (const IdRange& range : ranges) {
    if (!merged.empty() && range.first <= merged.back().last) {
      merged.back().last = std::max(merged.back().last, range.last);
    } else {
      merged.push_back(range);
    }
  }
  return merged;
}

}  // namespace reference

bool same_ranges(const std::vector<IdRange>& a, const std::vector<IdRange>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].last != b[i].last) return false;
  }
  return true;
}

TEST(ConeCoverTest, MatchesReferenceCover) {
  // Every (radius, depth) pair whose cover stays small enough to compute
  // with the reference quickly: about 2^depth * sin(min(r, 180 - r)) leaf
  // trixels straddle the rim, so deep covers of wide caps are skipped.
  struct Case {
    double radius;
    int depth;
  };
  std::vector<Case> cases;
  for (const int depth : {0, 4, 8, 14, 20}) {
    for (const double radius : {0.0, 1e-4, 0.2, 1.0, 10.0, 45.0, 89.9, 90.0,
                                90.1, 120.0, 179.9, 180.0}) {
      const double rim = std::sin(std::min(radius, 180.0 - radius) *
                                  reference::kDegToRad);
      if (std::ldexp(rim, depth) <= 300.0) cases.push_back({radius, depth});
    }
  }
  ASSERT_GE(cases.size(), 40u);
  Rng rng(2024);
  const int centers = 10000;
  int mismatches = 0;
  for (int i = 0; i < centers; ++i) {
    const Case& c = cases[static_cast<size_t>(i) % cases.size()];
    const Vec3 center = random_direction(rng);
    const auto fast = cone_cover(center, c.radius, c.depth);
    const auto ref = reference::cone_cover(center, c.radius, c.depth);
    if (!same_ranges(fast, ref) && ++mismatches <= 5) {
      ADD_FAILURE() << "radius=" << c.radius << " depth=" << c.depth
                    << " center=(" << center.x << ", " << center.y << ", "
                    << center.z << ") fast=" << fast.size()
                    << " ranges, reference=" << ref.size() << " ranges";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ConeCoverTest, TieCentersStayConservative) {
  // Centers on root vertices, root edge midpoints and the poles put
  // trixel vertices exactly on the rim at these radii. The cover may then
  // differ from the reference, but only by covering more: every trixel
  // holding a witness point inside the cap is still covered.
  std::vector<Vec3> centers;
  for (const Trixel& root : root_trixels()) {
    for (size_t k = 0; k < 3; ++k) {
      centers.push_back(root.v[k]);
      centers.push_back((root.v[k] + root.v[(k + 1) % 3]).normalized());
    }
  }
  centers.push_back(radec_to_vector(45.0, 0.0));
  centers.push_back(radec_to_vector(0.0, 90.0));
  centers.push_back(radec_to_vector(0.0, -90.0));
  const int depth = 4;
  const uint64_t lo = 8ULL << (2 * depth);
  const uint64_t hi = 16ULL << (2 * depth);
  for (const Vec3& center : centers) {
    for (const double radius : {30.0, 45.0, 60.0, 90.0}) {
      const auto ranges = cone_cover(center, radius, depth);
      ASSERT_FALSE(ranges.empty());
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_LT(ranges[i].first, ranges[i].last);
        if (i > 0) {
          EXPECT_GT(ranges[i].first, ranges[i - 1].last);
        }
      }
      for (uint64_t id = lo; id < hi; ++id) {
        const Trixel trixel = *trixel_from_id(id);
        std::vector<Vec3> witnesses = {
            (trixel.v[0] + trixel.v[1] + trixel.v[2]).normalized()};
        for (size_t k = 0; k < 3; ++k) {
          witnesses.push_back(trixel.v[k]);
          witnesses.push_back(
              (trixel.v[k] + trixel.v[(k + 1) % 3]).normalized());
        }
        for (const Vec3& w : witnesses) {
          if (angular_distance_deg(center, w) <= radius) {
            EXPECT_TRUE(ranges_cover(ranges, id))
                << "id=" << id << " radius=" << radius;
            break;
          }
        }
      }
    }
  }
}

TEST(ConeCoverTest, NanRadiusCoversNothing) {
  const Vec3 center = radec_to_vector(10, 20);
  EXPECT_TRUE(cone_cover(center, std::nan(""), 14).empty());
  EXPECT_TRUE(cone_cover(center, std::nan(""), 0).empty());
}

}  // namespace
}  // namespace sky::htm
