#include "db/spatial.h"

#include <algorithm>
#include <cmath>

#include "db/engine.h"
#include "htm/htm.h"
#include "index/key_codec.h"

namespace sky::db::spatial {

namespace {

constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
constexpr double kRadToDeg = 180.0 / 3.14159265358979323846;

double normalize_ra(double ra_deg) {
  double ra = std::fmod(ra_deg, 360.0);
  if (ra < 0) ra += 360.0;
  return ra;
}

// One catalog-B entry inside a zone bucket, ra-sorted.
struct BucketEntry {
  double ra = 0;
  uint32_t index = 0;
};

// The ra half-width that is guaranteed to contain every match for a probe
// against B rows whose declination lies in [zone_lo, zone_hi] (Gray et al.'s
// alpha function): asin(sin r / cos dec) at the zone edge nearest a pole.
// Returns >= 180 (scan the whole zone) near the poles, where the window
// degenerates; the exact-distance post-filter keeps over-wide windows
// correct, just slower.
double zone_ra_half_width_deg(double radius_deg, double zone_lo_deg,
                              double zone_hi_deg) {
  const double max_abs_dec =
      std::max(std::fabs(zone_lo_deg), std::fabs(zone_hi_deg));
  if (max_abs_dec >= 89.9) return 360.0;
  const double cos_dec = std::cos(max_abs_dec * kDegToRad);
  const double sin_r = std::sin(radius_deg * kDegToRad);
  if (sin_r >= cos_dec) return 360.0;
  // Tiny relative pad absorbs the rounding between this bound and the
  // exact distance test.
  return std::asin(sin_r / cos_dec) * kRadToDeg * (1.0 + 1e-9) + 1e-12;
}

// Visit the bucket entries with ra in [lo, hi] (degrees, possibly out of
// [0, 360) — wrapped segments are visited too). Entries are ra-sorted.
template <typename Fn>
void visit_ra_window(const std::vector<BucketEntry>& bucket, double lo,
                     double hi, Fn&& fn) {
  const auto visit_segment = [&](double seg_lo, double seg_hi) {
    const auto first = std::lower_bound(
        bucket.begin(), bucket.end(), seg_lo,
        [](const BucketEntry& e, double v) { return e.ra < v; });
    for (auto it = first; it != bucket.end() && it->ra <= seg_hi; ++it) {
      fn(*it);
    }
  };
  if (hi - lo >= 360.0) {
    visit_segment(0.0, 360.0);
  } else if (lo < 0.0) {
    visit_segment(lo + 360.0, 360.0);
    visit_segment(0.0, hi);
  } else if (hi > 360.0) {
    visit_segment(lo, 360.0);
    visit_segment(0.0, hi - 360.0);
  } else {
    visit_segment(lo, hi);
  }
}

}  // namespace

Result<SpatialTableSpec> resolve_spatial(const Engine& engine,
                                         uint32_t table_id) {
  if (table_id >= static_cast<uint32_t>(engine.schema().table_count())) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const TableDef& def = engine.schema().table(table_id);
  for (const IndexDef& index : def.indexes) {
    if (!index.htm.has_value()) continue;
    SpatialTableSpec spec;
    spec.table_id = table_id;
    spec.htm_index = index.name;
    spec.ra_column = def.column_index(index.htm->ra_column);
    spec.dec_column = def.column_index(index.htm->dec_column);
    spec.htm_depth = index.htm->depth;
    return spec;
  }
  return Status(ErrorCode::kFailedPrecondition,
                "table " + def.name + " has no HTM index");
}

Status check_cone_radius(double radius_deg) {
  if (std::isfinite(radius_deg) && radius_deg >= 0) return Status::ok();
  return Status(ErrorCode::kInvalidArgument,
                "cone radius must be finite and non-negative, got " +
                    std::to_string(radius_deg));
}

Result<std::vector<Row>> cone_search(const ReadView& view,
                                     const SpatialTableSpec& spec,
                                     double ra_deg, double dec_deg,
                                     double radius_deg, OpCosts* costs) {
  SKY_RETURN_IF_ERROR(check_cone_radius(radius_deg));
  const htm::Vec3 center = htm::radec_to_vector(ra_deg, dec_deg);
  const std::vector<htm::IdRange> cover =
      htm::cone_cover(center, radius_deg, spec.htm_depth);
  std::vector<Row> out;
  for (const htm::IdRange& range : cover) {
    index::KeyEncoder lo;
    index::KeyEncoder hi;
    lo.append_int64(static_cast<int64_t>(range.first));
    hi.append_int64(static_cast<int64_t>(range.last));
    SKY_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        view.index_encoded_range(spec.table_id, spec.htm_index, lo.take(),
                                 hi.take()));
    filter_cone(std::move(rows), spec, center, radius_deg, costs, out);
  }
  return out;
}

void filter_cone(std::vector<Row> rows, const SpatialTableSpec& spec,
                 const htm::Vec3& center, double radius_deg, OpCosts* costs,
                 std::vector<Row>& out) {
  for (Row& row : rows) {
    const double row_ra = row[static_cast<size_t>(spec.ra_column)].as_f64();
    const double row_dec = row[static_cast<size_t>(spec.dec_column)].as_f64();
    if (costs != nullptr) {
      ++costs->zone_scan_rows;
      ++costs->xmatch_candidates;
    }
    if (htm::angular_distance_deg(center,
                                  htm::radec_to_vector(row_ra, row_dec)) <=
        radius_deg) {
      if (costs != nullptr) ++costs->xmatch_pairs;
      out.push_back(std::move(row));
    }
  }
}

XmatchResult xmatch_arrays(const std::vector<double>& a_ra,
                           const std::vector<double>& a_dec,
                           const std::vector<double>& b_ra,
                           const std::vector<double>& b_dec,
                           const XmatchOptions& options) {
  XmatchResult result;
  XmatchReport& report = result.report;
  const core::SpatialPolicy policy = options.policy.normalized();
  const double radius = options.radius_deg;
  const double height = policy.zone_height_deg;
  const size_t zones_total =
      static_cast<size_t>(std::max(1.0, std::ceil(180.0 / height)));
  report.radius_deg = radius;
  report.zone_height_deg = height;
  report.workers = policy.xmatch_workers;
  report.zones_total = zones_total;

  const auto zone_of = [&](double dec) {
    const double z = std::floor((dec + 90.0) / height);
    if (z < 0) return static_cast<size_t>(0);
    if (z >= static_cast<double>(zones_total)) return zones_total - 1;
    return static_cast<size_t>(z);
  };

  // Bucket catalog B by zone and ra-sort each bucket; precompute every B
  // unit vector once (each may be distance-tested by many probes).
  std::vector<std::vector<BucketEntry>> b_zones(zones_total);
  std::vector<htm::Vec3> b_vec(b_ra.size());
  for (uint32_t i = 0; i < b_ra.size(); ++i) {
    const double ra = normalize_ra(b_ra[i]);
    b_zones[zone_of(b_dec[i])].push_back(BucketEntry{ra, i});
    b_vec[i] = htm::radec_to_vector(ra, b_dec[i]);
  }
  for (std::vector<BucketEntry>& bucket : b_zones) {
    std::sort(bucket.begin(), bucket.end(),
              [](const BucketEntry& x, const BucketEntry& y) {
                return x.ra < y.ra || (x.ra == y.ra && x.index < y.index);
              });
  }

  // Bucket catalog A by zone (input order kept within each zone). Each
  // occupied A zone is one independent task.
  std::vector<std::vector<uint32_t>> a_zones(zones_total);
  for (uint32_t i = 0; i < a_ra.size(); ++i) {
    a_zones[zone_of(a_dec[i])].push_back(i);
  }
  std::vector<size_t> occupied;
  for (size_t z = 0; z < zones_total; ++z) {
    if (!a_zones[z].empty()) occupied.push_back(z);
  }
  report.zones_occupied = occupied.size();

  // Every task writes only its own slots; the fan-out needs no locking.
  std::vector<std::vector<MatchPair>> task_pairs(occupied.size());
  std::vector<ZoneCost> task_costs(occupied.size());
  const std::function<void(int, size_t)> body = [&](int, size_t task) {
    const size_t z = occupied[task];
    ZoneCost& cost = task_costs[task];
    cost.zone = static_cast<int>(z);
    cost.a_rows = static_cast<int64_t>(a_zones[z].size());
    std::vector<MatchPair>& out = task_pairs[task];
    for (const uint32_t ai : a_zones[z]) {
      const double ra = normalize_ra(a_ra[ai]);
      const double dec = a_dec[ai];
      const htm::Vec3 probe = htm::radec_to_vector(ra, dec);
      const size_t z_lo = zone_of(dec - radius);
      const size_t z_hi = zone_of(dec + radius);
      for (size_t z2 = z_lo; z2 <= z_hi; ++z2) {
        const std::vector<BucketEntry>& bucket = b_zones[z2];
        if (bucket.empty()) continue;
        const double zone_lo_deg = -90.0 + static_cast<double>(z2) * height;
        const double half_width =
            zone_ra_half_width_deg(radius, zone_lo_deg, zone_lo_deg + height);
        visit_ra_window(
            bucket, ra - half_width, ra + half_width,
            [&](const BucketEntry& entry) {
              ++cost.scanned;
              if (std::fabs(b_dec[entry.index] - dec) > radius) return;
              ++cost.candidates;
              const double sep =
                  htm::angular_distance_deg(probe, b_vec[entry.index]);
              if (sep <= radius) {
                ++cost.pairs;
                out.push_back(MatchPair{ai, entry.index, sep});
              }
            });
      }
    }
  };
  if (options.fan_out) {
    options.fan_out(policy.xmatch_workers, occupied.size(), body);
  } else {
    for (size_t task = 0; task < occupied.size(); ++task) body(0, task);
  }

  // Concatenate in zone order — the output is identical for any worker
  // count or schedule.
  size_t total = 0;
  for (const std::vector<MatchPair>& pairs : task_pairs) {
    total += pairs.size();
  }
  result.pairs.reserve(total);
  for (std::vector<MatchPair>& pairs : task_pairs) {
    result.pairs.insert(result.pairs.end(), pairs.begin(), pairs.end());
  }
  report.per_zone = std::move(task_costs);
  for (const ZoneCost& cost : report.per_zone) {
    report.costs.zone_scan_rows += cost.scanned;
    report.costs.xmatch_candidates += cost.candidates;
    report.costs.xmatch_pairs += cost.pairs;
  }
  report.pairs = static_cast<int64_t>(result.pairs.size());
  return result;
}

PositionColumns gather_positions(std::vector<Row> rows,
                                 const SpatialTableSpec& spec,
                                 std::vector<Row>* rows_out) {
  PositionColumns positions;
  positions.ra.reserve(rows.size());
  positions.dec.reserve(rows.size());
  for (const Row& row : rows) {
    positions.ra.push_back(row[static_cast<size_t>(spec.ra_column)].as_f64());
    positions.dec.push_back(
        row[static_cast<size_t>(spec.dec_column)].as_f64());
  }
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return positions;
}

Result<XmatchResult> xmatch(const ReadView& view_a,
                            const SpatialTableSpec& spec_a,
                            const ReadView& view_b,
                            const SpatialTableSpec& spec_b,
                            const XmatchOptions& options,
                            std::vector<Row>* a_rows_out,
                            std::vector<Row>* b_rows_out) {
  if (!view_a.valid() || !view_b.valid()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "xmatch on an empty ReadView");
  }
  const auto all = [](const Row&) { return true; };
  const PositionColumns a = gather_positions(
      view_a.scan_collect(spec_a.table_id, all), spec_a, a_rows_out);
  const PositionColumns b = gather_positions(
      view_b.scan_collect(spec_b.table_id, all), spec_b, b_rows_out);
  return xmatch_arrays(a.ra, a.dec, b.ra, b.dec, options);
}

}  // namespace sky::db::spatial
