// Spatial operators over ReadViews: HTM cone search and the zone cross-match.
//
// Both operators are written once against db::ReadView (read_view.h), so
// they run identically on the live engine state and on a pinned snapshot —
// the paper's repository answers cone searches *while* the nightly load is
// appending, which on a snapshot view touches no latch the loaders need.
//
// Cone search uses the table's HTM-keyed secondary index (IndexDef::htm):
// htm::cone_cover turns the cap into a handful of contiguous trixel-id
// ranges, each becoming one index range probe, and survivors are
// post-filtered by exact angular distance (the cover is conservative).
//
// Cross-match is the classic zone algorithm (Gray et al., "There Goes the
// Neighborhood: Relational Algebra for Spatial Data Search"): rows bucket
// into declination zones of height SpatialPolicy::zone_height_deg; a row in
// catalog A only needs candidates from the B zones intersecting
// [dec - r, dec + r], scanned through a per-zone ra-sorted window of
// half-width r / cos(dec) (two segments when the window wraps 0/360).
// Zones are independent, so they fan out across workers — through the
// pluggable FanOut hook, wired to core::LoadCoordinator::task_runner() by
// callers that link the core library (db/ itself cannot). Per-zone outputs
// are concatenated in zone order, making the result deterministic for any
// worker count or schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/spatial_policy.h"
#include "db/op_costs.h"
#include "db/read_view.h"
#include "db/row.h"
#include "htm/htm.h"

namespace sky::db::spatial {

// Resolved spatial metadata of one table: its HTM-keyed secondary index and
// the position columns behind it.
struct SpatialTableSpec {
  uint32_t table_id = 0;
  std::string htm_index;  // name of the HTM index on the table
  int ra_column = -1;     // column indices in the table's row layout
  int dec_column = -1;
  int htm_depth = core::SpatialPolicy{}.htm_depth;
};

// Find the (first) HTM index declared on the table; kFailedPrecondition if
// the table has none.
Result<SpatialTableSpec> resolve_spatial(const Engine& engine,
                                         uint32_t table_id);

// All rows within radius_deg of (ra_deg, dec_deg), via the HTM index:
// cone_cover id ranges -> index range probes -> exact-distance post-filter.
// `costs` (optional) tallies zone_scan_rows (rows pulled from the index),
// xmatch_candidates (exact tests), xmatch_pairs (rows returned). Fails
// closed (kFailedPrecondition) when the index is unavailable in this view,
// like any ReadView index read, and with kInvalidArgument when radius_deg
// is NaN, infinite or negative.
Result<std::vector<Row>> cone_search(const ReadView& view,
                                     const SpatialTableSpec& spec,
                                     double ra_deg, double dec_deg,
                                     double radius_deg,
                                     OpCosts* costs = nullptr);

// The radius check of every cone search (this one and the sharded
// repository's): kInvalidArgument unless radius_deg is finite and >= 0.
Status check_cone_radius(double radius_deg);

// The exact-distance post-filter of every cone search (this one and the
// sharded repository's): moves the rows within radius_deg of `center` to
// `out`, in order. The HTM cover is conservative — a returned trixel may
// poke outside the cap — so every row is tested. `costs` (optional) tallies
// zone_scan_rows and xmatch_candidates per row tested, xmatch_pairs per row
// kept.
void filter_cone(std::vector<Row> rows, const SpatialTableSpec& spec,
                 const htm::Vec3& center, double radius_deg, OpCosts* costs,
                 std::vector<Row>& out);

// Parallel executor hook: run `tasks` task bodies on up to `workers`
// workers. body(worker, task) must be invoked exactly once per task index in
// [0, tasks); invocations for different tasks may be concurrent, and each
// task writes only its own output slot, so implementations need no locking
// beyond joining the workers before returning. A default-constructed
// (empty) FanOut runs tasks serially in index order.
using FanOut = std::function<void(
    int workers, size_t tasks,
    const std::function<void(int worker, size_t task)>& body)>;

struct XmatchOptions {
  double radius_deg = 1.0 / 3600.0;  // 1 arcsec, a typical match tolerance
  // zone_height_deg and xmatch_workers drive the zone bucketing and fan-out
  // (htm_depth is not used by the zone matcher).
  core::SpatialPolicy policy;
  FanOut fan_out;  // empty = serial
};

// One matched pair: indices into the two input catalogs (for the engine
// overload, positions in the table's scan_collect order) and the exact
// separation.
struct MatchPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double sep_deg = 0;
};

// Per-zone work accounting, for telemetry and for the bench's worker
// makespan model.
struct ZoneCost {
  int zone = 0;           // declination zone index (0 = south pole edge)
  int64_t a_rows = 0;     // catalog-A rows driving this zone's probes
  int64_t scanned = 0;    // B rows pulled through ra windows
  int64_t candidates = 0; // pairs reaching the exact-distance test
  int64_t pairs = 0;      // pairs within radius
};

struct XmatchReport {
  double radius_deg = 0;
  double zone_height_deg = 0;
  int workers = 1;
  size_t zones_total = 0;     // ceil(180 / zone_height)
  size_t zones_occupied = 0;  // zones with at least one A row (= tasks run)
  int64_t pairs = 0;
  OpCosts costs;              // zone_scan_rows / xmatch_candidates / _pairs
  std::vector<ZoneCost> per_zone;  // occupied zones, ascending zone index
};

struct XmatchResult {
  std::vector<MatchPair> pairs;  // zone order, then A input order within zone
  XmatchReport report;
};

// Cross-match two position arrays (degrees; a_ra/a_dec and b_ra/b_dec must
// be pairwise equal length). This is the allocation-lean entry the bench
// drives at catalog scale; the engine overload below collects positions
// from two ReadViews and delegates here.
XmatchResult xmatch_arrays(const std::vector<double>& a_ra,
                           const std::vector<double>& a_dec,
                           const std::vector<double>& b_ra,
                           const std::vector<double>& b_dec,
                           const XmatchOptions& options);

// One table's positions, in the order its rows were collected.
struct PositionColumns {
  std::vector<double> ra;
  std::vector<double> dec;
};

// The position gather of every xmatch (this one and the sharded
// repository's): the spec's ra/dec columns of `rows`, in order. The rows
// move to `rows_out` when it is given.
PositionColumns gather_positions(std::vector<Row> rows,
                                 const SpatialTableSpec& spec,
                                 std::vector<Row>* rows_out);

// Cross-match two tables as seen by two ReadViews (typically both from the
// same pinned snapshot, so the match is transactionally consistent while
// loaders run). MatchPair indices refer to each table's scan_collect order;
// pass a_rows_out / b_rows_out to receive the collected rows in exactly
// that order for index-to-row resolution.
Result<XmatchResult> xmatch(const ReadView& view_a,
                            const SpatialTableSpec& spec_a,
                            const ReadView& view_b,
                            const SpatialTableSpec& spec_b,
                            const XmatchOptions& options,
                            std::vector<Row>* a_rows_out = nullptr,
                            std::vector<Row>* b_rows_out = nullptr);

}  // namespace sky::db::spatial
