// ShardRouter: which shard owns a row.
//
// The repository is partitioned across M independent engines by HTM trixel
// range (core::ShardPolicy): trixel ids at the policy depth form one
// contiguous integer space, each shard owns one contiguous slice of it, and
// a row routes by the slice containing its position's trixel. Because a
// trixel's descendants share its id as a bit prefix (htm/htm.h), any index
// or column keyed at a depth >= the policy depth maps to exactly one shard
// by ancestor — which is what lets scatter-gather cone searches split an
// index probe range into per-shard segments instead of broadcasting.
//
// Per-table routing resolution:
//   1. a declared HTM index (IndexDef::htm)      -> by (ra, dec) position
//   2. NOT NULL double columns named "ra"/"dec"  -> by (ra, dec) position
//   3. a NOT NULL int64 column named "htmid"     -> by trixel ancestor
//   4. anything else -> block-cyclic on the first integer primary-key
//      column: 256-row id blocks route by a hash of the block index, so
//      contiguous ids stay on one shard (sequential-id catalogs split
//      batches into long same-shard runs) while unit-prefixed id spaces
//      still spread evenly. PKs with no integer column take an FNV hash of
//      the encoded first PK column.
//
// Boundaries default to equal slices of the trixel id space;
// plan_boundaries() derives equal-frequency boundaries from a position
// sample instead — the JHU parallel-zone layout, where partitions follow
// the observed data distribution, not the raw id space.
#pragma once

#include <cstdint>
#include <vector>

#include "core/shard_policy.h"
#include "db/column_batch.h"
#include "db/row.h"
#include "db/schema.h"
#include "htm/htm.h"

namespace sky::db {

class ShardRouter {
 public:
  ShardRouter(const Schema& schema, const core::ShardPolicy& policy);

  int shard_count() const { return policy_.shard_count; }
  const core::ShardPolicy& policy() const { return policy_; }

  // The contiguous trixel slice (policy depth) owned by `shard`.
  htm::IdRange shard_range(int shard) const;

  // Shard owning a trixel id at any depth >= the policy depth (mapped by
  // ancestor; ids at a shallower depth route by their first descendant).
  int shard_of_trixel(uint64_t trixel_id) const;
  int shard_of_position(double ra_deg, double dec_deg) const;

  // Route one row of `table_id` (full row / columnar row).
  int shard_of_row(uint32_t table_id, const Row& row) const;
  int shard_of_column_row(uint32_t table_id, const ColumnBatch& batch,
                          size_t row) const;

  // Is the table routed by sky position (rules 1-3)? Spatially routed
  // tables keep each index-depth trixel's rows on one shard.
  bool spatial(uint32_t table_id) const;
  // Can the owner be derived from the primary key alone? True for
  // block-cyclic tables — point lookups go straight to one shard instead of
  // probing all of them.
  bool pk_routable(uint32_t table_id) const;
  int shard_of_pk(uint32_t table_id, const Row& pk_values) const;

  // Split [first, last) — trixel ids at `depth` — into per-shard segments
  // in ascending id order. With depth >= the policy depth the segments are
  // exact (each id belongs to one shard); a shallower depth falls back to
  // repeating the whole range on every possibly-owning shard (the caller
  // must merge by key).
  struct Segment {
    int shard = 0;
    uint64_t first = 0;  // inclusive
    uint64_t last = 0;   // exclusive
  };
  std::vector<Segment> segments_for_range(uint64_t first, uint64_t last,
                                          int depth) const;

  // Equal-frequency partition boundaries (size `shards` - 1, for
  // ShardPolicy::boundaries) from a sample of trixel ids at the policy
  // depth: each slice receives ~the same number of sampled trixels.
  static std::vector<uint64_t> plan_boundaries(std::vector<uint64_t> sample,
                                               int shards);

 private:
  enum class Kind { kPosition, kHtmColumn, kPkCyclic, kPkHash };
  struct TableRoute {
    Kind kind = Kind::kPkHash;
    int ra_column = -1;   // kPosition
    int dec_column = -1;  // kPosition
    int htm_column = -1;  // kHtmColumn
    int pk_column = -1;   // kPkCyclic: the first integer PK column
    ColumnType pk_type = ColumnType::kInt64;
  };

  int shard_of_policy_trixel(uint64_t trixel_at_policy_depth) const;
  int route_by_pk_value(const TableRoute& route, const Value& value) const;

  core::ShardPolicy policy_;
  const Schema* schema_;
  // Range starts of shards 1..M-1 (trixel ids at the policy depth).
  std::vector<uint64_t> boundaries_;
  std::vector<TableRoute> routes_;  // by table id
};

}  // namespace sky::db
