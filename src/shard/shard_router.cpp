#include "shard/shard_router.h"

#include <algorithm>

#include "db/table.h"
#include "index/key_codec.h"

namespace sky::db {

namespace {

// Rows of one contiguous integer-PK block stay on one shard; sequential-id
// catalogs then split batches into same-shard runs this long.
constexpr int64_t kPkBlockRows = 256;

// Depth encoded in a trixel id without the Result plumbing: ids at depth d
// occupy [2^(3+2d), 2^(4+2d)), so the depth falls out of the bit width.
// Invalid ids (< 8) clamp to depth 0.
int fast_depth_of_id(uint64_t id) {
  if (id < 8) return 0;
  int width = 0;
  while ((id >> width) != 0) ++width;
  return (width - 4) / 2;
}

// splitmix64 finalizer: full avalanche, so every input bit reaches the low
// bits. Plain FNV-1a (or a raw block index) is unusable modulo a small
// shard count — an input byte whose low bits are zero leaves hash % M
// untouched, and survey id spaces are exactly that shape (unit prefixes at
// power-of-two strides).
uint64_t mix64(uint64_t bits) {
  bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ull;
  bits = (bits ^ (bits >> 27)) * 0x94d049bb133111ebull;
  return bits ^ (bits >> 31);
}

// FNV-1a (finalized) over an encoded key — a deterministic spread for
// tables whose PK has no integer column.
uint64_t fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return mix64(hash);
}

bool integer_type(ColumnType type) {
  return type == ColumnType::kInt32 || type == ColumnType::kInt64 ||
         type == ColumnType::kTimestamp;
}

int64_t integer_of(const Value& value) {
  return value.is_i32() ? value.as_i32() : value.as_i64();
}

}  // namespace

ShardRouter::ShardRouter(const Schema& schema,
                         const core::ShardPolicy& policy)
    : policy_(policy.normalized()), schema_(&schema) {
  const int shards = policy_.shard_count;
  if (!policy_.boundaries.empty()) {
    boundaries_ = policy_.boundaries;
    std::sort(boundaries_.begin(), boundaries_.end());
  } else if (shards > 1) {
    // Equal slices of the trixel id space [8*4^d, 16*4^d).
    const uint64_t lo = 8ull << (2 * policy_.htm_depth);
    const uint64_t span = lo;  // 16*4^d - 8*4^d == 8*4^d
    boundaries_.reserve(static_cast<size_t>(shards) - 1);
    for (int s = 1; s < shards; ++s) {
      boundaries_.push_back(
          lo + span * static_cast<uint64_t>(s) /
                   static_cast<uint64_t>(shards));
    }
  }

  routes_.resize(static_cast<size_t>(schema.table_count()));
  for (uint32_t tid = 0; tid < routes_.size(); ++tid) {
    const TableDef& def = schema.table(tid);
    TableRoute route;
    // Rules 1-3 (spatial).
    for (const IndexDef& index : def.indexes) {
      if (!index.htm.has_value()) continue;
      route.kind = Kind::kPosition;
      route.ra_column = def.column_index(index.htm->ra_column);
      route.dec_column = def.column_index(index.htm->dec_column);
      break;
    }
    if (route.kind != Kind::kPosition) {
      const int ra = def.column_index("ra");
      const int dec = def.column_index("dec");
      const auto usable = [&def](int col) {
        return col >= 0 &&
               def.columns[static_cast<size_t>(col)].type ==
                   ColumnType::kDouble &&
               !def.columns[static_cast<size_t>(col)].nullable;
      };
      if (usable(ra) && usable(dec)) {
        route.kind = Kind::kPosition;
        route.ra_column = ra;
        route.dec_column = dec;
      }
    }
    if (route.kind != Kind::kPosition) {
      const int htmid = def.column_index("htmid");
      if (htmid >= 0 &&
          def.columns[static_cast<size_t>(htmid)].type ==
              ColumnType::kInt64 &&
          !def.columns[static_cast<size_t>(htmid)].nullable) {
        route.kind = Kind::kHtmColumn;
        route.htm_column = htmid;
      }
    }
    // Rule 4: block-cyclic on the first integer PK column; FNV of the
    // first PK column otherwise.
    if (route.kind != Kind::kPosition && route.kind != Kind::kHtmColumn &&
        !def.primary_key.empty()) {
      for (const std::string& pk_name : def.primary_key) {
        const int col = def.column_index(pk_name);
        if (col >= 0 &&
            integer_type(def.columns[static_cast<size_t>(col)].type)) {
          route.kind = Kind::kPkCyclic;
          route.pk_column = col;
          route.pk_type = def.columns[static_cast<size_t>(col)].type;
          break;
        }
      }
      if (route.kind != Kind::kPkCyclic) {
        route.kind = Kind::kPkHash;
        route.pk_column = def.column_index(def.primary_key.front());
        route.pk_type =
            def.columns[static_cast<size_t>(route.pk_column)].type;
      }
    }
    routes_[tid] = route;
  }
}

htm::IdRange ShardRouter::shard_range(int shard) const {
  const uint64_t lo = 8ull << (2 * policy_.htm_depth);
  const uint64_t hi = 16ull << (2 * policy_.htm_depth);
  htm::IdRange range{lo, hi};
  if (shard > 0) range.first = boundaries_[static_cast<size_t>(shard) - 1];
  if (static_cast<size_t>(shard) < boundaries_.size()) {
    range.last = boundaries_[static_cast<size_t>(shard)];
  }
  return range;
}

int ShardRouter::shard_of_policy_trixel(uint64_t trixel) const {
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), trixel);
  return static_cast<int>(it - boundaries_.begin());
}

int ShardRouter::shard_of_trixel(uint64_t trixel_id) const {
  if (policy_.shard_count <= 1) return 0;
  const int depth = fast_depth_of_id(trixel_id);
  uint64_t at_policy = trixel_id;
  if (depth > policy_.htm_depth) {
    at_policy = trixel_id >> (2 * (depth - policy_.htm_depth));
  } else if (depth < policy_.htm_depth) {
    at_policy = trixel_id << (2 * (policy_.htm_depth - depth));
  }
  return shard_of_policy_trixel(at_policy);
}

int ShardRouter::shard_of_position(double ra_deg, double dec_deg) const {
  if (policy_.shard_count <= 1) return 0;
  return shard_of_policy_trixel(
      htm::htm_id_radec(ra_deg, dec_deg, policy_.htm_depth));
}

int ShardRouter::route_by_pk_value(const TableRoute& route,
                                   const Value& value) const {
  const int shards = policy_.shard_count;
  if (shards <= 1 || value.is_null()) return 0;
  if (route.kind == Kind::kPkCyclic && !value.is_str()) {
    const int64_t v = integer_of(value);
    // Floor division so negative ids stay block-contiguous too.
    int64_t block = v / kPkBlockRows;
    if (v < 0 && v % kPkBlockRows != 0) --block;
    // Hash the block index rather than taking it modulo the shard count:
    // survey id spaces are often unit-prefixed (each observation unit's ids
    // start at a huge power-of-two stride), so raw block % M would park
    // every unit's sub-256-row block on the same shard. Hashing spreads any
    // id-space structure while keeping 256-row runs contiguous for the
    // batch run-splitter.
    return static_cast<int>(mix64(static_cast<uint64_t>(block)) %
                            static_cast<uint64_t>(shards));
  }
  index::KeyEncoder encoder;
  append_value_to_key(encoder, value, route.pk_type);
  return static_cast<int>(fnv1a(encoder.take()) %
                          static_cast<uint64_t>(shards));
}

int ShardRouter::shard_of_row(uint32_t table_id, const Row& row) const {
  if (policy_.shard_count <= 1) return 0;
  const TableRoute& route = routes_[table_id];
  switch (route.kind) {
    case Kind::kPosition: {
      const size_t ra_col = static_cast<size_t>(route.ra_column);
      const size_t dec_col = static_cast<size_t>(route.dec_column);
      if (ra_col < row.size() && dec_col < row.size() &&
          row[ra_col].is_f64() && row[dec_col].is_f64()) {
        return shard_of_position(row[ra_col].as_f64(), row[dec_col].as_f64());
      }
      break;  // malformed row: route by PK so the owner reports the error
    }
    case Kind::kHtmColumn: {
      const size_t col = static_cast<size_t>(route.htm_column);
      if (col < row.size() && row[col].is_i64()) {
        return shard_of_trixel(static_cast<uint64_t>(row[col].as_i64()));
      }
      break;
    }
    case Kind::kPkCyclic:
    case Kind::kPkHash:
      break;
  }
  if (route.pk_column >= 0 &&
      static_cast<size_t>(route.pk_column) < row.size()) {
    return route_by_pk_value(route,
                             row[static_cast<size_t>(route.pk_column)]);
  }
  return 0;
}

int ShardRouter::shard_of_column_row(uint32_t table_id,
                                     const ColumnBatch& batch,
                                     size_t row) const {
  if (policy_.shard_count <= 1) return 0;
  const TableRoute& route = routes_[table_id];
  switch (route.kind) {
    case Kind::kPosition: {
      const size_t ra = static_cast<size_t>(route.ra_column);
      const size_t dec = static_cast<size_t>(route.dec_column);
      if (ra < batch.num_columns() && dec < batch.num_columns() &&
          !batch.is_null(row, ra) && !batch.is_null(row, dec)) {
        return shard_of_position(batch.f64_at(row, ra),
                                 batch.f64_at(row, dec));
      }
      break;
    }
    case Kind::kHtmColumn: {
      const size_t col = static_cast<size_t>(route.htm_column);
      if (col < batch.num_columns() && !batch.is_null(row, col)) {
        return shard_of_trixel(static_cast<uint64_t>(batch.i64_at(row, col)));
      }
      break;
    }
    case Kind::kPkCyclic:
    case Kind::kPkHash:
      break;
  }
  if (route.pk_column >= 0 &&
      static_cast<size_t>(route.pk_column) < batch.num_columns()) {
    return route_by_pk_value(
        route, batch.value(row, static_cast<size_t>(route.pk_column)));
  }
  return 0;
}

bool ShardRouter::spatial(uint32_t table_id) const {
  const Kind kind = routes_[table_id].kind;
  return kind == Kind::kPosition || kind == Kind::kHtmColumn;
}

bool ShardRouter::pk_routable(uint32_t table_id) const {
  const Kind kind = routes_[table_id].kind;
  return kind == Kind::kPkCyclic || kind == Kind::kPkHash;
}

int ShardRouter::shard_of_pk(uint32_t table_id, const Row& pk_values) const {
  if (policy_.shard_count <= 1 || pk_values.empty()) return 0;
  const TableRoute& route = routes_[table_id];
  // The routed PK column is the first integer PK column; locate its
  // position within the PK value tuple (PK order, not column order).
  const TableDef& def = schema_->table(table_id);
  for (size_t i = 0; i < def.primary_key.size() && i < pk_values.size();
       ++i) {
    if (def.column_index(def.primary_key[i]) == route.pk_column) {
      return route_by_pk_value(route, pk_values[i]);
    }
  }
  return route_by_pk_value(route, pk_values.front());
}

std::vector<ShardRouter::Segment> ShardRouter::segments_for_range(
    uint64_t first, uint64_t last, int depth) const {
  std::vector<Segment> segments;
  if (first >= last) return segments;
  if (policy_.shard_count <= 1) {
    segments.push_back(Segment{0, first, last});
    return segments;
  }
  if (depth < policy_.htm_depth) {
    // Coarse ids may straddle shard boundaries: conservatively repeat the
    // whole range on every shard the end ids could reach.
    const int down = 2 * (policy_.htm_depth - depth);
    const uint64_t lo_desc = first << down;
    const uint64_t hi_desc =
        ((last - 1) << down) | ((1ull << down) - 1ull);
    const int s_first = shard_of_policy_trixel(lo_desc);
    const int s_last = shard_of_policy_trixel(hi_desc);
    for (int s = s_first; s <= s_last; ++s) {
      segments.push_back(Segment{s, first, last});
    }
    return segments;
  }
  const int up = 2 * (depth - policy_.htm_depth);
  uint64_t cursor = first;
  while (cursor < last) {
    const int shard = shard_of_policy_trixel(cursor >> up);
    uint64_t end = last;
    if (static_cast<size_t>(shard) < boundaries_.size()) {
      const uint64_t next = boundaries_[static_cast<size_t>(shard)] << up;
      end = std::min(end, next);
    }
    segments.push_back(Segment{shard, cursor, end});
    cursor = end;
  }
  return segments;
}

std::vector<uint64_t> ShardRouter::plan_boundaries(
    std::vector<uint64_t> sample, int shards) {
  std::vector<uint64_t> boundaries;
  if (shards <= 1 || sample.empty()) return boundaries;
  std::sort(sample.begin(), sample.end());
  boundaries.reserve(static_cast<size_t>(shards) - 1);
  for (int s = 1; s < shards; ++s) {
    const size_t at = sample.size() * static_cast<size_t>(s) /
                      static_cast<size_t>(shards);
    boundaries.push_back(sample[at]);
  }
  return boundaries;
}

}  // namespace sky::db
