#include <algorithm>
#include <utility>

#include "db/table.h"
#include "htm/htm.h"
#include "index/key_codec.h"
#include "shard/sharded_repository.h"

namespace sky::db {

namespace {

Status empty_view_error() {
  return Status(ErrorCode::kFailedPrecondition,
                "query on an empty ShardedReadView");
}

const IndexDef* find_index(const TableDef& def, std::string_view name) {
  for (const IndexDef& index : def.indexes) {
    if (index.name == name) return &index;
  }
  return nullptr;
}

}  // namespace

std::vector<Row> ShardedReadView::merge_by_key(
    std::vector<std::vector<Row>> per_shard,
    const std::function<std::string(const Row&)>& key) {
  size_t total = 0;
  std::vector<std::vector<std::string>> keys(per_shard.size());
  for (size_t s = 0; s < per_shard.size(); ++s) {
    keys[s].reserve(per_shard[s].size());
    for (const Row& row : per_shard[s]) keys[s].push_back(key(row));
    total += per_shard[s].size();
  }
  std::vector<Row> out;
  out.reserve(total);
  std::vector<size_t> pos(per_shard.size(), 0);
  while (out.size() < total) {
    // Smallest current key wins; ties go to the lowest shard (shard-major).
    int best = -1;
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (pos[s] >= per_shard[s].size()) continue;
      if (best < 0 ||
          keys[s][pos[s]] < keys[static_cast<size_t>(best)]
                                [pos[static_cast<size_t>(best)]]) {
        best = static_cast<int>(s);
      }
    }
    const size_t b = static_cast<size_t>(best);
    out.push_back(std::move(per_shard[b][pos[b]]));
    ++pos[b];
  }
  return out;
}

int64_t ShardedReadView::row_count(uint32_t table_id) const {
  int64_t total = 0;
  for (const ReadView& view : views_) total += view.row_count(table_id);
  return total;
}

Result<Row> ShardedReadView::pk_lookup(uint32_t table_id,
                                       const Row& pk_values) const {
  if (!valid()) return empty_view_error();
  const ShardRouter& router = repo_->router();
  if (router.pk_routable(table_id)) {
    // The PK determines the owner: one probe, no scatter.
    const int shard = router.shard_of_pk(table_id, pk_values);
    return views_[static_cast<size_t>(shard)].pk_lookup(table_id, pk_values);
  }
  // Position-routed table: the PK alone does not name the shard. Probe in
  // shard order, short-circuiting on the first hit (PKs are unique, so at
  // most one shard answers).
  Status miss = Status::ok();
  for (const ReadView& view : views_) {
    auto row = view.pk_lookup(table_id, pk_values);
    if (row.is_ok()) return row;
    if (row.status().code() != ErrorCode::kNotFound) return row.status();
    miss = row.status();
  }
  return miss;
}

Result<std::vector<Row>> ShardedReadView::scatter_merge(
    uint32_t table_id, std::optional<std::string_view> index_name,
    const std::function<Result<std::vector<Row>>(const ReadView&)>& read)
    const {
  if (!valid()) return empty_view_error();
  std::vector<std::vector<Row>> per_shard;
  per_shard.reserve(views_.size());
  for (const ReadView& view : views_) {
    SKY_ASSIGN_OR_RETURN(std::vector<Row> rows, read(view));
    per_shard.push_back(std::move(rows));
  }
  // Merge keys are re-encoded from each row: the PK key each shard's PK
  // tree ordered its run by, or the index key without its row-id suffix
  // (per-shard row ids are not comparable, so merges order by value only).
  const TableDef& def = repo_->schema().table(table_id);
  if (!index_name.has_value()) {
    const std::vector<int> pk_columns = column_indices(def, def.primary_key);
    return merge_by_key(std::move(per_shard), [&](const Row& row) {
      return encode_key(pk_columns, RowCells(def, row));
    });
  }
  const IndexDef* index = find_index(def, *index_name);
  if (index == nullptr) {
    return Status(ErrorCode::kNotFound, "no index named " +
                                            std::string(*index_name));
  }
  const std::vector<int> columns = column_indices(def, index->columns);
  return merge_by_key(std::move(per_shard), [&](const Row& row) {
    return encode_index_key(*index, columns, RowCells(def, row), std::nullopt);
  });
}

Result<std::vector<Row>> ShardedReadView::pk_range(uint32_t table_id,
                                                   const Row& lo,
                                                   const Row& hi) const {
  return scatter_merge(table_id, std::nullopt, [&](const ReadView& view) {
    return view.pk_range(table_id, lo, hi);
  });
}

Result<std::vector<Row>> ShardedReadView::index_range(
    uint32_t table_id, std::string_view index_name, const Row& lo,
    const Row& hi) const {
  return scatter_merge(table_id, index_name, [&](const ReadView& view) {
    return view.index_range(table_id, index_name, lo, hi);
  });
}

Result<std::vector<Row>> ShardedReadView::pk_encoded_range(
    uint32_t table_id, const std::string& lo, const std::string& hi) const {
  return scatter_merge(table_id, std::nullopt, [&](const ReadView& view) {
    return view.pk_encoded_range(table_id, lo, hi);
  });
}

Result<std::vector<Row>> ShardedReadView::index_encoded_range(
    uint32_t table_id, std::string_view index_name, const std::string& lo,
    const std::string& hi) const {
  return scatter_merge(table_id, index_name, [&](const ReadView& view) {
    return view.index_encoded_range(table_id, index_name, lo, hi);
  });
}

std::vector<Row> ShardedReadView::scan_collect(
    uint32_t table_id, const std::function<bool(const Row&)>& pred,
    OpCosts* costs) const {
  std::vector<Row> out;
  for (const ReadView& view : views_) {
    std::vector<Row> rows = view.scan_collect(table_id, pred, costs);
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

Status ShardedReadView::scan_heap(
    uint32_t table_id,
    const std::function<void(storage::SlotId, std::string_view)>& fn) const {
  if (!valid()) return empty_view_error();
  for (const ReadView& view : views_) {
    SKY_RETURN_IF_ERROR(view.scan_heap(table_id, fn));
  }
  return Status::ok();
}

namespace shard {

Result<std::vector<Row>> cone_search(const ShardedReadView& view,
                                     const spatial::SpatialTableSpec& spec,
                                     double ra_deg, double dec_deg,
                                     double radius_deg, OpCosts* costs,
                                     int* shards_probed) {
  if (!view.valid()) return empty_view_error();
  SKY_RETURN_IF_ERROR(spatial::check_cone_radius(radius_deg));
  const ShardRouter& router = view.repository().router();
  const htm::Vec3 center = htm::radec_to_vector(ra_deg, dec_deg);
  const std::vector<htm::IdRange> cover =
      htm::cone_cover(center, radius_deg, spec.htm_depth);
  // One pass in cover order is already key-ascending, whatever the index
  // depth. Segments come in ascending shard order; each shard owns one
  // contiguous slice of policy-depth trixels, ascending with the shard
  // index; and the table routes each row by its position's policy-depth
  // trixel (ShardRouter rule 1, on the same first HTM index
  // resolve_spatial picks). A trixel id at the index depth is the bit
  // prefix of the row's policy-depth id (htm_id descends one path), so no
  // row on a shard has a smaller index key than a row on an earlier shard.
  // At index depth >= policy depth the segments are disjoint; for a coarser
  // index, segments_for_range repeats the range on every candidate shard,
  // and a trixel straddling two shards yields the lower shard's rows first.
  std::vector<char> touched(static_cast<size_t>(view.shard_count()), 0);
  std::vector<Row> out;
  for (const htm::IdRange& range : cover) {
    for (const ShardRouter::Segment& seg :
         router.segments_for_range(range.first, range.last, spec.htm_depth)) {
      touched[static_cast<size_t>(seg.shard)] = 1;
      index::KeyEncoder lo;
      index::KeyEncoder hi;
      lo.append_int64(static_cast<int64_t>(seg.first));
      hi.append_int64(static_cast<int64_t>(seg.last));
      SKY_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          view.shard_view(seg.shard).index_encoded_range(
              spec.table_id, spec.htm_index, lo.take(), hi.take()));
      spatial::filter_cone(std::move(rows), spec, center, radius_deg, costs,
                           out);
    }
  }
  if (shards_probed != nullptr) {
    *shards_probed = static_cast<int>(
        std::count(touched.begin(), touched.end(), static_cast<char>(1)));
  }
  return out;
}

Result<spatial::XmatchResult> xmatch(const ShardedReadView& view_a,
                                     const spatial::SpatialTableSpec& spec_a,
                                     const ShardedReadView& view_b,
                                     const spatial::SpatialTableSpec& spec_b,
                                     const spatial::XmatchOptions& options,
                                     std::vector<Row>* a_rows_out,
                                     std::vector<Row>* b_rows_out) {
  if (!view_a.valid() || !view_b.valid()) return empty_view_error();
  // Shard-major concatenation: deterministic for any worker count, and
  // MatchPair indices resolve against exactly this order.
  const auto all = [](const Row&) { return true; };
  const spatial::PositionColumns a = spatial::gather_positions(
      view_a.scan_collect(spec_a.table_id, all), spec_a, a_rows_out);
  const spatial::PositionColumns b = spatial::gather_positions(
      view_b.scan_collect(spec_b.table_id, all), spec_b, b_rows_out);
  return spatial::xmatch_arrays(a.ra, a.dec, b.ra, b.dec, options);
}

}  // namespace shard

}  // namespace sky::db
