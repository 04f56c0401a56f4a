// ReadView implementation: every read operation once, with a live branch
// (index latch shared, synchronizes with writers) and a snapshot branch
// (pinned chunk data, latch-free). See read_view.h for the contract and
// engine.h for the deprecated per-mode shims that delegate here.
#include "db/read_view.h"

#include <mutex>
#include <shared_mutex>

#include "db/engine.h"
#include "db/snapshot.h"
#include "db/table.h"
#include "index/key_codec.h"

namespace sky::db {

namespace {

Status empty_view_error() {
  return Status(ErrorCode::kFailedPrecondition, "read on an empty ReadView");
}

// Probe key for an HTM-keyed index: the bound tuple is a single int64
// trixel id (IndexDef::htm), not values of the underlying ra/dec columns.
// An empty tuple encodes as the empty key (unbounded).
std::string encode_htm_probe_key(const Row& values) {
  index::KeyEncoder encoder;
  if (!values.empty() && !values[0].is_null()) {
    encoder.append_int64(values[0].as_i64());
  }
  return encoder.take();
}

}  // namespace

int64_t ReadView::row_count(uint32_t table_id) const {
  if (engine_ == nullptr) return 0;
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) return 0;
    return snap_->row_count(table_id);
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) return 0;
  // Heap counters are latch-free atomics (storage/sharded_heap.h).
  return e.tables_[table_id].heap().row_count();
}

Result<Row> ReadView::pk_lookup(uint32_t table_id, const Row& pk_values) const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) {
      return Status(ErrorCode::kNotFound, "bad table id");
    }
    const Table& table = e.tables_[table_id];
    if (pk_values.size() != table.pk_column_indices().size()) {
      return Status(ErrorCode::kInvalidArgument, "pk tuple arity mismatch");
    }
    const std::string key =
        e.encode_tuple_key(table.def(), table.pk_column_indices(), pk_values);
    // Newest run first; PKs are unique, so the first hit is the row.
    for (const SnapshotNode* node = snap_->visible_head(table_id);
         node != nullptr; node = node->prev.get()) {
      const SnapshotChunk& chunk = *node->chunk;
      const size_t i = chunk.pk.lower_bound(key);
      if (i < chunk.pk.size() && chunk.pk.key(i) == key) {
        return decode_row(chunk.rows[chunk.pk.row(i)].bytes);
      }
    }
    return Status(ErrorCode::kNotFound, "no row with given primary key");
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = e.tables_[table_id];
  if (pk_values.size() != table.pk_column_indices().size()) {
    return Status(ErrorCode::kInvalidArgument, "pk tuple arity mismatch");
  }
  const std::string key =
      e.encode_tuple_key(table.def(), table.pk_column_indices(), pk_values);
  // Tree reads synchronize with row publication on the index latch; the
  // heap read inside row_at() takes its extent latch underneath.
  const std::shared_lock<std::shared_mutex> latch(table.index_latch());
  const auto row_id = table.pk_tree().lookup(key);
  if (!row_id.has_value()) {
    return Status(ErrorCode::kNotFound, "no row with given primary key");
  }
  return e.row_at(table, *row_id);
}

Result<std::vector<Row>> ReadView::pk_range(uint32_t table_id, const Row& lo,
                                            const Row& hi) const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) {
      return Status(ErrorCode::kNotFound, "bad table id");
    }
    const Table& table = e.tables_[table_id];
    return e.snapshot_collect_range(
        *snap_, table_id, -1, {},
        e.encode_tuple_key(table.def(), table.pk_column_indices(), lo),
        e.encode_tuple_key(table.def(), table.pk_column_indices(), hi));
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = e.tables_[table_id];
  const std::string lo_key =
      e.encode_tuple_key(table.def(), table.pk_column_indices(), lo);
  const std::string hi_key =
      e.encode_tuple_key(table.def(), table.pk_column_indices(), hi);
  const std::shared_lock<std::shared_mutex> latch(table.index_latch());
  std::vector<Row> rows;
  for (const uint64_t row_id : table.pk_tree().range_lookup(lo_key, hi_key)) {
    SKY_ASSIGN_OR_RETURN(Row row, e.row_at(table, row_id));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<Row>> ReadView::index_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const Row& lo,
                                               const Row& hi) const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) {
      return Status(ErrorCode::kNotFound, "bad table id");
    }
    const Table& table = e.tables_[table_id];
    // def/column_indices are immutable after construction — safe latch-free.
    // `enabled` is deliberately NOT consulted: visibility is per chunk.
    for (size_t s = 0; s < table.secondaries().size(); ++s) {
      const SecondaryIndex& secondary = table.secondaries()[s];
      if (secondary.def.name != index_name) continue;
      const bool htm = secondary.def.htm.has_value();
      return e.snapshot_collect_range(
          *snap_, table_id, static_cast<int>(s), index_name,
          htm ? encode_htm_probe_key(lo)
              : e.encode_tuple_key(table.def(), secondary.column_indices, lo),
          htm ? encode_htm_probe_key(hi)
              : e.encode_tuple_key(table.def(), secondary.column_indices, hi));
    }
    return Status(ErrorCode::kNotFound,
                  "no such index: " + std::string(index_name));
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = e.tables_[table_id];
  for (const SecondaryIndex& secondary : table.secondaries()) {
    if (secondary.def.name != index_name) continue;
    if (!secondary.enabled) {
      return index_unavailable_error(index_name, "index is disabled");
    }
    const bool htm = secondary.def.htm.has_value();
    const std::string lo_key =
        htm ? encode_htm_probe_key(lo)
            : e.encode_tuple_key(table.def(), secondary.column_indices, lo);
    const std::string hi_key =
        htm ? encode_htm_probe_key(hi)
            : e.encode_tuple_key(table.def(), secondary.column_indices, hi);
    const std::shared_lock<std::shared_mutex> latch(table.index_latch());
    std::vector<Row> rows;
    for (const uint64_t row_id : secondary.tree.range_lookup(lo_key, hi_key)) {
      SKY_ASSIGN_OR_RETURN(Row row, e.row_at(table, row_id));
      rows.push_back(std::move(row));
    }
    return rows;
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

Result<std::vector<Row>> ReadView::pk_encoded_range(uint32_t table_id,
                                                    const std::string& lo,
                                                    const std::string& hi)
    const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    return e.snapshot_collect_range(*snap_, table_id, -1, {}, lo, hi);
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = e.tables_[table_id];
  const std::shared_lock<std::shared_mutex> latch(table.index_latch());
  const std::vector<uint64_t> row_ids =
      hi.empty() ? table.pk_tree().range_lookup_unbounded(lo)
                 : table.pk_tree().range_lookup(lo, hi);
  std::vector<Row> rows;
  rows.reserve(row_ids.size());
  for (const uint64_t row_id : row_ids) {
    SKY_ASSIGN_OR_RETURN(Row row, e.row_at(table, row_id));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<Row>> ReadView::index_encoded_range(
    uint32_t table_id, std::string_view index_name, const std::string& lo,
    const std::string& hi) const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) {
      return Status(ErrorCode::kNotFound, "bad table id");
    }
    const Table& table = e.tables_[table_id];
    for (size_t s = 0; s < table.secondaries().size(); ++s) {
      if (table.secondaries()[s].def.name != index_name) continue;
      return e.snapshot_collect_range(*snap_, table_id, static_cast<int>(s),
                                      index_name, lo, hi);
    }
    return Status(ErrorCode::kNotFound,
                  "no such index: " + std::string(index_name));
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  const Table& table = e.tables_[table_id];
  for (const SecondaryIndex& secondary : table.secondaries()) {
    if (secondary.def.name != index_name) continue;
    if (!secondary.enabled) {
      return index_unavailable_error(index_name, "index is disabled");
    }
    const std::shared_lock<std::shared_mutex> latch(table.index_latch());
    const std::vector<uint64_t> row_ids =
        hi.empty() ? secondary.tree.range_lookup_unbounded(lo)
                   : secondary.tree.range_lookup(lo, hi);
    std::vector<Row> rows;
    rows.reserve(row_ids.size());
    for (const uint64_t row_id : row_ids) {
      SKY_ASSIGN_OR_RETURN(Row row, e.row_at(table, row_id));
      rows.push_back(std::move(row));
    }
    return rows;
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

std::vector<Row> ReadView::scan_collect(
    uint32_t table_id, const std::function<bool(const Row&)>& pred,
    OpCosts* costs) const {
  std::vector<Row> rows;
  if (engine_ == nullptr) return rows;
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) return rows;
    OpCosts scratch;
    OpCosts& tally = costs != nullptr ? *costs : scratch;
    // Physical heap order, so the result matches a live scan on a quiesced
    // heap. lock_wait_ns stays 0 by construction — the zero-latch
    // regression test asserts it.
    const std::vector<SnapshotChunk::RowRef> refs =
        snap_->rows_in_heap_order(table_id);
    for (const SnapshotChunk::RowRef& ref : refs) {
      tally.heap_bytes += static_cast<int64_t>(ref.bytes.size());
      auto row = decode_row(ref.bytes);
      if (row.is_ok() && pred(*row)) rows.push_back(std::move(*row));
    }
    tally.rows_applied += static_cast<int64_t>(refs.size());
    return rows;
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) return rows;
  const Table& table = e.tables_[table_id];
  // Heap-only read: the scan synchronizes on each extent latch inside the
  // heap and sees published rows exactly (pending rows are hidden).
  table.heap().scan([&](storage::SlotId, std::string_view bytes) {
    auto row = decode_row(bytes);
    if (row.is_ok() && pred(*row)) rows.push_back(std::move(*row));
  });
  return rows;
}

Status ReadView::scan_heap(
    uint32_t table_id,
    const std::function<void(storage::SlotId, std::string_view)>& fn) const {
  if (engine_ == nullptr) return empty_view_error();
  const Engine& e = *engine_;
  if (snap_ != nullptr) {
    if (table_id >= e.tables_.size()) {
      return Status(ErrorCode::kNotFound, "bad table id");
    }
    for (const SnapshotChunk::RowRef& ref :
         snap_->rows_in_heap_order(table_id)) {
      fn(ref.slot, ref.bytes);
    }
    return ok_status();
  }
  const std::shared_lock<std::shared_mutex> engine_lock(e.engine_mu_);
  if (table_id >= e.tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  e.tables_[table_id].heap().scan(fn);
  return ok_status();
}

}  // namespace sky::db
