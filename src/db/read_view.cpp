// ReadView implementation: latch-free resolvers over one range primitive
// and one heap-order visit, each with a live half (engine rwlock, index or
// extent latches shared) and a snapshot half (pinned chunks, no latch).
// See read_view.h for the contract.
#include "db/read_view.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "db/engine.h"
#include "db/snapshot.h"
#include "db/table.h"
#include "index/key_codec.h"

namespace sky::db {

namespace {

Status empty_view_error() {
  return Status(ErrorCode::kFailedPrecondition, "read on an empty ReadView");
}

// Position of the named secondary index in table.secondaries(). Index
// definitions are immutable after construction — safe latch-free.
Result<int> find_secondary(const Table& table, std::string_view index_name) {
  const std::vector<SecondaryIndex>& secondaries = table.secondaries();
  for (size_t s = 0; s < secondaries.size(); ++s) {
    if (secondaries[s].def.name == index_name) return static_cast<int>(s);
  }
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
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

Result<const Table*> ReadView::resolve_table(uint32_t table_id) const {
  if (engine_ == nullptr) return empty_view_error();
  // tables_ is sized once at construction, so the check needs no lock.
  if (table_id >= engine_->tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  return &engine_->tables_[table_id];
}

Result<std::vector<Row>> ReadView::range(const Table& table, int secondary,
                                         const std::string& lo,
                                         const std::string& hi) const {
  const SecondaryIndex* index =
      secondary < 0 ? nullptr
                    : &table.secondaries()[static_cast<size_t>(secondary)];
  if (snap_ != nullptr) {
    // (encoded key, row bytes) hits across all visible chunks. Keys are
    // globally unique — PKs by constraint, non-unique secondary keys by
    // their row-id suffix — so a plain sort yields live-index order.
    // `enabled` is deliberately not consulted: visibility is per chunk.
    std::vector<std::pair<std::string_view, std::string_view>> hits;
    Status failure = ok_status();
    snap_->visit_chunks(table.id(), [&](const SnapshotChunk& chunk) {
      if (!failure.is_ok()) return;
      const KeyRun* run = &chunk.pk;
      if (index != nullptr) {
        const auto s = static_cast<size_t>(secondary);
        if (s >= chunk.secondaries.size() ||
            !chunk.secondaries[s].has_value()) {
          failure = index_unavailable_error(
              index->def.name,
              "snapshot chunk predates index: committed while it was "
              "disabled");
          return;
        }
        run = &*chunk.secondaries[s];
      }
      for (size_t i = run->lower_bound(lo); i < run->size(); ++i) {
        const std::string_view key = run->key(i);
        if (!hi.empty() && key >= hi) break;
        hits.emplace_back(key, chunk.rows[run->row(i)].bytes);
      }
    });
    SKY_RETURN_IF_ERROR(failure);
    std::sort(hits.begin(), hits.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Row> rows;
    rows.reserve(hits.size());
    for (const auto& [key, bytes] : hits) {
      SKY_ASSIGN_OR_RETURN(Row row, decode_row(bytes));
      rows.push_back(std::move(row));
    }
    return rows;
  }
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  if (index != nullptr && !index->enabled) {
    return index_unavailable_error(index->def.name, "index is disabled");
  }
  const index::BPlusTree& tree = index != nullptr ? index->tree
                                                  : table.pk_tree();
  // Tree reads synchronize with row publication on the index latch; the
  // heap read inside row_at() takes its extent latch underneath.
  const std::shared_lock<std::shared_mutex> latch(table.index_latch());
  const std::vector<uint64_t> row_ids = tree.range_lookup(lo, hi);
  std::vector<Row> rows;
  rows.reserve(row_ids.size());
  for (const uint64_t row_id : row_ids) {
    SKY_ASSIGN_OR_RETURN(Row row, engine_->row_at(table, row_id));
    rows.push_back(std::move(row));
  }
  return rows;
}

int64_t ReadView::row_count(uint32_t table_id) const {
  const auto table = resolve_table(table_id);
  if (!table.is_ok()) return 0;
  if (snap_ != nullptr) return snap_->row_count(table_id);
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  // Heap counters are latch-free atomics (storage/sharded_heap.h).
  return (*table)->heap().row_count();
}

Result<Row> ReadView::pk_lookup(uint32_t table_id, const Row& pk_values) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  if (pk_values.size() != table->pk_column_indices().size()) {
    return Status(ErrorCode::kInvalidArgument, "pk tuple arity mismatch");
  }
  const std::string key = engine_->encode_tuple_key(
      table->def(), table->pk_column_indices(), pk_values);
  if (snap_ != nullptr) {
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
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  const std::shared_lock<std::shared_mutex> latch(table->index_latch());
  const auto row_id = table->pk_tree().lookup(key);
  if (!row_id.has_value()) {
    return Status(ErrorCode::kNotFound, "no row with given primary key");
  }
  return engine_->row_at(*table, *row_id);
}

Result<std::vector<Row>> ReadView::pk_range(uint32_t table_id, const Row& lo,
                                            const Row& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  const auto encode = [&](const Row& values) {
    return engine_->encode_tuple_key(table->def(), table->pk_column_indices(),
                                     values);
  };
  return range(*table, -1, encode(lo), encode(hi));
}

Result<std::vector<Row>> ReadView::index_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const Row& lo,
                                               const Row& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  SKY_ASSIGN_OR_RETURN(const int s, find_secondary(*table, index_name));
  const SecondaryIndex& index = table->secondaries()[static_cast<size_t>(s)];
  const auto encode = [&](const Row& values) {
    return index.def.htm.has_value()
               ? encode_htm_probe_key(values)
               : engine_->encode_tuple_key(table->def(), index.column_indices,
                                           values);
  };
  return range(*table, s, encode(lo), encode(hi));
}

Result<std::vector<Row>> ReadView::pk_encoded_range(uint32_t table_id,
                                                    const std::string& lo,
                                                    const std::string& hi)
    const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  return range(*table, -1, lo, hi);
}

Result<std::vector<Row>> ReadView::index_encoded_range(
    uint32_t table_id, std::string_view index_name, const std::string& lo,
    const std::string& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  SKY_ASSIGN_OR_RETURN(const int s, find_secondary(*table, index_name));
  return range(*table, s, lo, hi);
}

template <typename Fn>
Status ReadView::visit_heap(uint32_t table_id, Fn&& fn) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, resolve_table(table_id));
  if (snap_ != nullptr) {
    // Physical heap order, so a pinned scan matches a live scan on a
    // quiesced heap. No latch is taken — the zero-latch regression test
    // asserts it.
    for (const SnapshotChunk::RowRef& ref :
         snap_->rows_in_heap_order(table_id)) {
      fn(ref.slot, ref.bytes);
    }
    return ok_status();
  }
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  // Heap-only read: the scan synchronizes on each extent latch inside the
  // heap and sees published rows exactly (pending rows are hidden).
  table->heap().scan(fn);
  return ok_status();
}

Status ReadView::scan_heap(
    uint32_t table_id,
    const std::function<void(storage::SlotId, std::string_view)>& fn) const {
  return visit_heap(table_id, fn);
}

std::vector<Row> ReadView::scan_collect(
    uint32_t table_id, const std::function<bool(const Row&)>& pred,
    OpCosts* costs) const {
  std::vector<Row> rows;
  int64_t visited = 0;
  int64_t bytes_read = 0;
  // A failed resolve (empty view, bad table id) collects nothing.
  (void)visit_heap(table_id, [&](storage::SlotId, std::string_view bytes) {
    ++visited;
    bytes_read += static_cast<int64_t>(bytes.size());
    auto row = decode_row(bytes);
    if (row.is_ok() && pred(*row)) rows.push_back(std::move(*row));
  });
  if (costs != nullptr) {
    costs->rows_applied += visited;
    costs->heap_bytes += bytes_read;
  }
  return rows;
}

}  // namespace sky::db
