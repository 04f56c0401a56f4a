// Runtime state of one table: heap storage, primary-key B+tree, secondary
// indexes. Engine-internal — the public surface is db::Engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/column_batch.h"
#include "db/lock_manager.h"
#include "db/row.h"
#include "db/schema.h"
#include "htm/htm.h"
#include "index/bptree.h"
#include "index/key_codec.h"
#include "storage/sharded_heap.h"

namespace sky::db {

// Row ids pack (table, extent, page, slot): 12 | 8 | 24 | 20 bits. 24 page
// bits give each extent 128 GiB of 8 KiB pages — the 32-bit page field the
// pre-sharding layout had was headroom nothing could fill, so sharding
// borrows 8 of those bits for the extent without shrinking any real limit.
constexpr uint64_t make_row_id(uint32_t table, storage::SlotId slot) {
  return (static_cast<uint64_t>(table) << 52) |
         (static_cast<uint64_t>(slot.extent) << 44) |
         (static_cast<uint64_t>(slot.page) << 20) |
         static_cast<uint64_t>(slot.slot);
}
constexpr uint32_t row_id_table(uint64_t row_id) {
  return static_cast<uint32_t>(row_id >> 52);
}
constexpr storage::SlotId row_id_slot(uint64_t row_id) {
  return storage::SlotId{static_cast<uint32_t>((row_id >> 44) & 0xFFu),
                         static_cast<uint32_t>((row_id >> 20) & 0xFFFFFFu),
                         static_cast<uint32_t>(row_id & 0xFFFFFu)};
}

// Encode one value into a key (the row-key encoders below and the query
// planner's tuple keys share it).
void append_value_to_key(index::KeyEncoder& encoder, const Value& value,
                         ColumnType type);

// Indices of the named columns in `def`'s layout, in the given order (PK,
// FK and index column lists; every name is validated by Schema::add_table).
std::vector<int> column_indices(const TableDef& def,
                                const std::vector<std::string>& names);

// ------------------------------------------------------------- row keys
// The one encoder of the index-key layout. A primary key or FK probe is the
// encoded values of its columns. A secondary-index key is the trixel id of
// the row's (ra, dec) on an HTM index (IndexDef::htm; both columns are NOT
// NULL doubles), otherwise the indexed columns' values; a stored entry
// appends the row id, which keeps entries of equal values distinct.
//
// Every encoder reads one row through a cell source: RowCells over a
// materialized Row, or BatchCells over one row of a ColumnBatch laid out
// like the table (cells go straight from the column vectors into the key,
// byte-identical to the Row path).
class RowCells {
 public:
  RowCells(const TableDef& def, const Row& row) : def_(def), row_(row) {}
  bool is_null(int col) const { return cell(col).is_null(); }
  double f64(int col) const { return cell(col).as_f64(); }
  void append(index::KeyEncoder& encoder, int col) const {
    append_value_to_key(encoder, cell(col),
                        def_.columns[static_cast<size_t>(col)].type);
  }

 private:
  const Value& cell(int col) const { return row_[static_cast<size_t>(col)]; }
  const TableDef& def_;
  const Row& row_;
};

class BatchCells {
 public:
  BatchCells(const ColumnBatch& batch, size_t row) : batch_(batch), row_(row) {}
  bool is_null(int col) const {
    return batch_.is_null(row_, static_cast<size_t>(col));
  }
  double f64(int col) const {
    return batch_.f64_at(row_, static_cast<size_t>(col));
  }
  void append(index::KeyEncoder& encoder, int col) const {
    batch_.append_cell_to_key(encoder, row_, static_cast<size_t>(col));
  }

 private:
  const ColumnBatch& batch_;
  size_t row_;
};

// Key of the given columns' values (a primary key).
template <typename Cells>
std::string encode_key(const std::vector<int>& columns, const Cells& cells) {
  index::KeyEncoder encoder;
  for (const int col : columns) cells.append(encoder, col);
  return encoder.take();
}

// Key a child row uses to probe its FK parent's primary key; nullopt if any
// referencing value is NULL (SQL MATCH SIMPLE: a NULL FK passes). Encoded
// with the child columns' types, which Schema::add_table requires to equal
// the parent key columns' types.
template <typename Cells>
std::optional<std::string> encode_fk_probe(const std::vector<int>& fk_columns,
                                           const Cells& cells) {
  for (const int col : fk_columns) {
    if (cells.is_null(col)) return std::nullopt;
  }
  return encode_key(fk_columns, cells);
}

// Key of the index `def` (its key columns resolved to `columns`), followed
// by `row_id` when given. Stored entries carry the row id; merges across
// engines whose row ids are not comparable order by the value part alone.
template <typename Cells>
std::string encode_index_key(const IndexDef& def,
                             const std::vector<int>& columns,
                             const Cells& cells,
                             std::optional<uint64_t> row_id) {
  index::KeyEncoder encoder;
  if (def.htm.has_value()) {
    encoder.append_int64(static_cast<int64_t>(htm::htm_id_radec(
        cells.f64(columns[0]), cells.f64(columns[1]), def.htm->depth)));
  } else {
    for (const int col : columns) cells.append(encoder, col);
  }
  if (row_id.has_value()) encoder.append_int64(static_cast<int64_t>(*row_id));
  return encoder.take();
}

struct SecondaryIndex {
  IndexDef def;
  std::vector<int> column_indices;
  index::BPlusTree tree;
  bool enabled = true;
  uint32_t page_file = 0;  // segment id in reported page touches
};

class Table {
 public:
  // `heap_extents`: number of independent append streams in the heap (1 =
  // the pre-sharding single-heap layout). `heap_append_latency`: modeled
  // per-append device write, slept while the extent latch is held (see
  // storage/sharded_heap.h).
  Table(uint32_t id, TableDef def, uint32_t heap_extents = 1,
        Nanos heap_append_latency = 0);

  uint32_t id() const { return id_; }
  const TableDef& def() const { return def_; }

  storage::ShardedHeap& heap() { return heap_; }
  const storage::ShardedHeap& heap() const { return heap_; }
  index::BPlusTree& pk_tree() { return pk_tree_; }
  const index::BPlusTree& pk_tree() const { return pk_tree_; }
  std::vector<SecondaryIndex>& secondaries() { return secondaries_; }
  const std::vector<SecondaryIndex>& secondaries() const {
    return secondaries_;
  }
  const std::vector<int>& pk_column_indices() const {
    return pk_column_indices_;
  }

  // Per-table metadata latch. Guards table-level structure changes (index
  // enable/disable, rebuilds, bulk loads) against concurrent row traffic:
  // row writers and readers hold it *shared*; only structural
  // operations take it exclusive. Row-level coordination lives one level
  // down in index_latch() and the heap's internal extent latches.
  std::shared_mutex& latch() const { return *latch_; }

  // Per-table index latch: guards the PK tree, every secondary tree, and
  // constraint visibility (a run's keys are re-checked and published while
  // this is held exclusive). FK merges from child tables take the parent's
  // index latch shared. Lock hierarchy (see DESIGN.md "Engine concurrency
  // model"): table latch -> index latch -> heap extent latch, and across
  // tables always child -> parent (descending table id), which is acyclic
  // because foreign keys only reference earlier tables.
  std::shared_mutex& index_latch() const { return *index_latch_; }

  // Per-table interested-transaction-list (ITL) admission gate, installed by
  // the engine constructor when ConcurrencyPolicy::itl_slots_per_table > 0
  // (nullptr = unlimited). Acquired at a transaction's *first* write to this
  // table and held to commit/abort; sits between the instance-wide
  // transaction gate and the engine rwlock in the lock order (lock_manager.h)
  // — a session blocked here holds no latch.
  SlotGate* itl_gate() const { return itl_gate_.get(); }
  void set_itl_gate(std::unique_ptr<SlotGate> gate) {
    itl_gate_ = std::move(gate);
  }

  // Segment ids in reported page touches (Engine::set_page_touch_observer).
  uint32_t heap_page_file = 0;
  uint32_t pk_page_file = 0;
  // PK-tree publishes by inserts, bumped under the index latch exclusive
  // (read under it shared or exclusive). A columnar run skips its
  // exclusive-phase primary-key re-check when the count has not moved since
  // its shared-phase check: no other session published a key in between.
  uint64_t key_publishes = 0;
  // Engine table ids of this table's FK parents and each FK's child column
  // indices, aligned with def().foreign_keys (resolved once at construction
  // so FK checks do no name lookups). The parent ids are filled by the
  // engine constructor, which owns the schema.
  std::vector<uint32_t> fk_parent_ids;
  std::vector<std::vector<int>> fk_columns;

 private:
  uint32_t id_;
  TableDef def_;
  std::vector<int> pk_column_indices_;
  storage::ShardedHeap heap_;
  index::BPlusTree pk_tree_;
  std::vector<SecondaryIndex> secondaries_;
  // unique_ptrs keep Table movable during engine construction.
  std::unique_ptr<std::shared_mutex> latch_ =
      std::make_unique<std::shared_mutex>();
  std::unique_ptr<std::shared_mutex> index_latch_ =
      std::make_unique<std::shared_mutex>();
  std::unique_ptr<SlotGate> itl_gate_;
};

}  // namespace sky::db
