// Runtime state of one table: heap storage, primary-key B+tree, secondary
// indexes. Engine-internal — the public surface is db::Engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/lock_manager.h"
#include "db/row.h"
#include "db/schema.h"
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

// Encode one value into a key (shared by PK, FK probes, and secondary keys).
void append_value_to_key(index::KeyEncoder& encoder, const Value& value,
                         ColumnType type);

// Child column indices of one foreign key, in FK column order.
std::vector<int> fk_column_indices(const TableDef& child_def,
                                   const ForeignKey& fk);
// Key a child row uses to probe its FK parent's PK, from the FK's child
// column indices; nullopt if any referencing value is NULL (SQL MATCH
// SIMPLE: NULL FK passes). Encoded with the child columns' types, which
// Schema::add_table requires to equal the parent key columns' types.
std::optional<std::string> encode_fk_probe(const TableDef& child_def,
                                           const std::vector<int>& fk_columns,
                                           const Row& child_row);

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

  std::string encode_pk_key(const Row& row) const;
  // Key for a secondary index; non-unique indexes get the row id appended to
  // disambiguate. Returns nullopt when any indexed column is NULL on a
  // unique index probe? — NULLs participate normally (they encode as NULL).
  std::string encode_index_key(const SecondaryIndex& index, const Row& row,
                               std::optional<uint64_t> row_id_suffix) const;

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
  // row-at-a-time writers and readers hold it *shared*; only structural
  // operations take it exclusive. Row-level coordination lives one level
  // down in index_latch() and the heap's internal extent latches.
  std::shared_mutex& latch() const { return *latch_; }

  // Per-table index latch: guards the PK tree, every secondary tree, and
  // constraint visibility (a row is constraint-checked and published while
  // this is held exclusive). FK probes from child tables take the parent's
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
  // so the per-row FK probe does no name lookups). The parent ids are
  // filled by the engine constructor, which owns the schema.
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
