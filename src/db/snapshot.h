// Copy-on-write table snapshots: latch-free reads while loaders append.
//
// The load path publishes rows into the heap and B+trees *before* commit
// (two-phase insert, engine.cpp), so the live read path is read-uncommitted
// and — worse for the mixed workload the repository exists to serve — shares
// the table/index/extent latches with ingest: a long scan stalls every
// loader's publish window and vice versa. This module adds the read path
// that never blocks ingest.
//
// Mechanism: per-table chains of immutable chunks. Each insert call leaves
// one undo record (Engine::UndoRun): the call's rows in insert order, plus
// a packed sorted KeyRun for the PK and each enabled secondary index, built
// from the very keys the insert path already encoded and sorted for its
// tree merge. At commit the engine turns a table's records into one
// SnapshotChunk: the rows concatenate (slots and byte views, valid forever
// by the heap's storage-stability contract — row bytes never move) and the
// key runs merge through a KeyRunMerger, so no key is sorted twice. Chunks
// are linked newest-first into per-table chains of
// std::shared_ptr<const SnapshotNode>; the chain heads and published_lsn_
// change together under one mutex — the one a pin already takes to register
// itself — so any pin sees a transactionally consistent committed prefix.
//
// A Snapshot is a pin: it captures read_lsn = the published LSN plus every
// chain head, and reads exactly the chains behind those heads. Reads
// against a pinned snapshot touch nothing but immutable chunk data — no
// engine rwlock, no table latch, no extent latch, no gate — which is what
// the zero-latch regression test asserts. Pins are registered (with their
// pin time) so telemetry can report live-pin count and oldest-pin age, and
// so a leaked pin is observable; dropping the Snapshot unpins.
//
// Bounded chains: a merger thread owned by the SnapshotManager (scheduled
// SCHED_BATCH, so its wake-ups never preempt a loader) keeps each chain
// tiered. A node absorbs its older neighbour while that neighbour holds at
// most twice its rows, so a chain holds O(log rows) runs and a probe costs
// O(log commits) binary searches, not one per commit. Merged chunks are
// built outside the mutex from immutable nodes and swapped in under it;
// pins keep the replaced nodes alive, so a pin is still an exact committed
// prefix. A merge never dereferences row bytes.
//
// Costs and limits (see DESIGN.md "Snapshot reads and the query scheduler"):
// chunks duplicate the index keys' bytes, roughly doubling index-key memory
// for snapshot-visible data (SnapshotStats::key_bytes reports it). A chunk
// whose table had a secondary index disabled during one of the commit's
// insert calls carries no key run for it, nor does any merged chunk that
// absorbed it; snapshot index reads
// over a chain containing such a chunk fail with kFailedPrecondition rather
// than silently missing rows. Snapshots must not outlive their engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "storage/heap_file.h"

namespace sky::db {

// A sorted run of (encoded key, chunk row index) entries. Every key's bytes
// sit end to end in one buffer, so a run is three allocations however many
// keys it holds, and merging two runs is a sequential copy.
class KeyRun {
 public:
  // (key, row index) pairs in any order; the viewed keys must stay alive
  // until sorted() returns.
  using Entries = std::vector<std::pair<std::string_view, uint32_t>>;
  static KeyRun sorted(Entries entries);
  // Merge two sorted runs; `newer`'s row indices shift by `row_offset`.
  static KeyRun merge(const KeyRun& older, const KeyRun& newer,
                      uint32_t row_offset);

  // Build a run from entries that arrive in ascending key order: reserve,
  // then push_back each entry.
  void reserve(size_t entries, size_t key_bytes);
  void push_back(std::string_view key, uint32_t row);

  size_t size() const { return rows_.size(); }
  std::string_view key(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(keys_).substr(begin, ends_[i] - begin);
  }
  uint32_t row(size_t i) const { return rows_[i]; }
  // Index of the first key >= `key` (size() when there is none).
  size_t lower_bound(std::string_view key) const;
  size_t key_bytes() const { return keys_.size(); }
  // Heap bytes held: packed keys plus the offset and row-index arrays.
  int64_t memory_bytes() const;

 private:
  // Append entries [begin, size()) of `from`, shifting their row indices.
  void append(const KeyRun& from, size_t begin, uint32_t row_offset);

  std::string keys_;
  std::vector<uint32_t> ends_;  // ends_[i] = end offset of key(i) in keys_
  std::vector<uint32_t> rows_;
};

// Merges sorted runs pushed in row order into one run, as a binary
// counter: a pushed run merges with the run below it while both stand for
// the same number of pushed runs, so n runs cost O(keys * log n) key copies.
// Runs whose keys do not interleave (presorted primary keys) concatenate
// with no key comparison per key.
class KeyRunMerger {
 public:
  // `run`'s row indices shift by `row_offset`; offsets must not decrease
  // from one push to the next.
  void push(KeyRun run, uint32_t row_offset);
  // The merged run (empty when nothing was pushed). Leaves the merger empty.
  KeyRun finish();

 private:
  struct Level {
    KeyRun run;
    uint32_t row_offset = 0;  // added to run's row indices
    size_t pushed = 0;        // pushed runs merged into this level
  };
  // Merge the top level into the one below it.
  void merge_top();

  std::vector<Level> levels_;
};

// The rows of one or more consecutive commits for one table. Immutable once
// published.
struct SnapshotChunk {
  struct RowRef {
    storage::SlotId slot;
    std::string_view bytes;  // into the heap; stable for the heap's lifetime
  };
  std::vector<RowRef> rows;  // commit order, insertion order within each
  KeyRun pk;                 // encoded PK key -> index into rows
  // One entry per secondary-index slot of the table, aligned with
  // Table::secondaries(). Keys carry the same row-id suffix the live trees
  // use for non-unique indexes, so byte-order equals live index order.
  // nullopt = the index was disabled when some row of this chunk committed
  // (reads over the chain must fail rather than miss rows).
  std::vector<std::optional<KeyRun>> secondaries;

  int64_t key_run_bytes() const;
};

// Immutable chain node, newest-first; prev is the table's older committed
// state. The chunk is shared so a merge can re-link newer nodes onto a
// merged suffix by copying pointers.
struct SnapshotNode {
  std::shared_ptr<const SnapshotNode> prev;
  std::shared_ptr<const SnapshotChunk> chunk;
  // Rows in this chunk plus every older chunk: a pinned row_count() is one
  // pointer chase.
  int64_t rows_cumulative = 0;
};

struct SnapshotStats {
  uint64_t published_lsn = 0;   // newest publication visible to new pins
  int64_t chunks_published = 0;  // lifetime publications (one per table)
  int64_t rows_published = 0;
  int64_t merges = 0;           // lifetime two-run merges
  int64_t runs = 0;             // chain nodes behind the current heads
  int64_t key_bytes = 0;        // KeyRun::memory_bytes() of those nodes
  int64_t pins_taken = 0;       // lifetime pin count
  int64_t active_pins = 0;      // currently live Snapshot handles
  Nanos oldest_pin_age = 0;     // age of the oldest live pin at stats() time
};

class SnapshotManager;

// A pinned, transactionally consistent read view over every table.
// Move-only RAII: destruction unpins. Reads through a Snapshot take no lock
// of any kind. One Snapshot may be shared by multiple reader threads only
// as const (all accessors are const and touch immutable data).
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  bool valid() const { return manager_ != nullptr; }
  uint64_t read_lsn() const { return read_lsn_; }

  // Newest chain node visible for a table (nullptr when the table has no
  // committed rows in view): the head captured at pin time.
  const SnapshotNode* visible_head(uint32_t table_id) const;

  // Committed rows visible for one table. Latch-free.
  int64_t row_count(uint32_t table_id) const {
    const SnapshotNode* node = visible_head(table_id);
    return node == nullptr ? 0 : node->rows_cumulative;
  }

  // Visit every visible chunk of a table, newest first.
  template <typename Fn>  // Fn(const SnapshotChunk&)
  void visit_chunks(uint32_t table_id, Fn&& fn) const {
    for (const SnapshotNode* node = visible_head(table_id); node != nullptr;
         node = node->prev.get()) {
      fn(*node->chunk);
    }
  }

  // Every visible row of a table in physical heap order (extent, page,
  // slot), so a scan matches a live scan on a quiesced heap.
  std::vector<SnapshotChunk::RowRef> rows_in_heap_order(
      uint32_t table_id) const;

 private:
  friend class SnapshotManager;
  SnapshotManager* manager_ = nullptr;
  uint64_t pin_id_ = 0;
  uint64_t read_lsn_ = 0;
  // Chain head per table, captured at pin time with read_lsn_.
  std::vector<std::shared_ptr<const SnapshotNode>> heads_;
};

// Owns the per-table chunk chains, their merger thread and the pin
// registry. One per engine.
class SnapshotManager {
 public:
  explicit SnapshotManager(size_t table_count);
  ~SnapshotManager();  // stops and joins the merger
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Publish one commit's chunks atomically: links each chunk onto its
  // table's chain and advances published_lsn_, all under the manager
  // mutex, then wakes the merger if a new head can absorb its neighbour.
  // Callers hold whatever lock keeps the chunks' source data (e.g.
  // secondary enabled flags) stable. Returns the new published LSN.
  uint64_t publish(std::vector<std::pair<uint32_t, SnapshotChunk>> chunks);

  // Pin the newest consistent view. Lock order: only the manager mutex,
  // briefly (held by a publication or a merge swap only while it links
  // nodes).
  Snapshot pin();

  SnapshotStats stats() const;

 private:
  friend class Snapshot;
  void unpin(uint64_t pin_id);
  void run_merger();
  // One tiering pass over one table's chain.
  void merge_table(size_t table_id);

  // Guards heads_, published_lsn_, pins_, next_pin_id_, the chain gauges
  // and the merger flags.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const SnapshotNode>> heads_;
  uint64_t published_lsn_ = 0;
  uint64_t next_pin_id_ = 1;
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point> pins_;
  int64_t runs_ = 0;
  int64_t key_bytes_ = 0;
  int64_t merges_ = 0;
  bool merge_pending_ = false;
  bool stop_merger_ = false;
  std::condition_variable merge_cv_;
  std::atomic<int64_t> pins_taken_{0};
  std::atomic<int64_t> chunks_published_{0};
  std::atomic<int64_t> rows_published_{0};
  std::thread merger_;  // last: starts once every member above exists
};

}  // namespace sky::db
