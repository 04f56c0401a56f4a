// Copy-on-write table snapshots: latch-free reads while loaders append.
//
// The load path publishes rows into the heap and B+trees *before* commit
// (two-phase insert, engine.cpp), so the live read path is read-uncommitted
// and — worse for the mixed workload the repository exists to serve — shares
// the table/index/extent latches with ingest: a long scan stalls every
// loader's publish window and vice versa. This module adds the read path
// that never blocks ingest.
//
// Mechanism: per-table chains of immutable chunks. At commit the engine
// turns the transaction's undo log into one SnapshotChunk per written table:
// the committed rows' slots and byte views (valid forever by the heap's
// storage-stability contract — row bytes never move), plus sorted key runs
// for the PK and every enabled secondary index, built from the very keys
// the insert path already encoded. Chunks are linked newest-first into
// per-table chains of std::shared_ptr<const SnapshotNode>; the chain heads
// and published_lsn_ change together under one mutex — the one a pin
// already takes to register itself — and each publication is stamped with a
// monotone commit LSN, so any pin sees a transactionally consistent
// committed prefix.
//
// A Snapshot is a pin: it captures read_lsn = published_lsn() plus every
// chain head, and visits only chunks with commit_lsn <= read_lsn. Reads
// against a pinned snapshot touch nothing but immutable chunk data — no
// engine rwlock, no table latch, no extent latch, no gate — which is what
// the zero-latch regression test asserts. Pins are registered (with their
// pin time) so telemetry can report live-pin count and oldest-pin age, and
// so a leaked pin is observable; dropping the Snapshot unpins.
//
// Costs and limits (see DESIGN.md "Snapshot reads and the query scheduler"):
// chains are never compacted (depth = number of commits since startup) and
// chunks duplicate the index keys' bytes, roughly doubling index-key memory
// for snapshot-visible data. A chunk whose table had a secondary index
// disabled at commit carries no key run for it; snapshot index reads over a
// chain containing such a chunk fail with kFailedPrecondition rather than
// silently missing rows. Snapshots must not outlive their engine.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "storage/heap_file.h"

namespace sky::db {

// One committed transaction's rows for one table. Immutable once published.
struct SnapshotChunk {
  // Monotone publication sequence (1-based; assigned under the publish
  // mutex, analogous to the WAL's durable-LSN watermark).
  uint64_t commit_lsn = 0;
  struct RowRef {
    storage::SlotId slot;
    std::string_view bytes;  // into the heap; stable for the heap's lifetime
  };
  std::vector<RowRef> rows;  // insertion order within the transaction
  // Sorted (encoded PK key, index into rows) run for point/range lookups.
  std::vector<std::pair<std::string, uint32_t>> pk;
  // One entry per secondary-index slot of the table, aligned with
  // Table::secondaries(). Keys carry the same row-id suffix the live trees
  // use for non-unique indexes, so byte-order equals live index order.
  // nullopt = the index was disabled when this chunk committed (reads over
  // the chain must fail rather than miss rows).
  std::vector<std::optional<std::vector<std::pair<std::string, uint32_t>>>>
      secondaries;
};

// Immutable chain node, newest-first; prev is the table's previous
// committed state.
struct SnapshotNode {
  std::shared_ptr<const SnapshotNode> prev;
  SnapshotChunk chunk;
  // Rows in this chunk plus every older chunk: a pinned row_count() is one
  // pointer chase once the first visible node is found.
  int64_t rows_cumulative = 0;
};

struct SnapshotStats {
  uint64_t published_lsn = 0;   // newest publication visible to new pins
  int64_t chunks_published = 0;
  int64_t rows_published = 0;
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

  // First chain node visible at read_lsn() for a table (nullptr when the
  // table has no committed rows in view): the head captured at pin time.
  const SnapshotNode* visible_head(uint32_t table_id) const;

  // Committed rows visible for one table. Latch-free.
  int64_t row_count(uint32_t table_id) const {
    const SnapshotNode* node = visible_head(table_id);
    return node == nullptr ? 0 : node->rows_cumulative;
  }

  // Visit every visible chunk of a table, oldest first.
  template <typename Fn>  // Fn(const SnapshotChunk&)
  void visit_chunks(uint32_t table_id, Fn&& fn) const {
    std::vector<const SnapshotNode*> nodes;
    for (const SnapshotNode* node = visible_head(table_id); node != nullptr;
         node = node->prev.get()) {
      nodes.push_back(node);
    }
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      fn((*it)->chunk);
    }
  }

 private:
  friend class SnapshotManager;
  SnapshotManager* manager_ = nullptr;
  uint64_t pin_id_ = 0;
  uint64_t read_lsn_ = 0;
  // Chain head per table, captured at pin time with read_lsn_.
  std::vector<std::shared_ptr<const SnapshotNode>> heads_;
};

// Owns the per-table chunk chains and the pin registry. One per engine.
class SnapshotManager {
 public:
  explicit SnapshotManager(size_t table_count);

  // Publish one commit's chunks atomically: assigns the commit LSN, links
  // each chunk onto its table's chain, and advances published_lsn_, all
  // under the manager mutex. Callers hold whatever lock keeps the chunks'
  // source data (e.g. secondary enabled flags) stable. Returns the assigned
  // commit LSN.
  uint64_t publish(std::vector<std::pair<uint32_t, SnapshotChunk>> chunks);

  // Pin the newest consistent view. Lock order: only the manager mutex,
  // briefly (held by a publication only while it links its nodes).
  Snapshot pin();

  uint64_t published_lsn() const {
    return published_lsn_.load(std::memory_order_acquire);
  }
  SnapshotStats stats() const;

 private:
  friend class Snapshot;
  void unpin(uint64_t pin_id);

  // Guards heads_, the writes of published_lsn_, pins_ and next_pin_id_.
  // published_lsn_ stays atomic so published_lsn() reads it lock-free.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const SnapshotNode>> heads_;
  std::atomic<uint64_t> published_lsn_{0};
  uint64_t next_pin_id_ = 1;
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point> pins_;
  std::atomic<int64_t> pins_taken_{0};
  std::atomic<int64_t> chunks_published_{0};
  std::atomic<int64_t> rows_published_{0};
};

}  // namespace sky::db
