// Sharded table heap: N independent extents for same-table parallel loads.
//
// A single HeapFile serializes every append on whatever latch its owner
// wraps around it, so parallel loaders targeting the same hot table (the
// interleaved-catalog pattern SkyLoader was built for) queue on one append
// stream even when everything else is fine-grained. Related work on survey
// ingestion (Nieto-Santisteban et al., "Entering the Parallel Zone";
// Sutorius et al.'s pseudo-parallel curation environment) partitions
// same-table writers onto independent storage units for exactly this reason.
//
// A ShardedHeap owns a fixed set of extents (each a HeapFile — the existing
// page/slot structure) with one latch per extent. Concurrent sessions append
// to distinct extents and only serialize when they collide on one; the
// owning table's latch is left for metadata (DDL, row-count snapshots).
// Slot addresses are extent-qualified ({extent, page, slot}); scan() visits
// extents in ascending order, pages and slots within, so iteration over a
// quiesced heap is deterministic.
//
// Rows enter only pending, a packed run at a time (append_batch), and then
// are published or discarded (heap_file.h).
//
// Thread safety: fully internally synchronized. append_batch/publish_batch/
// discard/mark_deleted take the extent's latch exclusive; read() and scan()
// take it shared. Aggregate counters are relaxed atomics, so row_count()/
// total_bytes() snapshots never touch a latch. Returned string_views obey
// the HeapFile stability contract (row bytes never move), so a view read
// under the latch stays valid after release even while other threads append.
//
// `append_write_latency` models the synchronous write to the extent's
// storage unit: it is slept *while holding the extent latch*, so appends to
// one extent queue behind each other (one storage unit = one write stream)
// while appends to other extents proceed — the contrast measured by
// bench_engine_scaling's same-table scenario.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "storage/heap_file.h"

namespace sky::storage {

// Extent count ceiling fixed by row-id packing (db/table.h: 8 extent bits).
constexpr uint32_t kMaxHeapExtents = 256;

// A run of serialized rows packed end to end in one buffer: `ends[i]` is the
// offset one past row i. The columnar insert path encodes a run once into
// this (no allocation per row); append_batch() copies it into heap pages.
struct PackedRows {
  std::string bytes;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
  // Close the row just written to the end of `bytes`.
  void end_row() { ends.push_back(static_cast<uint32_t>(bytes.size())); }
  std::string_view row(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {bytes.data() + begin, ends[i] - begin};
  }
};

class ShardedHeap {
 public:
  explicit ShardedHeap(uint32_t extent_count = 1,
                       Nanos append_write_latency = 0);
  // Move-constructible (atomics copied relaxed) so db::Table stays movable
  // during engine construction; never moved once shared across threads.
  ShardedHeap(ShardedHeap&& other) noexcept;
  ShardedHeap& operator=(ShardedHeap&&) = delete;

  uint32_t extent_count() const {
    return static_cast<uint32_t>(extents_.size());
  }

  // The one way rows enter the heap: every row of the packed run lands
  // pending in the given extent (clamped into range) under ONE latch
  // acquisition, hidden until publish_batch() (discard() drops one). Slot
  // layout is identical to the same rows appended one by one; the modeled
  // per-row device write is slept once for the whole batch (rows.size() x
  // append_write_latency) under the latch, preserving the
  // one-write-stream-per-extent contention model.
  struct BatchAppendResult {
    std::vector<SlotId> slots;   // one per row, in submission order
    // Views of the stored rows, aligned with `slots` (stable views).
    std::vector<std::string_view> views;
    int64_t pages_opened = 0;
    Nanos latch_wait_ns = 0;
  };
  BatchAppendResult append_batch(uint32_t extent, const PackedRows& rows);
  // Make pending rows live, taking each slot's extent latch once per run of
  // same-extent slots. Errors if a slot is not pending.
  Status publish_batch(std::span<const SlotId> slots);
  // Drop one pending row (see heap_file.h); its slot stays dead.
  Status discard(SlotId slot);

  Result<std::string_view> read(SlotId slot) const;
  Status mark_deleted(SlotId slot);

  // Latch-free aggregate snapshots (relaxed atomics; exact once writers are
  // quiesced, monotone-approximate while they run).
  int64_t row_count() const {
    return live_rows_.load(std::memory_order_relaxed);
  }
  int64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  int64_t page_count() const {
    return pages_.load(std::memory_order_relaxed);
  }

  // Per-extent telemetry, read under each extent's latch in turn.
  struct ExtentStats {
    int64_t rows = 0;
    int64_t pages = 0;
    int64_t bytes = 0;
  };
  std::vector<ExtentStats> extent_stats() const;

  // The extent that has absorbed the fewest appended bytes so far (pending
  // rows included, tombstones not subtracted — heap files never reclaim, so
  // bytes-ever-appended is the true occupancy). Latch-free: reads one
  // relaxed atomic per extent, so assignment policies (db::ExtentAssignment
  // ::kLeastLoaded) can call it on every admission. Ties break to the
  // lowest extent index.
  uint32_t least_loaded_extent() const;

  // Visit every live row, extent by extent in ascending order (deterministic
  // for a quiesced heap). Holds one extent latch (shared) at a time.
  template <typename Fn>  // Fn(SlotId, std::string_view)
  void scan(Fn&& fn) const {
    for (const auto& extent : extents_) {
      const std::shared_lock<std::shared_mutex> latch(extent->latch);
      extent->file.scan(fn);
    }
  }

 private:
  struct Extent {
    explicit Extent(uint32_t id) : file(id) {}
    mutable std::shared_mutex latch;
    HeapFile file;
    // Bytes ever appended to this extent (pending included) — the
    // least-loaded assignment signal, readable without the latch.
    std::atomic<int64_t> appended_bytes{0};
  };

  Extent& extent_for(SlotId slot) const;

  // unique_ptr elements: the extent array never moves and Extent itself
  // (holding a mutex) stays non-movable.
  std::vector<std::unique_ptr<Extent>> extents_;
  const Nanos append_write_latency_;
  std::atomic<int64_t> live_rows_{0};
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> pages_{0};
};

}  // namespace sky::storage
