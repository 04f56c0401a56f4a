// Heap storage for table rows: serialized rows packed into fixed-size pages.
//
// The engine is memory-resident (the paper's server kept the working set of
// a load in its 12 GB of RAM and the buffer cache), but rows live in real
// pages so that page-level costs — dirtied pages, cache pressure, device
// writes — are derived from actual layout rather than invented.
//
// A HeapFile is one *extent*: a single append stream of pages. Tables use a
// ShardedHeap (sharded_heap.h), which owns several extents so concurrent
// loaders of the same table can append to independent extents; a bare
// HeapFile is extent 0 of a one-extent heap. Slot addresses are therefore
// three-dimensional: {extent, page, slot}.
//
// Page layout: each page owns one byte buffer of kPageSize bytes, allocated
// when the page opens; rows are copied in end to end. Beside the buffer sit
// the per-slot row-end offsets (uint32) and row states (one byte each), so a
// row costs its encoded bytes plus 5 bytes of slot directory. A row larger
// than kPageSize gets a page of its own, sized to fit it. The fill rule is
// "bytes_used + size > kPageSize opens a page", so the slot/page sequence
// (and every page-count cost input) depends only on the sequence of row
// sizes.
//
// Storage stability contract: row bytes never move once appended. A page's
// buffer is allocated once at its final size and never grows or moves (the
// page records that own it may be relocated as the page array grows; the
// buffers they point to are not), so a string_view returned by
// append_pending(), read() or scan() remains valid for the heap's lifetime
// even while later appends grow the file. Snapshot chunks and undo entries
// rely on this to hold row views without a later latched read;
// sharded_heap_test and storage_test have the regression tests.
//
// Rows enter in two phases: append_pending() hides a row from
// read()/scan()/counters until publish() — the engine appends pending,
// re-validates constraints under the index latch, then publishes, so scans
// never observe a row that may still fail its constraint checks. A pending
// row that loses a constraint race is discard()ed and its slot stays dead
// forever.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sky::storage {

constexpr int64_t kPageSize = 8192;  // bytes, Oracle's common block size

// Slot address within a table heap: extent (which parallel append stream),
// page within the extent, slot within the page.
struct SlotId {
  uint32_t extent = 0;
  uint32_t page = 0;
  uint32_t slot = 0;
  bool operator==(const SlotId&) const = default;
};

class HeapFile {
 public:
  explicit HeapFile(uint32_t extent_id = 0) : extent_id_(extent_id) {}

  uint32_t extent_id() const { return extent_id_; }

  // Copy a serialized row into the heap as a hidden row: invisible to
  // read()/scan() and excluded from row_count()/total_bytes() until
  // publish(), though it occupies page space at once. Returns its slot,
  // whether a fresh page was opened to hold it (cost-model signal: one more
  // dirty page), and a view of the stored bytes — valid for the heap's
  // lifetime per the stability contract, so callers (snapshot chunks) can
  // reference the row without a later latched read.
  struct AppendResult {
    SlotId slot;
    bool opened_new_page;
    std::string_view bytes;
  };
  AppendResult append_pending(std::string_view row);
  // Make a pending row live. Errors if the slot is not pending.
  Status publish(SlotId slot);
  // Drop a pending row that failed its constraint checks; the slot stays
  // dead. Errors if the slot is not pending.
  Status discard(SlotId slot);

  // Read back a live row. Pending, tombstoned, or out-of-range slots yield
  // an error. The returned view stays valid for the heap's lifetime (rows
  // never move; see the stability contract above).
  Result<std::string_view> read(SlotId slot) const;

  // Tombstone a live row (transaction rollback). Space is not reclaimed;
  // loads are append-only and rollbacks rare.
  Status mark_deleted(SlotId slot);

  int64_t page_count() const { return static_cast<int64_t>(pages_.size()); }
  int64_t row_count() const { return live_rows_; }
  int64_t total_bytes() const { return total_bytes_; }

  // Visit every live row in slot order.
  template <typename Fn>  // Fn(SlotId, std::string_view)
  void scan(Fn&& fn) const {
    for (uint32_t p = 0; p < pages_.size(); ++p) {
      const Page& page = pages_[p];
      for (uint32_t s = 0; s < page.states.size(); ++s) {
        if (page.states[s] == RowState::kLive) {
          fn(SlotId{extent_id_, p, s}, page.row(s));
        }
      }
    }
  }

 private:
  enum class RowState : uint8_t { kPending, kLive, kDead };

  struct Page {
    // Fixed at open (kPageSize, or the one oversized row's size); never
    // reallocated (stability contract).
    std::unique_ptr<char[]> bytes;
    std::vector<uint32_t> row_ends;  // per slot: offset one past its bytes
    std::vector<RowState> states;    // per slot

    uint32_t bytes_used() const {
      return row_ends.empty() ? 0 : row_ends.back();
    }
    std::string_view row(uint32_t s) const {
      const uint32_t begin = s == 0 ? 0 : row_ends[s - 1];
      return {bytes.get() + begin, row_ends[s] - begin};
    }
  };

  // Locate a slot's page, validating extent/page/slot bounds.
  Result<Page*> page_for(SlotId slot);
  Result<const Page*> page_for(SlotId slot) const;

  uint32_t extent_id_;
  // Page records may move as this grows; their buffers do not.
  std::vector<Page> pages_;
  int64_t live_rows_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace sky::storage
