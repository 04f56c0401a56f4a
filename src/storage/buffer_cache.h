// Server data-cache model (Oracle's buffer cache / DBWR behaviour).
//
// The paper's tuning study (section 4.5.5) found that a *smaller* data cache
// speeds up loading: the database writer scans the whole cache each time it
// wakes to flush dirty buffers, so a larger cache means more scan work per
// wake while the wake rate is set by the dirty-page production rate. This
// model reproduces that mechanism: pages touched by inserts become dirty; the
// writer fires whenever the dirty count reaches a fixed trigger, scans
// `capacity` frames, and flushes everything dirty.
//
// The cache is an accounting model over real page identities — rows live in
// HeapFile; the cache tracks residency and dirtiness to produce miss /
// eviction / writer-scan counts that the cost model turns into time.
//
// Thread safety: the cache is lock-striped. Page state (residency, LRU
// position, dirtiness) is partitioned into hash shards of CachePageId, each
// with its own mutex, frame list, and LRU; the global dirty count is an
// atomic so the DBWR trigger needs no shared lock. The writer itself runs
// under a separate writer mutex and sweeps the shards one at a time, so a
// DBWR pass never stops the world — concurrent touches to other shards keep
// going, exactly as concurrent foreground sessions overlap with DBWR in a
// real server. Small caches (below one page per would-be shard group) use a
// single shard, preserving the seed's exact global-LRU accounting for the
// unit tests and the cache-size ablation. set_io_hook() must be called
// before the cache is shared across threads (client::SimServer does so in
// its constructor).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace sky::storage {

// Identifies a page across all table heaps and index segments. Heap pages
// are additionally qualified by their extent (sharded heaps keep one append
// stream per extent; see storage/sharded_heap.h) — index segments and
// single-extent heaps leave it 0, preserving the pre-sharding identity.
struct CachePageId {
  uint32_t file_id = 0;   // table or index segment id
  uint32_t page = 0;
  uint32_t extent = 0;    // heap extent; 0 for index segments
  bool operator==(const CachePageId&) const = default;
};

struct CachePageIdHash {
  size_t operator()(const CachePageId& id) const {
    // extent term vanishes at 0 so unsharded identities hash as before.
    return (static_cast<size_t>(id.file_id) << 32) ^
           (static_cast<size_t>(id.extent) * 0x9E3779B97F4A7C15ull) ^ id.page;
  }
};

struct CacheEvents {
  int64_t hits = 0;
  int64_t misses = 0;            // page faulted in (read I/O)
  int64_t clean_evictions = 0;
  int64_t dirty_evictions = 0;   // eviction forced a page write
  int64_t writer_wakes = 0;
  int64_t writer_scanned_frames = 0;  // frames examined by DBWR
  int64_t writer_flushed_pages = 0;   // dirty pages written by DBWR

  CacheEvents& operator+=(const CacheEvents& other);
  // Difference since an earlier snapshot.
  CacheEvents since(const CacheEvents& baseline) const;
};

class BufferCache {
 public:
  // `capacity_pages`: cache size in 8 KiB frames. `dirty_trigger`: DBWR
  // wakes when this many dirty pages accumulate (fixed, independent of
  // capacity — that is what makes big caches slow for pure loading).
  explicit BufferCache(int64_t capacity_pages, int64_t dirty_trigger = 256);

  // A write touch: page becomes resident and dirty (insert into heap/index).
  void touch_write(CachePageId page);
  // A read touch: page becomes resident (e.g. parent FK lookup I/O).
  void touch_read(CachePageId page);

  // Force-flush all dirty pages (commit / checkpoint path).
  void flush_all();

  enum class IoKind { kRead, kWrite };
  // Invoked on every physical I/O the cache implies: a miss (read), a dirty
  // eviction (write), and each page the writer flushes (write). Called with
  // a shard (or the writer) mutex held; the hook must not call back into the
  // cache. Set before sharing the cache across threads.
  void set_io_hook(std::function<void(CachePageId, IoKind)> hook) {
    io_hook_ = std::move(hook);
  }

  int64_t capacity() const { return capacity_pages_; }
  int64_t resident() const;
  int64_t dirty() const { return dirty_count_.load(std::memory_order_relaxed); }
  // Aggregated snapshot across shards plus the writer's counters.
  CacheEvents events() const;

 private:
  struct Frame {
    CachePageId id;
    bool dirty = false;
  };
  using FrameList = std::list<Frame>;

  struct Shard {
    mutable std::mutex mu;
    int64_t capacity = 0;
    FrameList frames;  // front = most recently used
    std::unordered_map<CachePageId, FrameList::iterator, CachePageIdHash> map;
    CacheEvents events;  // hits / misses / evictions charged to this shard
  };

  Shard& shard_for(CachePageId page) const;
  // Touch within the page's shard, faulting in / evicting as needed.
  void touch(CachePageId page, bool is_write);
  void maybe_run_writer();
  // Pre: shard.mu held, shard full. Evict the shard's LRU frame.
  void evict_one(Shard& shard);
  // Pre: writer_mu_ held. Flush every dirty frame, shard by shard; returns
  // the number of resident frames seen.
  int64_t sweep_dirty();

  const int64_t capacity_pages_;
  const int64_t dirty_trigger_;
  mutable std::vector<Shard> shards_;
  std::atomic<int64_t> dirty_count_{0};
  // Serializes DBWR sweeps and guards writer_events_. touch paths never hold
  // a shard mutex while taking it (writer acquires shard mutexes inside).
  mutable std::mutex writer_mu_;
  CacheEvents writer_events_;  // wakes / scanned / flushed
  std::function<void(CachePageId, IoKind)> io_hook_;
};

}  // namespace sky::storage
