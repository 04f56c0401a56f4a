#include "storage/sharded_heap.h"

#include <chrono>
#include <mutex>
#include <thread>

namespace sky::storage {

ShardedHeap::ShardedHeap(ShardedHeap&& other) noexcept
    : extents_(std::move(other.extents_)),
      append_write_latency_(other.append_write_latency_),
      live_rows_(other.live_rows_.load(std::memory_order_relaxed)),
      total_bytes_(other.total_bytes_.load(std::memory_order_relaxed)),
      pages_(other.pages_.load(std::memory_order_relaxed)) {}

namespace {
// Timed exclusive acquisition: fast path free, contended path pays two clock
// reads. (Mirrors db::lock_exclusive_timed; storage cannot depend on db.)
Nanos lock_extent_timed(std::shared_mutex& mu) {
  if (mu.try_lock()) return 0;
  const auto start = std::chrono::steady_clock::now();
  mu.lock();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}
}  // namespace

ShardedHeap::ShardedHeap(uint32_t extent_count, Nanos append_write_latency)
    : append_write_latency_(append_write_latency) {
  if (extent_count < 1) extent_count = 1;
  if (extent_count > kMaxHeapExtents) extent_count = kMaxHeapExtents;
  extents_.reserve(extent_count);
  for (uint32_t e = 0; e < extent_count; ++e) {
    extents_.push_back(std::make_unique<Extent>(e));
  }
}

ShardedHeap::BatchAppendResult ShardedHeap::append_batch(
    uint32_t extent, const PackedRows& rows) {
  BatchAppendResult result;
  if (rows.size() == 0) return result;
  const uint32_t e = extent % extent_count();
  Extent& target = *extents_[e];
  result.slots.reserve(rows.size());
  result.views.reserve(rows.size());
  result.latch_wait_ns = lock_extent_timed(target.latch);
  const std::unique_lock<std::shared_mutex> latch(target.latch,
                                                  std::adopt_lock);
  for (size_t i = 0; i < rows.size(); ++i) {
    const HeapFile::AppendResult appended =
        target.file.append_pending(rows.row(i));
    result.slots.push_back(appended.slot);
    result.views.push_back(appended.bytes);
    if (appended.opened_new_page) ++result.pages_opened;
  }
  pages_.fetch_add(result.pages_opened, std::memory_order_relaxed);
  target.appended_bytes.fetch_add(int64_t{rows.ends.back()},
                                  std::memory_order_relaxed);
  if (append_write_latency_ > 0) {
    // One modeled device write per row, paid as a single sleep under the
    // extent latch (one syscall).
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        append_write_latency_ * static_cast<Nanos>(rows.size())));
  }
  return result;
}

Status ShardedHeap::publish_batch(std::span<const SlotId> slots) {
  size_t begin = 0;
  while (begin < slots.size()) {
    const uint32_t e = slots[begin].extent;
    if (e >= extent_count()) {
      return Status(ErrorCode::kNotFound, "heap extent out of range");
    }
    size_t end = begin;
    while (end < slots.size() && slots[end].extent == e) ++end;
    Extent& extent = *extents_[e];
    const std::unique_lock<std::shared_mutex> latch(extent.latch);
    const int64_t bytes_before = extent.file.total_bytes();
    for (size_t i = begin; i < end; ++i) {
      SKY_RETURN_IF_ERROR(extent.file.publish(slots[i]));
    }
    live_rows_.fetch_add(static_cast<int64_t>(end - begin),
                         std::memory_order_relaxed);
    total_bytes_.fetch_add(extent.file.total_bytes() - bytes_before,
                           std::memory_order_relaxed);
    begin = end;
  }
  return ok_status();
}

Status ShardedHeap::discard(SlotId slot) {
  if (slot.extent >= extent_count()) {
    return Status(ErrorCode::kNotFound, "heap extent out of range");
  }
  Extent& extent = *extents_[slot.extent];
  const std::unique_lock<std::shared_mutex> latch(extent.latch);
  return extent.file.discard(slot);
}

Result<std::string_view> ShardedHeap::read(SlotId slot) const {
  if (slot.extent >= extent_count()) {
    return Status(ErrorCode::kNotFound, "heap extent out of range");
  }
  const Extent& extent = *extents_[slot.extent];
  const std::shared_lock<std::shared_mutex> latch(extent.latch);
  // The view stays valid after release: row bytes never move (HeapFile
  // stability contract) and published rows are immutable.
  return extent.file.read(slot);
}

Status ShardedHeap::mark_deleted(SlotId slot) {
  if (slot.extent >= extent_count()) {
    return Status(ErrorCode::kNotFound, "heap extent out of range");
  }
  Extent& extent = *extents_[slot.extent];
  const std::unique_lock<std::shared_mutex> latch(extent.latch);
  const auto bytes = extent.file.read(slot);
  SKY_RETURN_IF_ERROR(extent.file.mark_deleted(slot));
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  total_bytes_.fetch_sub(
      bytes.is_ok() ? static_cast<int64_t>(bytes->size()) : 0,
      std::memory_order_relaxed);
  return ok_status();
}

uint32_t ShardedHeap::least_loaded_extent() const {
  uint32_t best = 0;
  int64_t best_bytes =
      extents_[0]->appended_bytes.load(std::memory_order_relaxed);
  for (uint32_t e = 1; e < extent_count(); ++e) {
    const int64_t bytes =
        extents_[e]->appended_bytes.load(std::memory_order_relaxed);
    if (bytes < best_bytes) {
      best = e;
      best_bytes = bytes;
    }
  }
  return best;
}

std::vector<ShardedHeap::ExtentStats> ShardedHeap::extent_stats() const {
  std::vector<ExtentStats> stats;
  stats.reserve(extents_.size());
  for (const auto& extent : extents_) {
    const std::shared_lock<std::shared_mutex> latch(extent->latch);
    stats.push_back(ExtentStats{extent->file.row_count(),
                                extent->file.page_count(),
                                extent->file.total_bytes()});
  }
  return stats;
}

}  // namespace sky::storage
