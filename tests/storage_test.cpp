// Tests for the storage substrate: heap files, the buffer-cache / DBWR
// model, the write-ahead log, and the device layout mapping.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "storage/buffer_cache.h"
#include "storage/device.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace sky::storage {
namespace {

// -------------------------------------------------------------- HeapFile ---

// A live row as the engine makes one: appended pending, then published.
HeapFile::AppendResult append_live(HeapFile& heap, std::string_view row) {
  const HeapFile::AppendResult appended = heap.append_pending(row);
  EXPECT_TRUE(heap.publish(appended.slot).is_ok());
  return appended;
}

TEST(HeapFileTest, AppendAndRead) {
  HeapFile heap;
  const auto r1 = append_live(heap, "row-one");
  const auto r2 = append_live(heap, "row-two");
  EXPECT_TRUE(r1.opened_new_page);
  EXPECT_FALSE(r2.opened_new_page);
  EXPECT_EQ(heap.row_count(), 2);
  EXPECT_EQ(heap.read(r1.slot).value(), "row-one");
  EXPECT_EQ(heap.read(r2.slot).value(), "row-two");
}

TEST(HeapFileTest, PageBoundaryOpensNewPage) {
  HeapFile heap;
  const std::string big(kPageSize / 2 + 100, 'x');
  const auto r1 = append_live(heap, big);
  const auto r2 = append_live(heap, big);  // does not fit in page 0
  EXPECT_TRUE(r2.opened_new_page);
  EXPECT_EQ(heap.page_count(), 2);
  EXPECT_EQ(r1.slot.page, 0u);
  EXPECT_EQ(r2.slot.page, 1u);
}

TEST(HeapFileTest, ReadErrors) {
  HeapFile heap;
  EXPECT_FALSE(heap.read(SlotId{0, 0, 0}).is_ok());
  append_live(heap, "x");
  EXPECT_FALSE(heap.read(SlotId{0, 0, 5}).is_ok());  // bad slot
  EXPECT_FALSE(heap.read(SlotId{0, 9, 0}).is_ok());  // bad page
  EXPECT_FALSE(heap.read(SlotId{3, 0, 0}).is_ok());  // wrong extent
}

TEST(HeapFileTest, PendingRowsAreHiddenUntilPublished) {
  HeapFile heap;
  const auto visible = append_live(heap, "live");
  const auto hidden = heap.append_pending("pending");
  // Pending rows occupy page space but are invisible everywhere.
  EXPECT_EQ(heap.row_count(), 1);
  EXPECT_EQ(heap.total_bytes(), 4);
  EXPECT_FALSE(heap.read(hidden.slot).is_ok());
  int scanned = 0;
  heap.scan([&](SlotId, std::string_view) { ++scanned; });
  EXPECT_EQ(scanned, 1);
  ASSERT_TRUE(heap.publish(hidden.slot).is_ok());
  EXPECT_EQ(heap.row_count(), 2);
  EXPECT_EQ(heap.read(hidden.slot).value(), "pending");
  // Publishing twice (or publishing a live row) is a state error.
  EXPECT_FALSE(heap.publish(hidden.slot).is_ok());
  EXPECT_FALSE(heap.publish(visible.slot).is_ok());
}

TEST(HeapFileTest, DiscardAbandonsPendingRow) {
  HeapFile heap;
  const auto pending = heap.append_pending("abandoned");
  ASSERT_TRUE(heap.discard(pending.slot).is_ok());
  EXPECT_EQ(heap.row_count(), 0);
  EXPECT_FALSE(heap.read(pending.slot).is_ok());
  // A discarded slot cannot come back.
  EXPECT_FALSE(heap.publish(pending.slot).is_ok());
  EXPECT_FALSE(heap.discard(pending.slot).is_ok());
  // The hole still consumes page bytes; the next append lands after it.
  const auto next = append_live(heap, "after");
  EXPECT_EQ(next.slot.page, pending.slot.page);
  EXPECT_EQ(next.slot.slot, pending.slot.slot + 1);
}

TEST(HeapFileTest, ViewsStayValidAcrossPageGrowth) {
  // Regression: read() returns a view into row storage; appending enough
  // rows to open many new pages must not invalidate previously returned
  // views (page buffers never move or grow, even when the page array does).
  HeapFile heap;
  const auto first = append_live(heap, "stable-row-zero");
  const std::string_view view = heap.read(first.slot).value();
  const std::string big(kPageSize / 3, 'f');
  for (int i = 0; i < 500; ++i) append_live(heap, big);
  ASSERT_GT(heap.page_count(), 100);
  EXPECT_EQ(view, "stable-row-zero");
  EXPECT_EQ(heap.read(first.slot).value().data(), view.data());
}

TEST(HeapFileTest, OversizedRowGetsAPageOfItsOwn) {
  HeapFile heap;
  const auto before = append_live(heap, "small");
  std::string big(static_cast<size_t>(kPageSize) * 2 + 123, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  const auto r = append_live(heap, big);
  EXPECT_TRUE(r.opened_new_page);
  EXPECT_EQ(r.slot.page, before.slot.page + 1);
  EXPECT_EQ(r.slot.slot, 0u);
  EXPECT_EQ(r.bytes, big);
  // Even a one-byte row does not share the oversized page.
  const auto after = append_live(heap, "z");
  EXPECT_TRUE(after.opened_new_page);
  EXPECT_EQ(after.slot.page, r.slot.page + 1);
  EXPECT_EQ(heap.read(r.slot).value(), big);
  EXPECT_EQ(heap.read(before.slot).value(), "small");
  EXPECT_EQ(heap.read(after.slot).value(), "z");
  EXPECT_EQ(heap.page_count(), 3);
}

TEST(HeapFileTest, RowThatExactlyFillsAPage) {
  HeapFile heap;
  const std::string head(100, 'h');
  const std::string rest(static_cast<size_t>(kPageSize) - head.size(), 'r');
  const auto a = append_live(heap, head);
  // bytes_used + size == kPageSize: fits
  const auto b = append_live(heap, rest);
  EXPECT_FALSE(b.opened_new_page);
  EXPECT_EQ(b.slot.page, a.slot.page);
  const std::string full(static_cast<size_t>(kPageSize), 'f');
  const auto c = append_live(heap, full);  // a whole page on its own
  EXPECT_TRUE(c.opened_new_page);
  EXPECT_EQ(c.slot.page, 1u);
  const auto d = append_live(heap, "");  // an empty row still fits a full page
  EXPECT_FALSE(d.opened_new_page);
  EXPECT_EQ(d.slot.page, 1u);
  EXPECT_TRUE(append_live(heap, "x").opened_new_page);
  EXPECT_EQ(heap.read(a.slot).value(), head);
  EXPECT_EQ(heap.read(b.slot).value(), rest);
  EXPECT_EQ(heap.read(c.slot).value(), full);
  EXPECT_EQ(heap.read(d.slot).value(), "");
  EXPECT_EQ(heap.total_bytes(), 2 * kPageSize + 1);
}

TEST(HeapFileTest, SlotSequenceIsAFunctionOfRowSizes) {
  // The page fill rule (bytes_used + size > kPageSize opens a page) fixes
  // every slot, page and pages-opened count from the row sizes alone; page
  // costs, WAL records and recovery layout all depend on it. The figures
  // below were captured from the earlier per-row-string page layout and
  // must not drift.
  Rng rng(20261019);
  HeapFile heap;
  uint64_t fingerprint = 1469598103934665603ull;  // FNV-1a over the slots
  const auto mix = [&](uint64_t v) {
    fingerprint = (fingerprint ^ v) * 1099511628211ull;
  };
  int64_t opened = 0;
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform();
    int64_t size = 0;
    if (u < 0.02) {
      size = rng.uniform_int(kPageSize + 1, 3 * kPageSize);
    } else if (u < 0.04) {
      size = kPageSize;
    } else if (u < 0.06) {
      size = 0;
    } else if (u < 0.30) {
      size = 512 * rng.uniform_int(1, 4);  // exact page fills are common
    } else {
      size = rng.uniform_int(1, 400);
    }
    const std::string row(static_cast<size_t>(size),
                          static_cast<char>('a' + i % 26));
    const bool pending = rng.bernoulli(0.3);
    const auto r = pending ? heap.append_pending(row) : append_live(heap, row);
    ASSERT_EQ(r.bytes, row);
    if (pending && rng.bernoulli(0.5)) {
      ASSERT_TRUE(heap.discard(r.slot).is_ok());
    }
    if (r.opened_new_page) ++opened;
    mix(r.slot.page);
    mix(r.slot.slot);
    mix(r.opened_new_page ? 1 : 0);
  }
  EXPECT_EQ(fingerprint, 10643736227235887471ull);
  EXPECT_EQ(heap.page_count(), 464);
  EXPECT_EQ(opened, 464);
  EXPECT_EQ(heap.row_count(), 2813);
  EXPECT_EQ(heap.total_bytes(), 2708659);
}

TEST(HeapFileTest, TombstoneHidesRow) {
  HeapFile heap;
  const auto r = append_live(heap, "doomed");
  ASSERT_TRUE(heap.mark_deleted(r.slot).is_ok());
  EXPECT_FALSE(heap.read(r.slot).is_ok());
  EXPECT_EQ(heap.row_count(), 0);
  // Double-delete is an error.
  EXPECT_FALSE(heap.mark_deleted(r.slot).is_ok());
}

TEST(HeapFileTest, ScanVisitsLiveRowsInOrder) {
  HeapFile heap;
  std::vector<SlotId> slots;
  for (int i = 0; i < 100; ++i) {
    slots.push_back(append_live(heap, "row" + std::to_string(i)).slot);
  }
  ASSERT_TRUE(heap.mark_deleted(slots[10]).is_ok());
  ASSERT_TRUE(heap.mark_deleted(slots[50]).is_ok());
  std::vector<std::string> seen;
  heap.scan([&](SlotId, std::string_view row) {
    seen.emplace_back(row);
  });
  EXPECT_EQ(seen.size(), 98u);
  EXPECT_EQ(seen.front(), "row0");
  EXPECT_EQ(seen.back(), "row99");
  for (const auto& row : seen) {
    EXPECT_NE(row, "row10");
    EXPECT_NE(row, "row50");
  }
}

TEST(HeapFileTest, TotalBytesTracksLiveData) {
  HeapFile heap;
  const auto r = append_live(heap, "abcde");
  append_live(heap, "xy");
  EXPECT_EQ(heap.total_bytes(), 7);
  ASSERT_TRUE(heap.mark_deleted(r.slot).is_ok());
  EXPECT_EQ(heap.total_bytes(), 2);
}

// ----------------------------------------------------------- BufferCache ---

TEST(BufferCacheTest, HitsAndMisses) {
  BufferCache cache(/*capacity_pages=*/4, /*dirty_trigger=*/1000);
  cache.touch_read({1, 0});
  cache.touch_read({1, 0});
  cache.touch_read({1, 1});
  EXPECT_EQ(cache.events().misses, 2);
  EXPECT_EQ(cache.events().hits, 1);
  EXPECT_EQ(cache.resident(), 2);
}

TEST(BufferCacheTest, LruEviction) {
  BufferCache cache(2, 1000);
  cache.touch_read({1, 0});
  cache.touch_read({1, 1});
  cache.touch_read({1, 0});  // 0 becomes MRU
  cache.touch_read({1, 2});  // evicts 1 (LRU)
  EXPECT_EQ(cache.events().clean_evictions, 1);
  cache.touch_read({1, 0});  // still resident -> hit
  EXPECT_EQ(cache.events().hits, 2);
  cache.touch_read({1, 1});  // was evicted -> miss
  EXPECT_EQ(cache.events().misses, 4);
}

TEST(BufferCacheTest, DirtyEvictionCountsAsWrite) {
  BufferCache cache(2, 1000);
  cache.touch_write({1, 0});
  cache.touch_write({1, 1});
  cache.touch_read({1, 2});  // evicts dirty page 0
  EXPECT_EQ(cache.events().dirty_evictions, 1);
  EXPECT_EQ(cache.dirty(), 1);
}

TEST(BufferCacheTest, WriterWakesAtDirtyTrigger) {
  BufferCache cache(/*capacity_pages=*/100, /*dirty_trigger=*/10);
  for (uint32_t p = 0; p < 9; ++p) cache.touch_write({1, p});
  EXPECT_EQ(cache.events().writer_wakes, 0);
  cache.touch_write({1, 9});
  EXPECT_EQ(cache.events().writer_wakes, 1);
  EXPECT_EQ(cache.events().writer_flushed_pages, 10);
  EXPECT_EQ(cache.dirty(), 0);
}

TEST(BufferCacheTest, WriterScanCostGrowsWithCacheSize) {
  // The section 4.5.5 mechanism: identical workload, bigger cache =>
  // more frames scanned by the writer in total.
  auto scanned_frames = [](int64_t capacity) {
    BufferCache cache(capacity, /*dirty_trigger=*/32);
    Rng rng(99);
    // Warm the cache with reads so frames exist to be scanned, then dirty
    // pages at a fixed rate.
    for (int i = 0; i < 5000; ++i) {
      const auto page = static_cast<uint32_t>(rng.uniform_int(0, 4999));
      cache.touch_read({1, page});
    }
    for (int i = 0; i < 2000; ++i) {
      const auto page = static_cast<uint32_t>(rng.uniform_int(0, 4999));
      cache.touch_write({2, page});
    }
    return cache.events().writer_scanned_frames;
  };
  EXPECT_GT(scanned_frames(4096), scanned_frames(512));
}

TEST(BufferCacheTest, RedirtyBeforeWakeCountsOnce) {
  BufferCache cache(100, 10);
  for (int i = 0; i < 20; ++i) cache.touch_write({1, 0});  // same page
  EXPECT_EQ(cache.dirty(), 1);
  EXPECT_EQ(cache.events().writer_wakes, 0);
}

TEST(BufferCacheTest, FlushAllDrainsDirty) {
  BufferCache cache(100, 1000);
  for (uint32_t p = 0; p < 7; ++p) cache.touch_write({1, p});
  EXPECT_EQ(cache.dirty(), 7);
  cache.flush_all();
  EXPECT_EQ(cache.dirty(), 0);
  EXPECT_EQ(cache.events().writer_flushed_pages, 7);
  // Flush with nothing dirty is a no-op.
  const auto wakes = cache.events().writer_wakes;
  cache.flush_all();
  EXPECT_EQ(cache.events().writer_wakes, wakes);
}

TEST(BufferCacheTest, EventDeltas) {
  BufferCache cache(10, 1000);
  cache.touch_read({1, 0});
  const CacheEvents baseline = cache.events();
  cache.touch_read({1, 0});
  cache.touch_read({1, 1});
  const CacheEvents delta = cache.events().since(baseline);
  EXPECT_EQ(delta.hits, 1);
  EXPECT_EQ(delta.misses, 1);
}

// ------------------------------------------------------------------- WAL ---

TEST(WalTest, AppendAccumulatesUnflushed) {
  WriteAheadLog wal;
  wal.append(WalRecordType::kInsert, 1, 5, std::string(100, 'r'));
  EXPECT_GT(wal.unflushed_bytes(), 100);
  EXPECT_EQ(wal.stats().records, 1);
  EXPECT_EQ(wal.stats().flushes, 0);
}

TEST(WalTest, FlushDrainsAndCounts) {
  WriteAheadLog wal;
  wal.append(WalRecordType::kInsert, 1, 5, "abc");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  const WalFlushResult flushed = wal.flush();
  EXPECT_GT(flushed.bytes_flushed, 0);
  EXPECT_TRUE(flushed.led);
  EXPECT_FALSE(flushed.piggybacked);
  EXPECT_EQ(wal.unflushed_bytes(), 0);
  EXPECT_EQ(wal.stats().flushes, 1);
  EXPECT_EQ(wal.stats().bytes_flushed, flushed.bytes_flushed);
  // Idle flush is free.
  EXPECT_EQ(wal.flush().bytes_flushed, 0);
  EXPECT_EQ(wal.stats().flushes, 1);
}

TEST(WalTest, HighWaterMarkTracksBacklog) {
  WriteAheadLog wal;
  wal.append(WalRecordType::kInsert, 1, 1, std::string(1000, 'x'));
  const int64_t peak = wal.stats().max_unflushed_bytes;
  wal.flush();
  wal.append(WalRecordType::kInsert, 1, 1, "small");
  EXPECT_EQ(wal.stats().max_unflushed_bytes, peak);
}

TEST(WalTest, RetainedRecordsForReplay) {
  WalOptions options;
  options.retain_records = true;
  WriteAheadLog wal(options);
  wal.append(WalRecordType::kInsert, 7, 3, "payload");
  wal.append(WalRecordType::kCommit, 7, 0, "");
  ASSERT_EQ(wal.records().size(), 2u);
  EXPECT_EQ(wal.records()[0].type, WalRecordType::kInsert);
  EXPECT_EQ(wal.records()[0].txn_id, 7u);
  EXPECT_EQ(wal.records()[0].table_id, 3u);
  EXPECT_EQ(wal.records()[0].payload, "payload");
  EXPECT_EQ(wal.records()[1].type, WalRecordType::kCommit);
}

TEST(WalTest, RecordsNotRetainedByDefault) {
  WriteAheadLog wal;
  wal.append(WalRecordType::kInsert, 1, 1, "x");
  EXPECT_TRUE(wal.records().empty());
  EXPECT_EQ(wal.stats().records, 1);
}

TEST(WalTest, LsnWatermarkTracksFlushes) {
  WriteAheadLog wal;
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  EXPECT_EQ(wal.appended_lsn(), 2u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  wal.flush();
  EXPECT_EQ(wal.durable_lsn(), 2u);
}

TEST(WalTest, SingleTransactionSkipsCommitWindow) {
  WalOptions options;
  options.commit_window = kSecond;  // would hang the test if waited
  WriteAheadLog wal(options);
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  const WalFlushResult flushed = wal.flush();
  EXPECT_TRUE(flushed.led);
  EXPECT_EQ(flushed.leader_wait, 0);
  EXPECT_EQ(wal.stats().leader_wait_ns, 0);
  EXPECT_EQ(wal.stats().flushes, 1);
}

TEST(WalTest, ExpectGroupHintHoldsWindowForSingleTxnRegion) {
  WalOptions options;
  options.commit_window = 2 * kMillisecond;
  WriteAheadLog wal(options);
  // One transaction pending — the fast path would skip the window — but the
  // caller vouches that concurrent committers exist (the engine does this
  // when other transactions are live), so the leader holds it open anyway.
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  const WalFlushResult flushed = wal.flush(/*expect_group=*/true);
  EXPECT_TRUE(flushed.led);
  EXPECT_GT(flushed.leader_wait, 0);
  EXPECT_EQ(wal.stats().flushes, 1);
}

TEST(WalTest, CommitWindowExpiresWhenNobodyJoins) {
  WalOptions options;
  options.commit_window = 2 * kMillisecond;
  WriteAheadLog wal(options);
  // Two transactions in the pending region: the leader opens the window.
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kInsert, 2, 1, "b");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  const WalFlushResult flushed = wal.flush();
  EXPECT_TRUE(flushed.led);
  EXPECT_GT(flushed.leader_wait, 0);  // waited the window out
  EXPECT_EQ(wal.stats().flushes, 1);
  EXPECT_EQ(wal.unflushed_bytes(), 0);
  EXPECT_EQ(wal.stats().group_size_hist[0], 1);  // one committer covered
}

TEST(WalTest, RelaxedModeAcksWithoutFlushing) {
  WalOptions options;
  options.durability = DurabilityMode::kRelaxed;
  WriteAheadLog wal(options);
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kCommit, 1, 0, "");
  const WalFlushResult acked = wal.flush();
  EXPECT_FALSE(acked.led);
  EXPECT_EQ(wal.stats().flushes, 0);
  EXPECT_EQ(wal.stats().relaxed_acks, 1);
  EXPECT_GT(wal.unflushed_bytes(), 0);
  EXPECT_EQ(wal.durable_lsn(), 0u);  // honest: nothing hit the device yet
  // sync() is the relaxed-mode checkpoint.
  EXPECT_GT(wal.sync(), 0);
  EXPECT_EQ(wal.durable_lsn(), wal.appended_lsn());
  EXPECT_EQ(wal.unflushed_bytes(), 0);
  EXPECT_EQ(wal.stats().flushes, 1);
}

// ---------------------------------------------------------- DeviceLayout ---

TEST(DeviceLayoutTest, SeparateRaidsIsolateRoles) {
  const auto layout = DeviceLayout::separate_raids();
  EXPECT_EQ(layout.physical_devices, 3);
  EXPECT_NE(layout.device_for(IoRole::kData), layout.device_for(IoRole::kLog));
  EXPECT_NE(layout.device_for(IoRole::kData),
            layout.device_for(IoRole::kIndex));
}

TEST(DeviceLayoutTest, SingleRaidSharesEverything) {
  const auto layout = DeviceLayout::single_raid();
  EXPECT_EQ(layout.physical_devices, 1);
  EXPECT_EQ(layout.device_for(IoRole::kData), layout.device_for(IoRole::kLog));
}

TEST(IoTallyTest, Accumulates) {
  IoTally a, b;
  a.add_write(IoRole::kData, 2);
  a.add_read(IoRole::kIndex, 1);
  b.add_write(IoRole::kData, 3);
  b.log_bytes_flushed = 100;
  a += b;
  EXPECT_EQ(a.pages_written[0], 5);
  EXPECT_EQ(a.pages_read[1], 1);
  EXPECT_EQ(a.log_bytes_flushed, 100);
}

}  // namespace
}  // namespace sky::storage
