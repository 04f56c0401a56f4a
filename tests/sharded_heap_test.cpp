// ShardedHeap tests: a seeded property battery against a single-HeapFile
// oracle (identical live-row multisets, byte totals, deterministic scans),
// extent addressing rules, two-phase append visibility, and multi-threaded
// append/scan behaviour (also exercised under TSan via the sanitizer CI
// legs).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "storage/heap_file.h"
#include "storage/sharded_heap.h"

namespace sky::storage {
namespace {

// The rows as one packed run (ShardedHeap::append_batch's input).
PackedRows pack(const std::vector<std::string>& rows) {
  PackedRows packed;
  for (const std::string& row : rows) {
    packed.bytes += row;
    packed.end_row();
  }
  return packed;
}

// A live row as the engine makes one: appended pending, then published.
HeapFile::AppendResult append_live(ShardedHeap& heap, uint32_t extent,
                                   std::string_view row) {
  PackedRows packed;
  packed.bytes = row;
  packed.end_row();
  const ShardedHeap::BatchAppendResult appended =
      heap.append_batch(extent, packed);
  EXPECT_TRUE(heap.publish_batch(appended.slots).is_ok());
  return {appended.slots[0], appended.pages_opened > 0, appended.views[0]};
}

HeapFile::AppendResult append_live(HeapFile& heap, std::string_view row) {
  const HeapFile::AppendResult appended = heap.append_pending(row);
  EXPECT_TRUE(heap.publish(appended.slot).is_ok());
  return appended;
}

// ------------------------------------------------- oracle property battery ---

// Random interleaving of appends (to random extents) and tombstones, applied
// to a ShardedHeap and to a plain HeapFile in lockstep. Physical layout
// differs (the oracle packs one append stream), but every logical property
// must agree.
TEST(ShardedHeapPropertyTest, MatchesSingleHeapOracle) {
  for (const uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 987654321ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const auto extents = static_cast<uint32_t>(rng.uniform_int(1, 8));
    ShardedHeap sharded(extents);
    HeapFile oracle;

    struct LiveRow {
      SlotId sharded_slot;
      SlotId oracle_slot;
      std::string payload;
    };
    std::vector<LiveRow> live;
    for (int op = 0; op < 2000; ++op) {
      if (!live.empty() && rng.bernoulli(0.25)) {
        const auto victim = static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
        ASSERT_TRUE(sharded.mark_deleted(live[victim].sharded_slot).is_ok());
        ASSERT_TRUE(oracle.mark_deleted(live[victim].oracle_slot).is_ok());
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        std::string payload =
            rng.ident(static_cast<size_t>(rng.uniform_int(5, 120)));
        const auto extent =
            static_cast<uint32_t>(rng.uniform_int(0, extents - 1));
        const auto s = append_live(sharded, extent, payload);
        const auto o = append_live(oracle, payload);
        EXPECT_EQ(s.slot.extent, extent);
        live.push_back({s.slot, o.slot, std::move(payload)});
      }
    }

    EXPECT_EQ(sharded.row_count(), oracle.row_count());
    EXPECT_EQ(sharded.total_bytes(), oracle.total_bytes());
    EXPECT_EQ(sharded.row_count(), static_cast<int64_t>(live.size()));

    // Identical live-row multisets.
    std::multiset<std::string> expected, seen;
    for (const LiveRow& row : live) expected.insert(row.payload);
    sharded.scan([&](SlotId, std::string_view bytes) {
      seen.insert(std::string(bytes));
    });
    EXPECT_EQ(seen, expected);

    // Point reads agree with the oracle row-for-row; then drain everything.
    for (const LiveRow& row : live) {
      ASSERT_TRUE(sharded.read(row.sharded_slot).is_ok());
      EXPECT_EQ(sharded.read(row.sharded_slot).value(),
                oracle.read(row.oracle_slot).value());
      ASSERT_TRUE(sharded.mark_deleted(row.sharded_slot).is_ok());
      EXPECT_FALSE(sharded.read(row.sharded_slot).is_ok());
      ASSERT_TRUE(oracle.mark_deleted(row.oracle_slot).is_ok());
    }
    EXPECT_EQ(sharded.row_count(), 0);
    EXPECT_EQ(sharded.total_bytes(), 0);
  }
}

TEST(ShardedHeapPropertyTest, ScanIsDeterministicAndExtentOrdered) {
  Rng rng(2024);
  ShardedHeap heap(6);
  for (int i = 0; i < 1500; ++i) {
    append_live(heap, static_cast<uint32_t>(rng.uniform_int(0, 5)),
                rng.ident(static_cast<size_t>(rng.uniform_int(3, 40))));
  }
  auto collect = [&heap] {
    std::vector<std::pair<SlotId, std::string>> out;
    heap.scan([&](SlotId slot, std::string_view bytes) {
      out.emplace_back(slot, std::string(bytes));
    });
    return out;
  };
  const auto first = collect();
  const auto second = collect();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first);
    EXPECT_EQ(first[i].second, second[i].second);
  }
  // Extent-major order: extent ascending; page then slot ascending within.
  for (size_t i = 1; i < first.size(); ++i) {
    const SlotId& prev = first[i - 1].first;
    const SlotId& cur = first[i].first;
    const auto key = [](const SlotId& s) {
      return (static_cast<uint64_t>(s.extent) << 44) |
             (static_cast<uint64_t>(s.page) << 20) | s.slot;
    };
    EXPECT_LT(key(prev), key(cur));
  }
}

// --------------------------------------------------------- extent addressing ---

TEST(ShardedHeapTest, AppendClampsExtentIntoRange) {
  ShardedHeap heap(8);
  EXPECT_EQ(heap.extent_count(), 8u);
  EXPECT_EQ(append_live(heap, 11, "a").slot.extent, 3u);  // 11 % 8
  EXPECT_EQ(append_live(heap, 7, "b").slot.extent, 7u);
  // Reads and deletes reject out-of-range extents instead of clamping:
  // a SlotId names a physical location, not a request.
  EXPECT_FALSE(heap.read(SlotId{9, 0, 0}).is_ok());
  EXPECT_FALSE(heap.mark_deleted(SlotId{9, 0, 0}).is_ok());
}

TEST(ShardedHeapTest, ExtentsPackPagesIndependently) {
  ShardedHeap heap(2);
  const std::string half(kPageSize / 2 + 100, 'x');
  // Two big rows in one extent need two pages; spread over two extents
  // they fit one page each.
  append_live(heap, 0, half);
  append_live(heap, 0, half);
  append_live(heap, 1, half);
  const auto stats = heap.extent_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].rows, 2);
  EXPECT_EQ(stats[0].pages, 2);
  EXPECT_EQ(stats[1].rows, 1);
  EXPECT_EQ(stats[1].pages, 1);
  EXPECT_EQ(heap.page_count(), 3);
  EXPECT_EQ(heap.row_count(), 3);
}

TEST(ShardedHeapTest, SingleExtentMatchesHeapFileLayout) {
  // With one extent the sharded heap must reproduce the plain HeapFile
  // packing exactly (the engine's pre-sharding default).
  ShardedHeap sharded(1);
  HeapFile plain;
  Rng rng(55);
  for (int i = 0; i < 800; ++i) {
    const std::string row =
        rng.ident(static_cast<size_t>(rng.uniform_int(10, 300)));
    const auto s = append_live(sharded, 0, row);
    const auto p = append_live(plain, row);
    EXPECT_EQ(s.slot, p.slot);
    EXPECT_EQ(s.opened_new_page, p.opened_new_page);
  }
  EXPECT_EQ(sharded.page_count(), plain.page_count());
}

// --------------------------------------------------- least-loaded extents ---

TEST(ShardedHeapTest, LeastLoadedExtentTracksAppendedBytes) {
  ShardedHeap heap(4);
  // Empty heap: all extents tie at zero; lowest index wins.
  EXPECT_EQ(heap.least_loaded_extent(), 0u);
  // Skew the load: extents 0 and 1 heavy, extent 2 light, extent 3 empty.
  append_live(heap, 0, std::string(500, 'a'));
  append_live(heap, 1, std::string(400, 'b'));
  append_live(heap, 2, std::string(10, 'c'));
  EXPECT_EQ(heap.least_loaded_extent(), 3u);
  append_live(heap, 3, std::string(50, 'd'));
  EXPECT_EQ(heap.least_loaded_extent(), 2u);
  // Ties break toward the lowest index.
  ShardedHeap even(3);
  append_live(even, 0, "xx");
  append_live(even, 1, "yy");
  append_live(even, 2, "zz");
  EXPECT_EQ(even.least_loaded_extent(), 0u);
}

TEST(ShardedHeapTest, LeastLoadedCountsPendingAndIgnoresTombstones) {
  ShardedHeap heap(2);
  // A pending (uncommitted) append counts as load immediately: concurrent
  // pickers must not all pile onto an extent whose rows aren't published yet.
  const auto pending = heap.append_batch(0, pack({std::string(300, 'p')}));
  EXPECT_EQ(heap.least_loaded_extent(), 1u);
  // Discarding the pending row does NOT give the bytes back — the signal is
  // bytes-ever-appended, matching how heap files never shrink.
  ASSERT_TRUE(heap.discard(pending.slots[0]).is_ok());
  EXPECT_EQ(heap.least_loaded_extent(), 1u);
  // Deletes don't subtract either.
  const auto live = append_live(heap, 1, std::string(600, 'q'));
  EXPECT_EQ(heap.least_loaded_extent(), 0u);  // 300 (extent 0) vs 600
  ASSERT_TRUE(heap.mark_deleted(live.slot).is_ok());
  EXPECT_EQ(heap.least_loaded_extent(), 0u);  // still 300 vs 600
}

// ------------------------------------------------------- two-phase appends ---

TEST(ShardedHeapTest, PendingRowsInvisibleUntilPublished) {
  ShardedHeap heap(4);
  append_live(heap, 1, "live");
  const SlotId pending = heap.append_batch(2, pack({"ghost"})).slots[0];
  EXPECT_EQ(heap.row_count(), 1);
  EXPECT_FALSE(heap.read(pending).is_ok());
  int scanned = 0;
  heap.scan([&](SlotId, std::string_view) { ++scanned; });
  EXPECT_EQ(scanned, 1);

  ASSERT_TRUE(heap.publish_batch({&pending, 1}).is_ok());
  EXPECT_EQ(heap.row_count(), 2);
  EXPECT_EQ(heap.read(pending).value(), "ghost");

  const SlotId doomed = heap.append_batch(2, pack({"discarded"})).slots[0];
  ASSERT_TRUE(heap.discard(doomed).is_ok());
  EXPECT_EQ(heap.row_count(), 2);
  EXPECT_FALSE(heap.read(doomed).is_ok());
  EXPECT_FALSE(heap.publish_batch({&doomed, 1}).is_ok());
}

// ------------------------------------------------------------- concurrency ---

TEST(ShardedHeapConcurrencyTest, ParallelAppendsToDistinctExtents) {
  constexpr uint32_t kThreads = 8;
  constexpr int kRowsPerThread = 500;
  ShardedHeap heap(kThreads);
  std::vector<std::thread> workers;
  std::vector<int> extent_mismatches(kThreads, 0);
  workers.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&heap, &extent_mismatches, t] {
      for (int i = 0; i < kRowsPerThread; ++i) {
        const auto r = append_live(
            heap, t, "t" + std::to_string(t) + "-" + std::to_string(i));
        if (r.slot.extent != t) ++extent_mismatches[t];
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(extent_mismatches[t], 0);
  }
  EXPECT_EQ(heap.row_count(), int64_t{kThreads} * kRowsPerThread);
  const auto stats = heap.extent_stats();
  ASSERT_EQ(stats.size(), kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats[t].rows, kRowsPerThread);
  }
  // Within an extent, one thread's rows appear in its append order.
  std::vector<int> next_index(kThreads, 0);
  std::vector<int> order_violations(kThreads, 0);
  heap.scan([&](SlotId slot, std::string_view bytes) {
    const std::string expected = "t" + std::to_string(slot.extent) + "-" +
                                 std::to_string(next_index[slot.extent]);
    if (std::string(bytes) != expected) ++order_violations[slot.extent];
    ++next_index[slot.extent];
  });
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(order_violations[t], 0);
  }
}

TEST(ShardedHeapConcurrencyTest, SharedExtentAppendsStaySequential) {
  // All threads hammer ONE extent: appends must serialize without losing
  // rows or corrupting page accounting.
  ShardedHeap heap(4);
  constexpr int kThreads = 6;
  constexpr int kRowsPerThread = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&heap] {
      for (int i = 0; i < kRowsPerThread; ++i) append_live(heap, 2, "payload");
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(heap.row_count(), int64_t{kThreads} * kRowsPerThread);
  const auto stats = heap.extent_stats();
  EXPECT_EQ(stats[2].rows, int64_t{kThreads} * kRowsPerThread);
  EXPECT_EQ(stats[0].rows, 0);
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> unique_slots;
  heap.scan([&](SlotId slot, std::string_view) {
    unique_slots.insert({slot.extent, slot.page, slot.slot});
  });
  EXPECT_EQ(unique_slots.size(),
            static_cast<size_t>(kThreads * kRowsPerThread));
}

TEST(ShardedHeapConcurrencyTest, ViewsSurviveConcurrentAppends) {
  // Regression for the dangling-string_view bug: a view returned by read()
  // must stay valid while other threads grow every extent past many page
  // boundaries (page buffers never move or grow).
  ShardedHeap heap(4);
  const auto anchor = append_live(heap, 3, "anchor-row");
  const std::string_view view = heap.read(anchor.slot).value();
  const char* anchor_data = view.data();

  std::vector<std::thread> workers;
  const std::string filler(kPageSize / 4, 'z');
  for (uint32_t t = 0; t < 4; ++t) {
    workers.emplace_back([&heap, &filler, t] {
      for (int i = 0; i < 1000; ++i) append_live(heap, t, filler);
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_GT(heap.page_count(), 100);
  EXPECT_EQ(view, "anchor-row");
  EXPECT_EQ(heap.read(anchor.slot).value().data(), anchor_data);
}

// ------------------------------------------------------ packed batch runs ---

TEST(ShardedHeapBatchTest, PackedRunMatchesRowByRowLayout) {
  Rng rng(77);
  std::vector<std::string> rows;
  for (int i = 0; i < 600; ++i) {
    rows.push_back(rng.ident(static_cast<size_t>(rng.uniform_int(0, 300))));
  }
  rows[100] = std::string(static_cast<size_t>(kPageSize) + 5, 'o');
  rows[200] = std::string(static_cast<size_t>(kPageSize), 'f');
  ShardedHeap heap(2);
  HeapFile oracle(1);
  const auto appended = heap.append_batch(1, pack(rows));
  ASSERT_EQ(appended.slots.size(), rows.size());
  int64_t oracle_pages = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto o = oracle.append_pending(rows[i]);
    if (o.opened_new_page) ++oracle_pages;
    EXPECT_EQ(appended.slots[i], o.slot) << "row " << i;
    EXPECT_EQ(appended.views[i], rows[i]) << "row " << i;
  }
  EXPECT_EQ(appended.pages_opened, oracle_pages);
  EXPECT_EQ(heap.page_count(), oracle.page_count());
}

TEST(ShardedHeapBatchTest, LostTailIsDiscardedAndOnlyThePrefixPublished) {
  // The columnar insert path appends a packed run pending, then re-checks
  // primary keys; rows from the first lost race on are discarded and only
  // the surviving prefix is published.
  ShardedHeap heap(3);
  append_live(heap, 2, "earlier");
  std::vector<std::string> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back("row-" + std::to_string(i) + std::string(40, 'x'));
  }
  auto appended = heap.append_batch(2, pack(rows));
  ASSERT_EQ(appended.slots.size(), 10u);
  EXPECT_EQ(heap.row_count(), 1);  // the whole run is still hidden
  constexpr size_t kSurvivors = 6;
  for (size_t i = kSurvivors; i < rows.size(); ++i) {
    ASSERT_TRUE(heap.discard(appended.slots[i]).is_ok());
  }
  appended.slots.resize(kSurvivors);
  ASSERT_TRUE(heap.publish_batch(appended.slots).is_ok());

  EXPECT_EQ(heap.row_count(), 1 + static_cast<int64_t>(kSurvivors));
  int64_t prefix_bytes = 7;  // "earlier"
  for (size_t i = 0; i < kSurvivors; ++i) {
    prefix_bytes += static_cast<int64_t>(rows[i].size());
    EXPECT_EQ(heap.read(appended.slots[i]).value(), rows[i]);
  }
  EXPECT_EQ(heap.total_bytes(), prefix_bytes);
  std::vector<std::string> scanned;
  heap.scan([&](SlotId, std::string_view row) { scanned.emplace_back(row); });
  ASSERT_EQ(scanned.size(), 1 + kSurvivors);
  EXPECT_EQ(scanned.front(), "earlier");
  EXPECT_EQ(scanned.back(), rows[kSurvivors - 1]);
  // The discarded tail stays dead: unreadable, unpublishable, and its
  // bytes still occupy the page, so the next row lands after it.
  const SlotId last_discarded{2, 0, static_cast<uint32_t>(rows.size())};
  EXPECT_FALSE(heap.read(last_discarded).is_ok());
  EXPECT_FALSE(heap.publish_batch({&last_discarded, 1}).is_ok());
  const auto next = append_live(heap, 2, "next");
  EXPECT_EQ(next.slot.page, 0u);
  EXPECT_EQ(next.slot.slot, static_cast<uint32_t>(rows.size()) + 1);
}

TEST(ShardedHeapBatchTest, ViewsStayValidAcrossTenThousandAppends) {
  // Views handed out by append_batch() and read() point into page
  // buffers; 10k further appends (new pages, oversized rows, packed runs)
  // must leave every one of them reading its own bytes (ASan flags any
  // dangling read).
  Rng rng(4242);
  ShardedHeap heap(2);
  std::vector<std::pair<std::string_view, std::string>> held;
  std::vector<std::string> run;
  for (int i = 0; i < 50; ++i) {
    run.push_back(rng.ident(static_cast<size_t>(rng.uniform_int(1, 120))));
  }
  const auto batch = heap.append_batch(0, pack(run));
  ASSERT_TRUE(heap.publish_batch(batch.slots).is_ok());
  for (size_t i = 0; i < run.size(); ++i) {
    held.emplace_back(batch.views[i], run[i]);
  }
  for (int i = 0; i < 50; ++i) {
    std::string row = rng.ident(static_cast<size_t>(rng.uniform_int(1, 120)));
    const auto r = append_live(heap, 1, row);
    held.emplace_back(r.bytes, row);
    held.emplace_back(heap.read(r.slot).value(), std::move(row));
  }

  int appended = 0;
  while (appended < 10000) {
    const auto extent = static_cast<uint32_t>(rng.uniform_int(0, 1));
    if (rng.bernoulli(0.1)) {
      std::vector<std::string> more(
          static_cast<size_t>(rng.uniform_int(1, 200)));
      for (std::string& row : more) {
        row = rng.ident(static_cast<size_t>(rng.uniform_int(1, 200)));
      }
      ASSERT_TRUE(
          heap.publish_batch(heap.append_batch(extent, pack(more)).slots)
              .is_ok());
      appended += static_cast<int>(more.size());
    } else {
      const size_t size = rng.bernoulli(0.01)
                              ? static_cast<size_t>(kPageSize) + 17
                              : static_cast<size_t>(rng.uniform_int(1, 200));
      append_live(heap, extent, std::string(size, 'g'));
      ++appended;
    }
  }
  ASSERT_GT(heap.page_count(), 100);
  for (const auto& [view, expected] : held) EXPECT_EQ(view, expected);
}

}  // namespace
}  // namespace sky::storage
