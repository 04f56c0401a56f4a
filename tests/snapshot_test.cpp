// Snapshot-read battery: committed-prefix visibility, frozen pins,
// quiesced equivalence with the live query family, the zero-latch
// regression guarantee, and a randomized loader/scanner property test of
// snapshot consistency under concurrency (runs under the sanitizer label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/query_scheduler.h"
#include "index/key_codec.h"

namespace sky::db {
namespace {

// One table, int64 PK, non-unique secondary on batch_id: every row of a
// transaction carries (batch_id, batch_seq, batch_total) so a reader can
// prove it saw whole transactions and nothing else.
Schema batches_schema() {
  Schema schema;
  TableDef batches;
  batches.name = "batches";
  batches.col("pk", ColumnType::kInt64, false);
  batches.col("batch_id", ColumnType::kInt64, false);
  batches.col("batch_seq", ColumnType::kInt64, false);
  batches.col("batch_total", ColumnType::kInt64, false);
  batches.primary_key = {"pk"};
  batches.indexes.push_back(IndexDef{"ix_batch", {"batch_id"}, {}});
  EXPECT_TRUE(schema.add_table(batches).is_ok());
  return schema;
}

Row batch_row(int64_t pk, int64_t batch_id, int64_t seq, int64_t total) {
  return {Value::i64(pk), Value::i64(batch_id), Value::i64(seq),
          Value::i64(total)};
}

// Polls the snapshot stats until the merger has tiered the chains down to
// at most `max_runs` runs, or a deadline passes (the merger runs on its
// own thread, so a busy host can delay it).
SnapshotStats wait_for_runs(const Engine& engine, int64_t max_runs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  SnapshotStats stats = engine.stats().snapshots;
  while (stats.runs > max_runs && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = engine.stats().snapshots;
  }
  return stats;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : engine_(batches_schema()) {
    table_ = engine_.table_id("batches").value();
  }

  // Insert rows [pk_base, pk_base + total) as one committed transaction.
  void commit_batch(int64_t pk_base, int64_t batch_id, int64_t total) {
    const uint64_t txn = engine_.begin_transaction();
    for (int64_t seq = 0; seq < total; ++seq) {
      OpCosts costs;
      ASSERT_TRUE(engine_
                      .insert_row(txn, table_,
                                  batch_row(pk_base + seq, batch_id, seq,
                                            total),
                                  costs)
                      .is_ok());
    }
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }

  Engine engine_;
  uint32_t table_ = 0;
};

TEST_F(SnapshotTest, PinSeesOnlyCommittedPrefix) {
  commit_batch(0, 1, 4);
  const Snapshot before = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);

  // Uncommitted rows are live-visible (read-uncommitted two-phase insert)
  // but must not appear in any snapshot.
  const uint64_t txn = engine_.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(100, 2, 0, 2), costs).is_ok());
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(101, 2, 1, 2), costs).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(table_), 6);  // live sees the pending rows
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);
  const Snapshot during = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(during).row_count(table_), 4);
  EXPECT_FALSE(
      engine_.view_at(during).pk_lookup(table_, {Value::i64(100)}).is_ok());

  ASSERT_TRUE(engine_.commit(txn).is_ok());
  // Pins taken before the commit stay frozen; a fresh pin advances.
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);
  EXPECT_EQ(engine_.view_at(during).row_count(table_), 4);
  const Snapshot after = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(after).row_count(table_), 6);
  EXPECT_GT(after.read_lsn(), during.read_lsn());
  EXPECT_TRUE(
      engine_.view_at(after).pk_lookup(table_, {Value::i64(100)}).is_ok());
}

TEST_F(SnapshotTest, RolledBackRowsNeverPublished) {
  commit_batch(0, 1, 2);
  const uint64_t txn = engine_.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(50, 9, 0, 1), costs).is_ok());
  ASSERT_TRUE(engine_.rollback(txn).is_ok());
  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_), 2);
  EXPECT_FALSE(
      engine_.view_at(snap).pk_lookup(table_, {Value::i64(50)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(SnapshotTest, QuiescedEquivalenceWithLiveReads) {
  // Mixed row and columnar commits, then compare every snapshot_* read
  // against its live twin on the quiesced engine.
  commit_batch(0, 1, 8);
  {
    const uint64_t txn = engine_.begin_transaction();
    ColumnBatch batch(engine_.schema().table(table_));
    for (int64_t seq = 0; seq < 16; ++seq) {
      batch.push_i64(0, 100 + seq);
      batch.push_i64(1, 2);
      batch.push_i64(2, seq);
      batch.push_i64(3, 16);
    }
    const BatchResult result = engine_.insert_column_batch(txn, table_, batch);
    ASSERT_FALSE(result.error.has_value());
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }
  commit_batch(200, 3, 4);

  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_),
            engine_.live_view().row_count(table_));

  const auto all_live =
      engine_.live_view().scan_collect(table_, [](const Row&) { return true; });
  const auto all_snap = engine_.view_at(snap).scan_collect(
      table_, [](const Row&) { return true; });
  EXPECT_EQ(all_live, all_snap);

  const auto live_range =
      engine_.live_view().pk_range(table_, {Value::i64(0)}, {Value::i64(150)});
  const auto snap_range =
      engine_.view_at(snap).pk_range(table_, {Value::i64(0)},
                                {Value::i64(150)});
  ASSERT_TRUE(live_range.is_ok());
  ASSERT_TRUE(snap_range.is_ok());
  EXPECT_EQ(*live_range, *snap_range);

  const auto live_ix =
      engine_.live_view().index_range(table_, "ix_batch", {Value::i64(2)},
                          {Value::i64(3)});
  const auto snap_ix = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(2)}, {Value::i64(3)});
  ASSERT_TRUE(live_ix.is_ok());
  ASSERT_TRUE(snap_ix.is_ok());
  EXPECT_EQ(live_ix->size(), 16u);
  EXPECT_EQ(*live_ix, *snap_ix);

  // Encoded-key spellings, bounded and unbounded (empty hi).
  const auto key = [](int64_t v) {
    index::KeyEncoder enc;
    enc.append_int64(v);
    return enc.take();
  };
  for (const std::string& hi : {key(150), std::string()}) {
    const auto live_pk =
        engine_.live_view().pk_encoded_range(table_, key(3), hi);
    const auto snap_pk = engine_.view_at(snap).pk_encoded_range(table_, key(3),
                                                               hi);
    ASSERT_TRUE(live_pk.is_ok());
    ASSERT_TRUE(snap_pk.is_ok());
    EXPECT_EQ(live_pk->size(), hi.empty() ? 25u : 21u);
    EXPECT_EQ(*live_pk, *snap_pk);
  }
  for (const std::string& hi : {key(3), std::string()}) {
    const auto live_enc =
        engine_.live_view().index_encoded_range(table_, "ix_batch", key(2), hi);
    const auto snap_enc = engine_.view_at(snap).index_encoded_range(
        table_, "ix_batch", key(2), hi);
    ASSERT_TRUE(live_enc.is_ok());
    ASSERT_TRUE(snap_enc.is_ok());
    EXPECT_EQ(live_enc->size(), hi.empty() ? 20u : 16u);
    EXPECT_EQ(*live_enc, *snap_enc);
  }

  for (const int64_t pk : {0L, 107L, 203L}) {
    const auto live = engine_.live_view().pk_lookup(table_, {Value::i64(pk)});
    const auto snapped =
        engine_.view_at(snap).pk_lookup(table_, {Value::i64(pk)});
    ASSERT_TRUE(live.is_ok());
    ASSERT_TRUE(snapped.is_ok());
    EXPECT_EQ(*live, *snapped);
  }
  EXPECT_FALSE(
      engine_.view_at(snap).pk_lookup(table_, {Value::i64(9999)}).is_ok());

  // Physical view matches the heap exactly (quiesced).
  std::multiset<std::pair<uint32_t, std::string>> live_heap;
  ASSERT_TRUE(engine_.live_view()
                  .scan_heap(table_,
                             [&](storage::SlotId slot, std::string_view bytes) {
                               live_heap.emplace(slot.extent,
                                                 std::string(bytes));
                             })
                  .is_ok());
  std::multiset<std::pair<uint32_t, std::string>> snap_heap;
  ASSERT_TRUE(engine_
                  .view_at(snap).scan_heap(table_,
                      [&](storage::SlotId slot, std::string_view bytes) {
                        snap_heap.emplace(slot.extent, std::string(bytes));
                      })
                  .is_ok());
  EXPECT_EQ(live_heap, snap_heap);
}

// Argument errors do not depend on the read mode: a live and a pinned view
// report the same code and message, and an empty view fails every read
// with kFailedPrecondition.
TEST_F(SnapshotTest, ArgumentErrorsIdenticalAcrossReadModes) {
  commit_batch(0, 1, 4);
  const Snapshot snap = engine_.pin_snapshot();
  const uint32_t bad_table = table_ + 7;
  const auto heap_visit = [](storage::SlotId, std::string_view) {};

  struct ErrorCase {
    const char* name;
    std::function<Status(const ReadView&)> read;
    ErrorCode code;
  };
  const ErrorCase kCases[] = {
      {"pk_lookup/bad table",
       [&](const ReadView& v) {
         return v.pk_lookup(bad_table, {Value::i64(0)}).status();
       },
       ErrorCode::kNotFound},
      {"pk_range/bad table",
       [&](const ReadView& v) {
         return v.pk_range(bad_table, {Value::i64(0)}, {Value::i64(9)})
             .status();
       },
       ErrorCode::kNotFound},
      {"index_range/bad table",
       [&](const ReadView& v) {
         return v.index_range(bad_table, "ix_batch", {Value::i64(0)},
                              {Value::i64(9)})
             .status();
       },
       ErrorCode::kNotFound},
      {"pk_encoded_range/bad table",
       [&](const ReadView& v) {
         return v.pk_encoded_range(bad_table, "", "").status();
       },
       ErrorCode::kNotFound},
      {"index_encoded_range/bad table",
       [&](const ReadView& v) {
         return v.index_encoded_range(bad_table, "ix_batch", "", "").status();
       },
       ErrorCode::kNotFound},
      {"scan_heap/bad table",
       [&](const ReadView& v) { return v.scan_heap(bad_table, heap_visit); },
       ErrorCode::kNotFound},
      {"index_range/unknown index",
       [&](const ReadView& v) {
         return v.index_range(table_, "ix_none", {Value::i64(0)},
                              {Value::i64(9)})
             .status();
       },
       ErrorCode::kNotFound},
      {"index_encoded_range/unknown index",
       [&](const ReadView& v) {
         return v.index_encoded_range(table_, "ix_none", "", "").status();
       },
       ErrorCode::kNotFound},
      {"pk_lookup/arity mismatch",
       [&](const ReadView& v) {
         return v.pk_lookup(table_, {Value::i64(0), Value::i64(1)}).status();
       },
       ErrorCode::kInvalidArgument},
  };
  for (const ErrorCase& c : kCases) {
    const Status live = c.read(engine_.live_view());
    const Status pinned = c.read(engine_.view_at(snap));
    EXPECT_EQ(live.code(), c.code) << c.name;
    EXPECT_EQ(pinned.code(), c.code) << c.name;
    EXPECT_EQ(live.message(), pinned.message()) << c.name;
    EXPECT_EQ(c.read(ReadView()).code(), ErrorCode::kFailedPrecondition)
        << c.name;
  }
}

// The one intended divergence between the modes: a live read fails because
// the index is disabled now, a snapshot read because a visible chunk was
// committed without the index's run. A pin whose chunks all carry the run
// keeps serving after the index is disabled.
TEST_F(SnapshotTest, IndexAvailabilityIsJudgedPerMode) {
  commit_batch(0, 1, 4);
  const Snapshot before = engine_.pin_snapshot();
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  const Snapshot after_disable = engine_.pin_snapshot();
  index::KeyEncoder enc;
  enc.append_int64(1);
  const std::string lo = enc.take();

  EXPECT_EQ(engine_.live_view()
                .index_range(table_, "ix_batch", {Value::i64(1)},
                             {Value::i64(2)})
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine_.live_view()
                .index_encoded_range(table_, "ix_batch", lo, "")
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  for (const Snapshot* snap : {&before, &after_disable}) {
    const auto rows = engine_.view_at(*snap).index_range(
        table_, "ix_batch", {Value::i64(1)}, {Value::i64(2)});
    ASSERT_TRUE(rows.is_ok());
    EXPECT_EQ(rows->size(), 4u);
    const auto encoded =
        engine_.view_at(*snap).index_encoded_range(table_, "ix_batch", lo, "");
    ASSERT_TRUE(encoded.is_ok());
    EXPECT_EQ(*encoded, *rows);
  }
}

TEST_F(SnapshotTest, BulkLoadSortedPublishesOneChunk) {
  std::vector<Row> rows;
  for (int64_t pk = 0; pk < 32; ++pk) {
    rows.push_back(batch_row(pk, pk % 4, pk, 32));
  }
  ASSERT_TRUE(engine_.bulk_load_sorted(table_, rows).is_ok());
  const SnapshotStats stats = engine_.stats().snapshots;
  EXPECT_EQ(stats.chunks_published, 1);
  EXPECT_EQ(stats.rows_published, 32);
  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_), 32);
  const auto by_batch = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(1)}, {Value::i64(2)});
  ASSERT_TRUE(by_batch.is_ok());
  EXPECT_EQ(by_batch->size(), 8u);

  // Preloaded with ix_batch disabled: still one chunk, but it carries no
  // ix_batch run, so a pin over it fails closed on that index, before and
  // after the live index is rebuilt.
  Engine disabled(batches_schema());
  ASSERT_TRUE(disabled.set_index_enabled(table_, "ix_batch", false).is_ok());
  ASSERT_TRUE(disabled.bulk_load_sorted(table_, rows).is_ok());
  EXPECT_EQ(disabled.stats().snapshots.chunks_published, 1);
  const Snapshot pinned = disabled.pin_snapshot();
  EXPECT_EQ(disabled.view_at(pinned).row_count(table_), 32);
  const auto closed = disabled.view_at(pinned).index_range(
      table_, "ix_batch", {Value::i64(1)}, {Value::i64(2)});
  ASSERT_FALSE(closed.is_ok());
  EXPECT_EQ(closed.status().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(disabled.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(disabled.rebuild_index(table_, "ix_batch").is_ok());
  const auto live = disabled.live_view().index_range(
      table_, "ix_batch", {Value::i64(0)}, {});
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->size(), 32u);
  EXPECT_EQ(disabled.view_at(pinned)
                .index_range(table_, "ix_batch", {Value::i64(1)},
                             {Value::i64(2)})
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, ChunkPredatingIndexFailsClosed) {
  commit_batch(0, 1, 4);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(100, 2, 4);  // chunk committed with the index disabled
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  commit_batch(200, 3, 4);

  // The live index was rebuilt and serves everything; the snapshot chain
  // still contains the index-less chunk and must fail closed rather than
  // silently miss its rows.
  const auto live = engine_.live_view().index_range(table_, "ix_batch", {Value::i64(2)},
                                        {Value::i64(3)});
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->size(), 4u);
  const Snapshot snap = engine_.pin_snapshot();
  const auto snapped = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(2)}, {Value::i64(3)});
  ASSERT_FALSE(snapped.is_ok());
  EXPECT_EQ(snapped.status().code(), ErrorCode::kFailedPrecondition);
  // PK reads are unaffected.
  const auto pk = engine_.view_at(snap).pk_range(table_, {Value::i64(0)},
                                            {Value::i64(1000)});
  ASSERT_TRUE(pk.is_ok());
  EXPECT_EQ(pk->size(), 12u);
}

// Bounded chains: after 10k single-row commits the merger keeps the chain
// at O(log commits) runs, and reads over the merged runs equal live reads.
TEST_F(SnapshotTest, DeepChainStaysLogarithmic) {
  constexpr int64_t kCommits = 10000;
  for (int64_t i = 0; i < kCommits; ++i) commit_batch(i, i, 1);
  const auto max_runs = static_cast<int64_t>(
      2.0 * std::log2(static_cast<double>(kCommits)));
  const SnapshotStats stats = wait_for_runs(engine_, max_runs);
  EXPECT_LE(stats.runs, max_runs);
  EXPECT_EQ(stats.chunks_published, kCommits);
  EXPECT_GT(stats.merges, 0);
  EXPECT_GT(stats.key_bytes, 0);

  const Snapshot snap = engine_.pin_snapshot();
  const ReadView pinned = engine_.view_at(snap);
  const ReadView live = engine_.live_view();
  EXPECT_EQ(pinned.row_count(table_), kCommits);
  for (const int64_t pk : {0L, 1L, 4095L, 4096L, 7777L, kCommits - 1}) {
    const auto want = live.pk_lookup(table_, {Value::i64(pk)});
    const auto got = pinned.pk_lookup(table_, {Value::i64(pk)});
    ASSERT_TRUE(want.is_ok());
    ASSERT_TRUE(got.is_ok()) << pk;
    EXPECT_EQ(*want, *got);
  }
  EXPECT_EQ(pinned.pk_lookup(table_, {Value::i64(kCommits)}).status().code(),
            ErrorCode::kNotFound);
  const auto live_ix = live.index_range(table_, "ix_batch", {Value::i64(900)},
                                        {Value::i64(1300)});
  const auto snap_ix = pinned.index_range(table_, "ix_batch",
                                          {Value::i64(900)},
                                          {Value::i64(1300)});
  ASSERT_TRUE(live_ix.is_ok());
  ASSERT_TRUE(snap_ix.is_ok());
  EXPECT_EQ(live_ix->size(), 400u);
  EXPECT_EQ(*live_ix, *snap_ix);
  const auto all = [](const Row&) { return true; };
  EXPECT_EQ(live.scan_collect(table_, all), pinned.scan_collect(table_, all));
}

// Transactions held open at once on distinct extents commit interleaved, so
// commit order is a concatenation of short runs, each in heap order, and the
// merger absorbs some of the chunks. A pinned heap scan still visits slots in
// strictly ascending (extent, page, slot) order and collects what a live
// scan does.
TEST_F(SnapshotTest, HeapOrderScanMatchesLiveAcrossInterleavedExtents) {
  constexpr size_t kExtents = 4;
  constexpr int64_t kRounds = 40;
  constexpr int64_t kRowsPerTxn = 3;
  EngineOptions options;
  options.heap_extents = kExtents;
  Engine engine(batches_schema(), options);
  const uint32_t table = engine.table_id("batches").value();
  int64_t pk = 0;
  for (int64_t round = 0; round < kRounds; ++round) {
    // Round-robin assignment puts each open transaction on its own extent.
    std::vector<uint64_t> txns;
    for (size_t t = 0; t < kExtents; ++t) {
      txns.push_back(engine.begin_transaction());
    }
    for (int64_t seq = 0; seq < kRowsPerTxn; ++seq) {
      for (size_t t = 0; t < kExtents; ++t) {
        const auto batch_id = static_cast<int64_t>(
            static_cast<size_t>(round) * kExtents + t);
        OpCosts costs;
        ASSERT_TRUE(engine
                        .insert_row(txns[t], table,
                                    batch_row(pk++, batch_id, seq, kRowsPerTxn),
                                    costs)
                        .is_ok());
      }
    }
    // Mostly descending extents, rotated each round.
    for (size_t t = 0; t < kExtents; ++t) {
      const size_t at = (3 * t + static_cast<size_t>(round)) % kExtents;
      ASSERT_TRUE(engine.commit(txns[at]).is_ok());
    }
  }
  const SnapshotStats stats = wait_for_runs(engine, 16);
  EXPECT_GT(stats.merges, 0);
  EXPECT_EQ(stats.chunks_published,
            kRounds * static_cast<int64_t>(kExtents));

  const Snapshot snap = engine.pin_snapshot();
  const ReadView pinned = engine.view_at(snap);
  const ReadView live = engine.live_view();
  using Visit = std::pair<storage::SlotId, std::string>;
  const auto heap_of = [&](const ReadView& view) {
    std::vector<Visit> visits;
    EXPECT_TRUE(view.scan_heap(table,
                               [&](storage::SlotId slot,
                                   std::string_view bytes) {
                                 visits.emplace_back(slot, std::string(bytes));
                               })
                    .is_ok());
    return visits;
  };
  const std::vector<Visit> pinned_heap = heap_of(pinned);
  ASSERT_EQ(pinned_heap.size(), static_cast<size_t>(pk));
  std::set<uint32_t> extents;
  for (size_t i = 0; i < pinned_heap.size(); ++i) {
    const storage::SlotId& slot = pinned_heap[i].first;
    extents.insert(slot.extent);
    if (i == 0) continue;
    const storage::SlotId& prev = pinned_heap[i - 1].first;
    EXPECT_LT(std::tie(prev.extent, prev.page, prev.slot),
              std::tie(slot.extent, slot.page, slot.slot))
        << i;
  }
  EXPECT_EQ(extents.size(), kExtents);
  EXPECT_EQ(pinned_heap, heap_of(live));
  const auto all = [](const Row&) { return true; };
  EXPECT_EQ(pinned.scan_collect(table, all), live.scan_collect(table, all));
}

// Fail-closed survives merging: once the index-less chunk is absorbed into
// a merged run, the merged run has no run for the index either.
TEST_F(SnapshotTest, MergeAbsorbingIndexlessChunkFailsClosed) {
  for (int64_t i = 0; i < 10; ++i) commit_batch(i, i, 1);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(10, 10, 1);  // chunk committed with the index disabled
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  for (int64_t i = 11; i < 64; ++i) commit_batch(i, i, 1);

  // 64 one-row commits tier into at most 7 runs, so the index-less chunk
  // (commit 11 of 64) then sits inside a merged run.
  const SnapshotStats stats = wait_for_runs(engine_, 7);
  EXPECT_LE(stats.runs, 7);
  EXPECT_GT(stats.merges, 0);
  const Snapshot snap = engine_.pin_snapshot();
  const auto snapped = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(0)}, {Value::i64(64)});
  ASSERT_FALSE(snapped.is_ok());
  EXPECT_EQ(snapped.status().code(), ErrorCode::kFailedPrecondition);
  const auto live = engine_.live_view().index_range(
      table_, "ix_batch", {Value::i64(0)}, {Value::i64(64)});
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->size(), 64u);
  const auto pk = engine_.view_at(snap).pk_range(table_, {Value::i64(0)},
                                                 {Value::i64(64)});
  ASSERT_TRUE(pk.is_ok());
  EXPECT_EQ(pk->size(), 64u);
}

// A pin holds its own chain: merges that replace the nodes it captured
// change nothing it reads.
TEST_F(SnapshotTest, PinHeldAcrossMergesIsFrozen) {
  for (int64_t i = 0; i < 100; ++i) commit_batch(i, i, 1);
  const Snapshot pinned = engine_.pin_snapshot();
  const ReadView view = engine_.view_at(pinned);
  const auto all = [](const Row&) { return true; };
  const auto scan_before = view.scan_collect(table_, all);
  const auto pk_before =
      view.pk_range(table_, {Value::i64(0)}, {Value::i64(1000)});
  const auto ix_before = view.index_range(table_, "ix_batch", {Value::i64(10)},
                                          {Value::i64(60)});
  ASSERT_TRUE(pk_before.is_ok());
  ASSERT_TRUE(ix_before.is_ok());
  const int64_t merges_before = wait_for_runs(engine_, 8).merges;

  for (int64_t i = 100; i < 1000; ++i) commit_batch(i, i, 1);
  const SnapshotStats stats = wait_for_runs(engine_, 10);
  EXPECT_LE(stats.runs, 10);
  EXPECT_GT(stats.merges, merges_before + 10);

  EXPECT_EQ(view.row_count(table_), 100);
  EXPECT_EQ(view.scan_collect(table_, all), scan_before);
  const auto pk_after =
      view.pk_range(table_, {Value::i64(0)}, {Value::i64(1000)});
  ASSERT_TRUE(pk_after.is_ok());
  EXPECT_EQ(*pk_after, *pk_before);
  EXPECT_EQ(pk_after->size(), 100u);
  const auto ix_after = view.index_range(table_, "ix_batch", {Value::i64(10)},
                                         {Value::i64(60)});
  ASSERT_TRUE(ix_after.is_ok());
  EXPECT_EQ(*ix_after, *ix_before);
  EXPECT_FALSE(view.pk_lookup(table_, {Value::i64(500)}).is_ok());
  EXPECT_TRUE(engine_.view_at(engine_.pin_snapshot())
                  .pk_lookup(table_, {Value::i64(500)})
                  .is_ok());
}

// Fail-closed symmetry: an index that cannot serve a read reports one
// canonical code — kFailedPrecondition — on every secondary read spelling,
// live or snapshot, value-tuple or encoded-key. The live reads fail because
// the index is disabled right now; the snapshot reads fail because a chunk
// in the pinned chain was committed without index entries. Callers branch
// on the code only (never the message), so the four paths must agree.
TEST_F(SnapshotTest, IndexUnavailableIsSymmetricAcrossReadPaths) {
  commit_batch(0, 1, 4);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(100, 2, 4);  // chunk committed with the index disabled
  const Snapshot stale = engine_.pin_snapshot();

  index::KeyEncoder enc;
  enc.append_int64(1);
  const std::string lo = enc.take();
  enc.clear();
  enc.append_int64(3);
  const std::string hi = enc.take();

  struct ReadCase {
    const char* name;
    bool snapshot;  // read through the stale pin instead of the live state
    bool encoded;   // encoded-key spelling instead of value tuples
  };
  const ReadCase kCases[] = {
      {"live/index_range", false, false},
      {"live/index_encoded_range", false, true},
      {"snapshot/index_range", true, false},
      {"snapshot/index_encoded_range", true, true},
  };
  const auto probe = [&](const ReadCase& c) {
    const ReadView view =
        c.snapshot ? engine_.view_at(stale) : engine_.live_view();
    return c.encoded
               ? view.index_encoded_range(table_, "ix_batch", lo, hi).status()
               : view.index_range(table_, "ix_batch", {Value::i64(1)},
                                  {Value::i64(3)})
                     .status();
  };

  for (const ReadCase& c : kCases) {
    EXPECT_EQ(probe(c).code(), ErrorCode::kFailedPrecondition) << c.name;
  }

  // Re-enabling and rebuilding heals the live paths only: the stale pin
  // still chains over the index-less chunk and keeps failing closed.
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  for (const ReadCase& c : kCases) {
    if (c.snapshot) {
      EXPECT_EQ(probe(c).code(), ErrorCode::kFailedPrecondition) << c.name;
    } else {
      EXPECT_TRUE(probe(c).is_ok()) << c.name;
    }
  }
}

// Regression for the tentpole guarantee: a snapshot read completes without
// touching any latch even while a loader holds the extent latch inside a
// long modeled append. Live reads would block here; the snapshot path's
// lock-wait cost and the scheduler's gate-wait counters must stay zero.
TEST_F(SnapshotTest, ScanAcquiresZeroLatchesWhileLoaderHoldsExtent) {
  EngineOptions options;
  options.heap_extents = 1;  // one extent: any latch share would collide
  options.latency.extent_append_write = 30 * kMillisecond;
  Engine engine(batches_schema(), options);
  const uint32_t table = engine.table_id("batches").value();
  {
    const uint64_t txn = engine.begin_transaction();
    for (int64_t seq = 0; seq < 4; ++seq) {
      OpCosts costs;
      ASSERT_TRUE(
          engine.insert_row(txn, table, batch_row(seq, 1, seq, 4), costs)
              .is_ok());
    }
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }

  QueryScheduler scheduler(engine);
  std::atomic<bool> loader_started{false};
  std::thread loader([&] {
    const uint64_t txn = engine.begin_transaction();
    std::vector<Row> rows;
    for (int64_t seq = 0; seq < 20; ++seq) {
      rows.push_back(batch_row(100 + seq, 2, seq, 20));
    }
    loader_started.store(true);
    // ~600 ms of extent-latch holds (30 ms per appended row).
    const BatchResult result = engine.insert_batch(txn, table, rows);
    ASSERT_FALSE(result.error.has_value());
    ASSERT_TRUE(engine.commit(txn).is_ok());
  });
  while (!loader_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  OpCosts costs;
  const auto begin = std::chrono::steady_clock::now();
  const Admission admission =
      scheduler.admit(QueryLane::kInteractive, &costs);
  const auto rows = engine.view_at(admission.snapshot())
                        .scan_collect(table, [](const Row&) { return true; },
                                      &costs);
  const auto hit =
      engine.view_at(admission.snapshot()).pk_lookup(table, {Value::i64(0)});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_EQ(rows.size(), 4u);  // the committed prefix only
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(costs.lock_wait_ns, 0);
  EXPECT_EQ(scheduler.stats().interactive.gate.waits, 0u);
  // Far below a single 30 ms extent hold — the reads queued on nothing.
  EXPECT_LT(elapsed, 400);
  loader.join();
}

// Randomized property: under concurrent loaders (mixed row/columnar
// batches, occasional rollbacks), every pin observes exactly a set of whole
// committed transactions — no torn batch, no rolled-back row, unique PKs —
// and re-pins are monotone (read_lsn, row count, batch-id set).
TEST_F(SnapshotTest, ConcurrentLoadersSnapshotConsistencyProperty) {
  constexpr int kLoaders = 4;
  constexpr int kScanners = 2;
  constexpr int kTxnsPerLoader = 60;
  Engine engine(batches_schema(), EngineOptions{});
  const uint32_t table = engine.table_id("batches").value();

  std::atomic<int64_t> next_pk{0};
  std::atomic<int64_t> next_batch{1};
  std::atomic<int> loaders_done{0};
  std::mutex ledger_mu;
  std::set<int64_t> committed_ids;
  std::set<int64_t> rolled_back_ids;

  std::vector<std::thread> threads;
  for (int w = 0; w < kLoaders; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(7000 + static_cast<uint64_t>(w));
      for (int t = 0; t < kTxnsPerLoader; ++t) {
        const int64_t total = rng.uniform_int(1, 24);
        const int64_t pk_base = next_pk.fetch_add(total);
        const int64_t batch_id = next_batch.fetch_add(1);
        const uint64_t txn = engine.begin_transaction();
        if (rng.bernoulli(0.5)) {
          ColumnBatch batch(engine.schema().table(table));
          for (int64_t seq = 0; seq < total; ++seq) {
            batch.push_i64(0, pk_base + seq);
            batch.push_i64(1, batch_id);
            batch.push_i64(2, seq);
            batch.push_i64(3, total);
          }
          const BatchResult result =
              engine.insert_column_batch(txn, table, batch);
          ASSERT_FALSE(result.error.has_value());
        } else {
          std::vector<Row> rows;
          for (int64_t seq = 0; seq < total; ++seq) {
            rows.push_back(batch_row(pk_base + seq, batch_id, seq, total));
          }
          const BatchResult result = engine.insert_batch(txn, table, rows);
          ASSERT_FALSE(result.error.has_value());
        }
        if (rng.bernoulli(0.1)) {
          ASSERT_TRUE(engine.rollback(txn).is_ok());
          const std::scoped_lock lock(ledger_mu);
          rolled_back_ids.insert(batch_id);
        } else {
          ASSERT_TRUE(engine.commit(txn).is_ok());
          const std::scoped_lock lock(ledger_mu);
          committed_ids.insert(batch_id);
        }
      }
      loaders_done.fetch_add(1);
    });
  }

  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(31000 + static_cast<uint64_t>(s));
      uint64_t last_lsn = 0;
      int64_t last_rows = 0;
      std::set<int64_t> last_ids;
      while (loaders_done.load() < kLoaders) {
        const Snapshot snap = engine.pin_snapshot();
        ASSERT_GE(snap.read_lsn(), last_lsn);
        const int64_t rows = engine.view_at(snap).row_count(table);
        ASSERT_GE(rows, last_rows);

        std::map<int64_t, std::pair<int64_t, int64_t>> seen;  // id -> (n,total)
        std::set<int64_t> pks;
        int64_t visited = 0;
        const auto all = engine.view_at(snap).scan_collect(
            table, [](const Row&) { return true; });
        for (const Row& row : all) {
          ++visited;
          ASSERT_TRUE(pks.insert(row[0].as_i64()).second)
              << "duplicate pk in one snapshot";
          auto& [n, batch_total] = seen[row[1].as_i64()];
          ++n;
          batch_total = row[3].as_i64();
        }
        ASSERT_EQ(visited, rows);
        std::set<int64_t> ids;
        for (const auto& [batch_id, counts] : seen) {
          ASSERT_EQ(counts.first, counts.second)
              << "torn batch " << batch_id << " in snapshot at lsn "
              << snap.read_lsn();
          ids.insert(batch_id);
        }
        for (const int64_t batch_id : last_ids) {
          ASSERT_TRUE(ids.count(batch_id) > 0)
              << "batch " << batch_id << " vanished on re-pin";
        }
        // Spot-check the secondary-index path under load: a batch that the
        // scan proved visible must be fully readable through ix_batch.
        if (!ids.empty() && rng.bernoulli(0.5)) {
          const int64_t probe = *ids.begin();
          const auto by_index = engine.view_at(snap).index_range(
              table, "ix_batch", {Value::i64(probe)},
              {Value::i64(probe + 1)});
          ASSERT_TRUE(by_index.is_ok());
          ASSERT_EQ(static_cast<int64_t>(by_index->size()),
                    seen[probe].second);
        }
        last_lsn = snap.read_lsn();
        last_rows = rows;
        last_ids = std::move(ids);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Quiesced: the final pin is the committed ledger exactly, and matches
  // the live scan.
  const Snapshot final_snap = engine.pin_snapshot();
  const auto all = engine.view_at(final_snap).scan_collect(
      table, [](const Row&) { return true; });
  std::set<int64_t> final_ids;
  for (const Row& row : all) final_ids.insert(row[1].as_i64());
  EXPECT_EQ(final_ids, committed_ids);
  for (const int64_t batch_id : rolled_back_ids) {
    EXPECT_EQ(final_ids.count(batch_id), 0u);
  }
  const auto live =
      engine.live_view().scan_collect(table, [](const Row&) { return true; });
  EXPECT_EQ(all, live);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  const SnapshotStats stats = engine.stats().snapshots;
  EXPECT_EQ(stats.active_pins, 1);  // final_snap
  EXPECT_EQ(stats.rows_published, engine.live_view().row_count(table));
}

// Parent "fields" (secondary index on name) and child "stars" with an HTM
// index and a two-column secondary index: every key-run shape a chunk
// carries.
Schema fields_stars_schema() {
  Schema schema;
  TableDef fields;
  fields.name = "fields";
  fields.col("field_id", ColumnType::kInt64, false);
  fields.col("name", ColumnType::kString);
  fields.primary_key = {"field_id"};
  fields.indexes.push_back(IndexDef{"ix_name", {"name"}, {}});
  EXPECT_TRUE(schema.add_table(fields).is_ok());

  TableDef stars;
  stars.name = "stars";
  stars.col("star_id", ColumnType::kInt64, false);
  stars.col("field_id", ColumnType::kInt64, false);
  stars.col("ra", ColumnType::kDouble, false);
  stars.col("dec", ColumnType::kDouble, false);
  stars.col("mag", ColumnType::kDouble);
  stars.primary_key = {"star_id"};
  stars.foreign_keys.push_back(ForeignKey{{"field_id"}, "fields"});
  stars.indexes.push_back(
      IndexDef{"ix_htm", {}, HtmIndexSpec{"ra", "dec", 12}});
  stars.indexes.push_back(IndexDef{"ix_field_mag", {"field_id", "mag"}, {}});
  stars.checks.push_back(CheckConstraint{"mag", 0.0, 30.0});
  EXPECT_TRUE(schema.add_table(stars).is_ok());
  return schema;
}

Row star_row(int64_t id, int64_t field, double ra, double dec, double mag) {
  return {Value::i64(id), Value::i64(field), Value::f64(ra), Value::f64(dec),
          Value::f64(mag)};
}

// Stars [first, first + count) on fields 1..3, positions and magnitudes
// drawn from `rng` (so two such runs interleave on both secondary indexes).
ColumnBatch star_batch(const Schema& schema, int64_t first, int64_t count,
                       Rng& rng) {
  ColumnBatch batch(schema.table(schema.table_id("stars").value()));
  for (int64_t id = first; id < first + count; ++id) {
    batch.push_i64(0, id);
    batch.push_i64(1, 1 + id % 3);
    batch.push_f64(2, rng.uniform_range(10.0, 12.0));
    batch.push_f64(3, rng.uniform_range(-1.0, 1.0));
    batch.push_f64(4, rng.uniform_range(14.0, 22.0));
  }
  return batch;
}

// One transaction mixes every insert form over two tables; the chunk its
// commit publishes serves the same rows, in the same order, as the live
// trees for a full-range read of the PK and of every secondary index.
TEST_F(SnapshotTest, MixedCallsChunkMatchesLiveReads) {
  const Schema schema = fields_stars_schema();
  Engine engine(schema);
  const uint32_t fields = engine.table_id("fields").value();
  const uint32_t stars = engine.table_id("stars").value();
  Rng rng(0xC0FFEE);
  OpCosts costs;

  const uint64_t txn = engine.begin_transaction();
  // Single-row inserts whose names do not arrive in key order.
  for (const auto& [id, name] :
       {std::pair<int64_t, const char*>{1, "c"}, {2, "a"}, {3, "b"}}) {
    ASSERT_TRUE(engine
                    .insert_row(txn, fields,
                                {Value::i64(id), Value::str(name)}, costs)
                    .is_ok());
  }
  // A column run.
  const BatchResult first_run =
      engine.insert_column_batch(txn, stars, star_batch(schema, 0, 40, rng));
  ASSERT_FALSE(first_run.error.has_value());
  // A row-path call whose middle row has no parent: its first row stays.
  const std::vector<Row> row_call = {star_row(1000, 2, 11.5, 0.5, 17.0),
                                     star_row(1001, 77, 11.0, 0.0, 16.0),
                                     star_row(1002, 1, 10.5, -0.5, 15.0)};
  const BatchResult row_result = engine.insert_batch(txn, stars, row_call);
  ASSERT_TRUE(row_result.error.has_value());
  EXPECT_EQ(row_result.error->row_index, 1u);
  EXPECT_EQ(row_result.rows_applied, 1);
  // Single-row inserts, keys below the column runs' (one a duplicate).
  EXPECT_EQ(engine.insert_row(txn, stars, star_row(30, 3, 11.2, 0.1, 19.5),
                              costs)
                .code(),
            ErrorCode::kConstraintPrimaryKey);
  ASSERT_TRUE(
      engine.insert_row(txn, stars, star_row(-5, 3, 11.2, 0.1, 19.5), costs)
          .is_ok());
  ASSERT_TRUE(
      engine.insert_row(txn, stars, star_row(-4, 1, 10.1, 0.9, 14.5), costs)
          .is_ok());
  // A second column run whose secondary keys interleave with the first's.
  const BatchResult second_run =
      engine.insert_column_batch(txn, stars, star_batch(schema, 40, 40, rng));
  ASSERT_FALSE(second_run.error.has_value());
  // A row-path call on the parent table.
  const std::vector<Row> more_fields = {{Value::i64(5), Value::str("aa")},
                                        {Value::i64(4), Value::str("d")}};
  ASSERT_FALSE(engine.insert_batch(txn, fields, more_fields).error.has_value());
  ASSERT_TRUE(engine.commit(txn).is_ok());

  const Snapshot snap = engine.pin_snapshot();
  const ReadView pinned = engine.view_at(snap);
  const ReadView live = engine.live_view();
  EXPECT_EQ(pinned.row_count(fields), 5);
  EXPECT_EQ(pinned.row_count(stars), 83);
  for (const uint32_t table : {fields, stars}) {
    EXPECT_EQ(pinned.row_count(table), live.row_count(table));
    const auto live_pk = live.pk_range(table, {}, {});
    const auto snap_pk = pinned.pk_range(table, {}, {});
    ASSERT_TRUE(live_pk.is_ok());
    ASSERT_TRUE(snap_pk.is_ok());
    EXPECT_EQ(static_cast<int64_t>(live_pk->size()), live.row_count(table));
    EXPECT_EQ(*live_pk, *snap_pk);
    for (const IndexDef& index : schema.table(table).indexes) {
      const auto live_ix = live.index_range(table, index.name, {}, {});
      const auto snap_ix = pinned.index_range(table, index.name, {}, {});
      ASSERT_TRUE(live_ix.is_ok()) << index.name;
      ASSERT_TRUE(snap_ix.is_ok()) << index.name;
      EXPECT_EQ(static_cast<int64_t>(live_ix->size()), live.row_count(table))
          << index.name;
      EXPECT_EQ(*live_ix, *snap_ix) << index.name;
    }
  }
}

// Sorted runs pushed through a KeyRunMerger with their row offsets give
// the run KeyRun::sorted builds over the union, whether the runs'
// keys interleave or arrive presorted.
TEST(KeyRunTest, MergerMatchesSortedUnion) {
  Rng rng(0x5EED5);
  for (const bool presorted : {false, true}) {
    for (size_t runs = 1; runs <= 9; ++runs) {
      std::vector<std::string> keys;
      std::vector<size_t> bounds{0};
      for (size_t r = 0; r < runs; ++r) {
        const int64_t size = rng.uniform_int(0, 40);
        for (int64_t k = 0; k < size; ++k) {
          index::KeyEncoder enc;
          enc.append_int64(presorted ? static_cast<int64_t>(keys.size())
                                     : rng.uniform_int(0, 1000000));
          enc.append_int64(static_cast<int64_t>(keys.size()));  // unique
          keys.push_back(enc.take());
        }
        bounds.push_back(keys.size());
      }
      KeyRunMerger merger;
      KeyRun::Entries all;
      for (size_t r = 0; r < runs; ++r) {
        KeyRun::Entries part;
        for (size_t i = bounds[r]; i < bounds[r + 1]; ++i) {
          part.emplace_back(keys[i], static_cast<uint32_t>(i - bounds[r]));
          all.emplace_back(keys[i], static_cast<uint32_t>(i));
        }
        merger.push(KeyRun::sorted(std::move(part)),
                    static_cast<uint32_t>(bounds[r]));
      }
      const KeyRun merged = merger.finish();
      const KeyRun want = KeyRun::sorted(std::move(all));
      ASSERT_EQ(merged.size(), want.size()) << runs;
      EXPECT_EQ(merged.key_bytes(), want.key_bytes());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(merged.key(i), want.key(i)) << runs << " entry " << i;
        EXPECT_EQ(merged.row(i), want.row(i)) << runs << " entry " << i;
      }
    }
  }
  // A first push with a non-zero offset still shifts its rows.
  KeyRunMerger shifted;
  shifted.push(KeyRun::sorted({{"b", 0}, {"a", 1}}), 5);
  const KeyRun run = shifted.finish();
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run.key(0), "a");
  EXPECT_EQ(run.row(0), 6u);
  EXPECT_EQ(run.row(1), 5u);
  EXPECT_EQ(shifted.finish().size(), 0u);
}

}  // namespace
}  // namespace sky::db
