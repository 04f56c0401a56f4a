// Multi-threaded tests for the WAL's commit-coalescing group-commit window:
// the max-group cutoff folds a full complement of committers into one
// device write, the window also closes once every committer that can join
// has queued, sync() closes a window instead of waiting it out, and the
// leader/piggyback accounting stays consistent under concurrent load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "storage/wal.h"

namespace sky::storage {
namespace {

TEST(WalGroupCommitTest, MaxGroupCutoffFoldsCommittersIntoOneFlush) {
  WalOptions options;
  options.commit_window = 10 * kSecond;  // cutoff, not expiry, must close it
  options.max_group_commits = 4;
  WriteAheadLog wal(options);
  // Pre-append all four transactions' records so the pending region is
  // multi-transaction no matter which committer wins the leader election.
  for (uint64_t txn = 1; txn <= 4; ++txn) {
    wal.append(WalRecordType::kInsert, txn, 1, "row-" + std::to_string(txn));
    wal.append(WalRecordType::kCommit, txn, 0, "");
  }

  std::atomic<int> led{0}, piggybacked{0};
  std::vector<std::thread> committers;
  for (int i = 0; i < 4; ++i) {
    committers.emplace_back([&] {
      const WalFlushResult result = wal.flush();
      if (result.led) {
        led.fetch_add(1);
        EXPECT_EQ(result.group_size, 4);
      }
      if (result.piggybacked) piggybacked.fetch_add(1);
    });
  }
  for (std::thread& committer : committers) committer.join();

  const WalStats stats = wal.stats();
  EXPECT_EQ(led.load(), 1);
  EXPECT_EQ(piggybacked.load(), 3);
  EXPECT_EQ(stats.flushes, 1);
  EXPECT_EQ(stats.group_piggybacks, 3);
  EXPECT_EQ(stats.commit_requests, 4);
  EXPECT_EQ(stats.group_size_hist[3], 1);  // one flush covering 4 commits
  EXPECT_EQ(wal.unflushed_bytes(), 0);
  EXPECT_EQ(wal.durable_lsn(), wal.appended_lsn());
}

// The window closes as soon as every committer that can join has queued:
// with two live transactions and a cap of 8, the second commit completes
// the group instead of the 10 s window expiring.
TEST(WalGroupCommitTest, GroupTargetClosesWindowBelowCap) {
  WalOptions options;
  options.commit_window = 10 * kSecond;  // the test hangs if waited out
  options.max_group_commits = 8;
  WriteAheadLog wal(options);
  for (uint64_t txn = 1; txn <= 2; ++txn) {
    wal.append(WalRecordType::kInsert, txn, 1, "row-" + std::to_string(txn));
    wal.append(WalRecordType::kCommit, txn, 0, "");
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> committers;
  for (int i = 0; i < 2; ++i) {
    committers.emplace_back([&] {
      (void)wal.flush(/*expect_group=*/true, /*group_target=*/2);
    });
  }
  for (std::thread& committer : committers) committer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  const WalStats stats = wal.stats();
  EXPECT_EQ(stats.flushes, 1);
  EXPECT_EQ(stats.group_piggybacks, 1);
  EXPECT_EQ(stats.group_size_hist[1], 1);  // one flush covering 2 commits
  EXPECT_EQ(wal.durable_lsn(), wal.appended_lsn());
}

TEST(WalGroupCommitTest, SyncClosesAnOpenWindow) {
  WalOptions options;
  options.commit_window = 10 * kSecond;  // the test hangs if sync waits it out
  options.max_group_commits = 8;
  WriteAheadLog wal(options);
  wal.append(WalRecordType::kInsert, 1, 1, "a");
  wal.append(WalRecordType::kInsert, 2, 1, "b");
  wal.append(WalRecordType::kCommit, 1, 0, "");

  std::thread leader([&] { wal.flush(); });
  // Let the committer queue up (it may or may not have opened the window
  // yet; sync() handles both sides of that race).
  while (wal.stats().commit_requests == 0) std::this_thread::yield();
  wal.sync();
  EXPECT_EQ(wal.durable_lsn(), wal.appended_lsn());
  leader.join();
  EXPECT_EQ(wal.unflushed_bytes(), 0);
}

TEST(WalGroupCommitTest, ConcurrentCommittersStayConsistent) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  WalOptions options;
  options.commit_window = 200 * kMicrosecond;
  options.max_group_commits = kThreads;
  options.flush_latency = 10 * kMicrosecond;
  WriteAheadLog wal(options);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t txn = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kCommitsPerThread; ++i) {
        wal.append(WalRecordType::kInsert, txn, 1, "payload");
        wal.append(WalRecordType::kCommit, txn, 0, "");
        const WalFlushResult result = wal.flush();
        // Strict mode: the covering write happened before the ack.
        EXPECT_GE(wal.durable_lsn(), 1u);
        EXPECT_FALSE(result.led && result.piggybacked);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  wal.sync();

  const WalStats stats = wal.stats();
  EXPECT_EQ(stats.records, kThreads * kCommitsPerThread * 2);
  EXPECT_EQ(stats.bytes_flushed, stats.bytes_appended);
  EXPECT_EQ(wal.durable_lsn(), wal.appended_lsn());
  EXPECT_EQ(wal.unflushed_bytes(), 0);
  // Every led commit flush landed in exactly one histogram bucket, and no
  // committer was double-counted as both leader and piggybacker.
  const int64_t led_flushes = std::accumulate(
      stats.group_size_hist.begin(), stats.group_size_hist.end(), int64_t{0});
  EXPECT_LE(led_flushes, stats.flushes);
  EXPECT_LE(led_flushes + stats.group_piggybacks, stats.commit_requests);
}

}  // namespace
}  // namespace sky::storage
