// Write-ahead (redo) log model.
//
// Commit processing is one of the paper's tuning levers (section 4.5.2:
// "reduce frequency of transaction commits"): each commit forces a redo
// flush, so committing rarely amortizes that cost, at the price of larger
// redo/undo volumes. The log tracks appended bytes, flush boundaries, and
// (optionally, for tests) the full record stream for replay verification.
//
// Thread safety: all methods are safe to call concurrently. append() runs
// under a short internal mutex. flush() has group-commit semantics: one
// caller becomes the flush leader and writes out everything appended so far;
// callers arriving while a flush is in flight wait for it and, if it already
// covers their records, return without issuing a second device write (the
// WalStats::group_piggybacks counter).
//
// Commit-coalescing window (WalOptions::commit_window): before issuing the
// device write, the leader holds the write open for up to commit_window —
// closing early once max_group_commits committers have queued — so commits
// arriving close together fold into one flush instead of one flush each.
// The wait happens on a condition variable with the log mutex released, so
// loaders keep appending (and queueing their own commits) while the window
// is open. A leader whose pending redo all belongs to a single transaction
// skips the window entirely — there is nobody to coalesce with, so a lone
// loader never pays the wait — unless the caller passes expect_group=true
// (the engine does when other transactions are live), which keeps the
// window open for commits whose appends have not landed yet. Commit acks
// remain strictly ordered after the covering flush.
//
// Durability (WalOptions::durability):
//   * kStrict (default) — flush() returns only once a device write covers
//     the caller's records. What the engine acks is durable.
//   * kRelaxed (opt-in) — flush() acks immediately at append; redo reaches
//     the device only when sync() is called (a checkpoint). durable_lsn()
//     is the honest watermark: records with sequence <= durable_lsn()
//     survived, records above it may be lost in a crash.
//
// With a modeled flush latency the leader sleeps *outside* the append mutex,
// so concurrent appenders keep running while redo is "on its way to disk" —
// this is what lets N parallel loaders pay ~1 log-device write per commit
// burst instead of N.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace sky::storage {

enum class WalRecordType : uint8_t {
  // One encoded row, as older logs hold it: recovery reads it, the engine
  // writes kInsertBatch.
  kInsert = 1,
  kRollbackInsert = 2,
  kCommit = 3,
  // One redo record covering one insert run (db::Engine): the payload
  // (encode_insert_batch_payload below) holds every row, all appended to
  // the same heap extent in payload order. Recovery replays the record as
  // one insert call into that extent, so a recovered repository is
  // extent-identical to the original.
  kInsertBatch = 4,
};

// The kInsertBatch payload: one [u32 big-endian length][row bytes] per row.
std::string encode_insert_batch_payload(std::span<const std::string_view> rows);
// Visits each row in order; stops at the first error `visit` returns, or
// with kInternal "truncated batch record header|row" at a cut entry.
Status for_each_insert_batch_row(
    std::string_view payload,
    const std::function<Status(std::string_view)>& visit);

struct WalRecord {
  WalRecordType type;
  uint64_t txn_id;
  uint32_t table_id;
  std::string payload;  // serialized row for inserts; empty otherwise
  // Heap extent the row landed in (sharded heaps, storage/sharded_heap.h).
  // Redo must replay each insert into the *same* extent so a recovered
  // repository is extent-identical to a clean reload of the log.
  uint32_t extent = 0;
};

// How a commit acknowledgement relates to the covering device write.
enum class DurabilityMode {
  kStrict,   // ack only after the flush that covers the commit record
  kRelaxed,  // ack at append; durability advances via sync() (watermark)
};

struct WalOptions {
  // Keep every record in memory so tests can replay and verify; benches
  // leave it off.
  bool retain_records = false;
  // Modeled redo-device write time paid by each flush leader (real sleep;
  // 0 in simulation mode, where the client cost model prices log I/O).
  Nanos flush_latency = 0;
  // Commit-coalescing window: how long a flush leader holds the device
  // write open for other committers to fold in. 0 = flush immediately
  // (the pre-window behaviour).
  Nanos commit_window = 0;
  // Close the window early once this many committers (leader included)
  // are queued on the flush.
  int64_t max_group_commits = 8;
  DurabilityMode durability = DurabilityMode::kStrict;
};

struct WalStats {
  // Commits covered per flush: bucket i counts flushes that covered i+1
  // queued committers (last bucket = that many or more).
  static constexpr size_t kGroupSizeBuckets = 8;

  int64_t records = 0;
  int64_t bytes_appended = 0;
  int64_t flushes = 0;
  int64_t bytes_flushed = 0;
  int64_t max_unflushed_bytes = 0;  // redo backlog high-water mark
  // Flush calls satisfied by another session's in-flight flush (group
  // commit): the caller's redo was already covered, no extra device write.
  int64_t group_piggybacks = 0;
  // flush() calls that found redo pending (strict mode) — the denominator
  // of flushes-per-commit.
  int64_t commit_requests = 0;
  // Commits acked at append under DurabilityMode::kRelaxed.
  int64_t relaxed_acks = 0;
  // Total coalescing-window time flush leaders spent holding the write open.
  Nanos leader_wait_ns = 0;
  std::array<int64_t, kGroupSizeBuckets> group_size_hist{};
};

// What one flush() call did (commit-path telemetry).
struct WalFlushResult {
  int64_t bytes_flushed = 0;  // written by *this* call (0 unless it led)
  bool led = false;           // this caller issued the device write
  bool piggybacked = false;   // covered by another caller's flush
  int64_t group_size = 0;     // committers the flush covered, when led
  Nanos leader_wait = 0;      // coalescing-window wait paid, when led
};

class WriteAheadLog {
 public:
  explicit WriteAheadLog(WalOptions options = {}) : options_(options) {}

  // Copy under the log mutex: commit policy is live-adjustable, so a
  // reference into options_ would race set_commit_policy.
  WalOptions wal_options() const {
    const std::scoped_lock lock(mu_);
    return options_;
  }

  // Live commit-policy update (control plane). Takes effect on the next
  // flush: a leader already holding the window open keeps its original
  // deadline (bounded staleness of one window), but max_group_commits is
  // re-read at every wakeup and applies immediately. Unset fields keep
  // their current value.
  void set_commit_policy(std::optional<Nanos> commit_window,
                         std::optional<int64_t> max_group_commits);

  void append(WalRecordType type, uint64_t txn_id, uint32_t table_id,
              std::string payload, uint32_t extent = 0);

  // Commit path: make everything appended so far durable (strict mode) or
  // ack immediately (relaxed mode). Group commit: the caller may lead a
  // flush — holding the coalescing window open first — or ride one already
  // in flight. expect_group tells a leader whose pending redo is
  // single-transaction to hold the window anyway because concurrent
  // committers exist whose appends have not landed yet (the engine passes
  // its live-transaction count); a truly lone caller leaves it false and
  // never waits. group_target, when positive, is how many committers can
  // possibly join (the engine's live-transaction count, the caller
  // included): the window closes once that many are queued, or at
  // max_group_commits if that is smaller.
  WalFlushResult flush(bool expect_group = false, int64_t group_target = 0);

  // Force pending redo to the device regardless of durability mode (the
  // relaxed-mode checkpoint). Never waits a coalescing window. Returns the
  // bytes written by this call.
  int64_t sync();

  int64_t unflushed_bytes() const;
  // LSNs are record sequence numbers: the Nth appended record has sequence
  // N (1-based), matching its position in records(). appended_lsn() is the
  // last sequence handed out; durable_lsn() is the watermark — every record
  // with sequence <= durable_lsn() has been covered by a device write,
  // records above it would be lost in a crash.
  uint64_t appended_lsn() const;
  uint64_t durable_lsn() const;
  // Consistent snapshots taken under the log mutex (never references into
  // concurrently mutated state).
  WalStats stats() const;
  std::vector<WalRecord> records() const;

 private:
  // Pre: lock held, flush_in_progress_ set by the caller. Snapshot the
  // pending region and write it out (modeled latency paid with the lock
  // dropped); advances durable_seq_. Returns bytes written.
  int64_t write_out_locked(std::unique_lock<std::mutex>& lock);

  WalOptions options_;  // commit_window / max_group_commits mutate under mu_
  mutable std::mutex mu_;
  std::condition_variable flush_cv_;   // flush completion (followers wait)
  std::condition_variable window_cv_;  // wakes a leader holding the window
  bool flush_in_progress_ = false;
  bool leader_in_window_ = false;
  int64_t window_target_ = 0;  // queued committers that close the window
  bool window_close_requested_ = false;  // sync() asked the leader to write
  int64_t committers_waiting_ = 0;  // flush() callers not yet covered
  uint64_t append_seq_ = 0;   // records appended so far
  uint64_t durable_seq_ = 0;  // highest append_seq_ covered by a flush
  int64_t unflushed_bytes_ = 0;
  // Single-transaction fast path for the window: track whether the pending
  // (unflushed) region holds records from more than one transaction.
  bool pending_region_empty_ = true;
  bool pending_multi_txn_ = false;
  uint64_t pending_txn_ = 0;
  WalStats stats_;
  std::vector<WalRecord> records_;
};

}  // namespace sky::storage
