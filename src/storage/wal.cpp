#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace sky::storage {

namespace {
// Fixed per-record header: type + txn id + table id + extent + length.
constexpr int64_t kRecordHeaderBytes = 1 + 8 + 4 + 4 + 4;

Nanos steady_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::string encode_insert_batch_payload(
    std::span<const std::string_view> rows) {
  size_t bytes = 4 * rows.size();
  for (const std::string_view row : rows) bytes += row.size();
  std::string payload;
  payload.reserve(bytes);
  for (const std::string_view row : rows) {
    const auto len = static_cast<uint32_t>(row.size());
    for (int shift = 24; shift >= 0; shift -= 8) {
      payload.push_back(static_cast<char>(len >> shift));
    }
    payload.append(row);
  }
  return payload;
}

Status for_each_insert_batch_row(
    std::string_view payload,
    const std::function<Status(std::string_view)>& visit) {
  while (!payload.empty()) {
    if (payload.size() < 4) {
      return Status(ErrorCode::kInternal,
                    "WAL replay: truncated batch record header");
    }
    uint32_t len = 0;
    for (size_t i = 0; i < 4; ++i) {
      len = (len << 8) | static_cast<uint8_t>(payload[i]);
    }
    payload.remove_prefix(4);
    if (payload.size() < len) {
      return Status(ErrorCode::kInternal,
                    "WAL replay: truncated batch record row");
    }
    SKY_RETURN_IF_ERROR(visit(payload.substr(0, len)));
    payload.remove_prefix(len);
  }
  return ok_status();
}

void WriteAheadLog::set_commit_policy(
    std::optional<Nanos> commit_window,
    std::optional<int64_t> max_group_commits) {
  {
    const std::scoped_lock lock(mu_);
    if (commit_window.has_value()) {
      options_.commit_window = std::max<Nanos>(*commit_window, 0);
    }
    if (max_group_commits.has_value()) {
      options_.max_group_commits = std::max<int64_t>(*max_group_commits, 1);
    }
  }
  // A leader holding the window open re-reads max_group_commits on wakeup;
  // poke it so a lowered cap closes the window without waiting it out.
  window_cv_.notify_all();
}

void WriteAheadLog::append(WalRecordType type, uint64_t txn_id,
                           uint32_t table_id, std::string payload,
                           uint32_t extent) {
  const std::scoped_lock lock(mu_);
  const int64_t record_bytes =
      kRecordHeaderBytes + static_cast<int64_t>(payload.size());
  ++append_seq_;
  ++stats_.records;
  stats_.bytes_appended += record_bytes;
  unflushed_bytes_ += record_bytes;
  stats_.max_unflushed_bytes =
      std::max(stats_.max_unflushed_bytes, unflushed_bytes_);
  // Coalescing-window fast path: a window is only worth holding open when
  // the pending region already mixes transactions — a lone loader's leader
  // has nobody to wait for.
  if (pending_region_empty_) {
    pending_region_empty_ = false;
    pending_txn_ = txn_id;
  } else if (txn_id != pending_txn_) {
    pending_multi_txn_ = true;
  }
  if (options_.retain_records) {
    records_.push_back(
        WalRecord{type, txn_id, table_id, std::move(payload), extent});
  }
}

int64_t WriteAheadLog::write_out_locked(std::unique_lock<std::mutex>& lock) {
  const uint64_t target = append_seq_;
  const int64_t flushed = unflushed_bytes_;
  unflushed_bytes_ = 0;
  // Appends arriving during the device write start a fresh pending region.
  pending_region_empty_ = true;
  pending_multi_txn_ = false;
  if (flushed > 0) {
    ++stats_.flushes;
    stats_.bytes_flushed += flushed;
  }
  if (options_.flush_latency > 0) {
    // The modeled device write happens outside the append mutex so other
    // sessions keep appending (and queueing behind this flush) meanwhile.
    lock.unlock();
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.flush_latency));
    lock.lock();
  }
  durable_seq_ = std::max(durable_seq_, target);
  return flushed;
}

WalFlushResult WriteAheadLog::flush(bool expect_group, int64_t group_target) {
  WalFlushResult result;
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.durability == DurabilityMode::kRelaxed) {
    // Ack at append: the commit record is in the log buffer; durability
    // advances when a sync() checkpoint covers it (see durable_lsn()).
    ++stats_.relaxed_acks;
    return result;
  }
  // Everything appended before this call must be durable when we return.
  const uint64_t want = append_seq_;
  if (durable_seq_ >= want) return result;  // nothing pending
  ++stats_.commit_requests;
  ++committers_waiting_;
  // A newly queued committer may complete a leader's group.
  if (leader_in_window_ && committers_waiting_ >= window_target_) {
    window_cv_.notify_all();
  }
  bool waited = false;
  while (true) {
    if (durable_seq_ >= want) {
      // Covered — a concurrent leader's flush included our records
      // (group commit).
      --committers_waiting_;
      if (waited) {
        ++stats_.group_piggybacks;
        result.piggybacked = true;
      }
      return result;
    }
    if (!flush_in_progress_) break;
    waited = true;
    flush_cv_.wait(lock);
  }
  // Become the flush leader for everything appended so far (possibly more
  // than `want` — later appends ride along for free).
  flush_in_progress_ = true;
  // Re-read on every wakeup: set_commit_policy may lower the cap live.
  const auto target = [&] {
    return group_target > 0
               ? std::min(group_target, options_.max_group_commits)
               : options_.max_group_commits;
  };
  if (options_.commit_window > 0 && (pending_multi_txn_ || expect_group) &&
      committers_waiting_ < target()) {
    // Hold the device write open so commits closing in behind us fold into
    // this flush. The wait is on a condition variable, so the log mutex is
    // free and loaders keep appending meanwhile.
    leader_in_window_ = true;
    const Nanos wait_start = steady_now();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(options_.commit_window);
    while (true) {
      window_target_ = target();
      if (committers_waiting_ >= window_target_ || window_close_requested_) {
        break;
      }
      if (window_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    leader_in_window_ = false;
    window_close_requested_ = false;
    result.leader_wait = steady_now() - wait_start;
    stats_.leader_wait_ns += result.leader_wait;
  }
  // Commits covered by this flush: everyone queued right now, us included.
  // (A committer whose records are appended but who calls flush() after
  // this snapshot still piggybacks; the histogram counts the queue at
  // write-out time.)
  result.group_size = committers_waiting_;
  const size_t bucket = static_cast<size_t>(
      std::min<int64_t>(std::max<int64_t>(result.group_size, 1),
                        static_cast<int64_t>(WalStats::kGroupSizeBuckets)) -
      1);
  ++stats_.group_size_hist[bucket];
  result.led = true;
  result.bytes_flushed = write_out_locked(lock);
  --committers_waiting_;
  flush_in_progress_ = false;
  lock.unlock();
  flush_cv_.notify_all();
  return result;
}

int64_t WriteAheadLog::sync() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t want = append_seq_;
  while (durable_seq_ < want && flush_in_progress_) {
    // Close an open coalescing window: a checkpoint must not wait for it.
    if (leader_in_window_) {
      window_close_requested_ = true;
      window_cv_.notify_all();
    }
    flush_cv_.wait(lock);
  }
  if (durable_seq_ >= want) return 0;
  flush_in_progress_ = true;
  const int64_t flushed = write_out_locked(lock);
  flush_in_progress_ = false;
  lock.unlock();
  flush_cv_.notify_all();
  return flushed;
}

int64_t WriteAheadLog::unflushed_bytes() const {
  const std::scoped_lock lock(mu_);
  return unflushed_bytes_;
}

uint64_t WriteAheadLog::appended_lsn() const {
  const std::scoped_lock lock(mu_);
  return append_seq_;
}

uint64_t WriteAheadLog::durable_lsn() const {
  const std::scoped_lock lock(mu_);
  return durable_seq_;
}

WalStats WriteAheadLog::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

std::vector<WalRecord> WriteAheadLog::records() const {
  const std::scoped_lock lock(mu_);
  return records_;
}

}  // namespace sky::storage
