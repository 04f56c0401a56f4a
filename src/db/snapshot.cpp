#include "db/snapshot.h"

#include <utility>

namespace sky::db {

// --------------------------------------------------------------- Snapshot

Snapshot::Snapshot(Snapshot&& other) noexcept
    : manager_(other.manager_),
      pin_id_(other.pin_id_),
      read_lsn_(other.read_lsn_),
      heads_(std::move(other.heads_)) {
  other.manager_ = nullptr;
  other.pin_id_ = 0;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    if (manager_ != nullptr) manager_->unpin(pin_id_);
    manager_ = other.manager_;
    pin_id_ = other.pin_id_;
    read_lsn_ = other.read_lsn_;
    heads_ = std::move(other.heads_);
    other.manager_ = nullptr;
    other.pin_id_ = 0;
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (manager_ != nullptr) manager_->unpin(pin_id_);
}

const SnapshotNode* Snapshot::visible_head(uint32_t table_id) const {
  return table_id < heads_.size() ? heads_[table_id].get() : nullptr;
}

// -------------------------------------------------------- SnapshotManager

SnapshotManager::SnapshotManager(size_t table_count) : heads_(table_count) {}

uint64_t SnapshotManager::publish(
    std::vector<std::pair<uint32_t, SnapshotChunk>> chunks) {
  const std::scoped_lock lock(mu_);
  const uint64_t lsn = published_lsn_.load(std::memory_order_relaxed) + 1;
  for (auto& [table_id, chunk] : chunks) {
    if (table_id >= heads_.size() || chunk.rows.empty()) continue;
    chunk.commit_lsn = lsn;
    chunks_published_.fetch_add(1, std::memory_order_relaxed);
    rows_published_.fetch_add(static_cast<int64_t>(chunk.rows.size()),
                              std::memory_order_relaxed);
    auto node = std::make_shared<SnapshotNode>();
    node->prev = std::move(heads_[table_id]);
    node->rows_cumulative =
        (node->prev ? node->prev->rows_cumulative : 0) +
        static_cast<int64_t>(chunk.rows.size());
    node->chunk = std::move(chunk);
    heads_[table_id] = std::move(node);
  }
  // The heads and the watermark change under the same mutex a pin holds
  // while it copies them, so a pin sees every chunk up to read_lsn and
  // none beyond it. The mutex also orders the node contents — and the
  // heap row bytes written before the commit — before any pinned read.
  published_lsn_.store(lsn, std::memory_order_release);
  return lsn;
}

Snapshot SnapshotManager::pin() {
  Snapshot snap;
  snap.manager_ = this;
  pins_taken_.fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  snap.read_lsn_ = published_lsn_.load(std::memory_order_relaxed);
  snap.heads_ = heads_;
  snap.pin_id_ = next_pin_id_++;
  pins_.emplace(snap.pin_id_, std::chrono::steady_clock::now());
  return snap;
}

void SnapshotManager::unpin(uint64_t pin_id) {
  const std::scoped_lock lock(mu_);
  pins_.erase(pin_id);
}

SnapshotStats SnapshotManager::stats() const {
  SnapshotStats stats;
  stats.published_lsn = published_lsn_.load(std::memory_order_acquire);
  stats.chunks_published = chunks_published_.load(std::memory_order_relaxed);
  stats.rows_published = rows_published_.load(std::memory_order_relaxed);
  stats.pins_taken = pins_taken_.load(std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  stats.active_pins = static_cast<int64_t>(pins_.size());
  if (!pins_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [id, taken] : pins_) {
      const Nanos age =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - taken)
              .count();
      if (age > stats.oldest_pin_age) stats.oldest_pin_age = age;
    }
  }
  return stats;
}

}  // namespace sky::db
