#include "db/snapshot.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <tuple>
#include <utility>

#include "common/log.h"
#include "common/strings.h"

namespace sky::db {

namespace {

// Row indices and key end offsets are 32-bit.
constexpr uint64_t kMaxRunSize = UINT32_MAX;

// The tier rule: a newer run absorbs its older neighbour while the
// neighbour holds at most twice its rows and the merged run still fits the
// 32-bit offsets.
bool absorbs(const SnapshotChunk& newer, const SnapshotChunk& older) {
  if (older.rows.size() > 2 * newer.rows.size() ||
      older.rows.size() + newer.rows.size() > kMaxRunSize ||
      older.pk.key_bytes() + newer.pk.key_bytes() > kMaxRunSize) {
    return false;
  }
  const size_t shared =
      std::min(older.secondaries.size(), newer.secondaries.size());
  for (size_t s = 0; s < shared; ++s) {
    if (older.secondaries[s].has_value() && newer.secondaries[s].has_value() &&
        older.secondaries[s]->key_bytes() + newer.secondaries[s]->key_bytes() >
            kMaxRunSize) {
      return false;
    }
  }
  return true;
}

// One chunk holding `older`'s rows then `newer`'s. Only row refs and key
// bytes are copied; row bytes are never read.
std::shared_ptr<const SnapshotChunk> merge_chunks(const SnapshotChunk& older,
                                                  const SnapshotChunk& newer) {
  auto merged = std::make_shared<SnapshotChunk>();
  merged->rows.reserve(older.rows.size() + newer.rows.size());
  merged->rows.insert(merged->rows.end(), older.rows.begin(), older.rows.end());
  merged->rows.insert(merged->rows.end(), newer.rows.begin(), newer.rows.end());
  const auto offset = static_cast<uint32_t>(older.rows.size());
  merged->pk = KeyRun::merge(older.pk, newer.pk, offset);
  // Fail closed: an index either input has no run for stays unavailable.
  merged->secondaries.resize(
      std::max(older.secondaries.size(), newer.secondaries.size()));
  for (size_t s = 0; s < merged->secondaries.size(); ++s) {
    if (s < older.secondaries.size() && s < newer.secondaries.size() &&
        older.secondaries[s].has_value() && newer.secondaries[s].has_value()) {
      merged->secondaries[s] =
          KeyRun::merge(*older.secondaries[s], *newer.secondaries[s], offset);
    }
  }
  return merged;
}

std::shared_ptr<const SnapshotNode> make_node(
    std::shared_ptr<const SnapshotNode> prev,
    std::shared_ptr<const SnapshotChunk> chunk, int64_t rows_cumulative) {
  auto node = std::make_shared<SnapshotNode>();
  node->prev = std::move(prev);
  node->chunk = std::move(chunk);
  node->rows_cumulative = rows_cumulative;
  return node;
}

}  // namespace

// ----------------------------------------------------------------- KeyRun

KeyRun KeyRun::sorted(Entries entries) {
  std::sort(entries.begin(), entries.end());
  size_t bytes = 0;
  for (const auto& entry : entries) bytes += entry.first.size();
  KeyRun run;
  run.reserve(entries.size(), bytes);
  for (const auto& [key, row] : entries) run.push_back(key, row);
  return run;
}

KeyRun KeyRun::merge(const KeyRun& older, const KeyRun& newer,
                     uint32_t row_offset) {
  KeyRun run;
  run.reserve(older.size() + newer.size(),
              older.key_bytes() + newer.key_bytes());
  size_t i = 0;
  size_t j = 0;
  // Keys loaded in order (sequential PKs) do not interleave; such runs
  // concatenate without a comparison per key.
  const bool interleaved = older.size() > 0 && newer.size() > 0 &&
                           newer.key(0) < older.key(older.size() - 1);
  while (interleaved && i < older.size() && j < newer.size()) {
    if (newer.key(j) < older.key(i)) {
      run.push_back(newer.key(j), newer.row(j) + row_offset);
      ++j;
    } else {
      run.push_back(older.key(i), older.row(i));
      ++i;
    }
  }
  run.append(older, i, 0);
  run.append(newer, j, row_offset);
  return run;
}

size_t KeyRun::lower_bound(std::string_view key) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (this->key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int64_t KeyRun::memory_bytes() const {
  return static_cast<int64_t>(keys_.size() +
                              sizeof(uint32_t) * (ends_.size() + rows_.size()));
}

void KeyRun::reserve(size_t entries, size_t key_bytes) {
  keys_.reserve(key_bytes);
  ends_.reserve(entries);
  rows_.reserve(entries);
}

void KeyRun::append(const KeyRun& from, size_t begin, uint32_t row_offset) {
  if (begin >= from.size()) return;
  const uint32_t from_offset = begin == 0 ? 0 : from.ends_[begin - 1];
  const auto base = static_cast<uint32_t>(keys_.size());
  keys_.append(from.keys_, from_offset, std::string::npos);
  const size_t at = ends_.size();
  const size_t count = from.size() - begin;
  ends_.resize(at + count);
  rows_.resize(at + count);
  for (size_t k = 0; k < count; ++k) {
    ends_[at + k] = base + (from.ends_[begin + k] - from_offset);
    rows_[at + k] = from.rows_[begin + k] + row_offset;
  }
}

void KeyRun::push_back(std::string_view key, uint32_t row) {
  keys_.append(key);
  ends_.push_back(static_cast<uint32_t>(keys_.size()));
  rows_.push_back(row);
}

void KeyRunMerger::push(KeyRun run, uint32_t row_offset) {
  levels_.push_back({std::move(run), row_offset, 1});
  while (levels_.size() >= 2 &&
         levels_[levels_.size() - 2].pushed == levels_.back().pushed) {
    merge_top();
  }
}

KeyRun KeyRunMerger::finish() {
  while (levels_.size() >= 2) merge_top();
  KeyRun run;
  if (!levels_.empty()) {
    const Level& bottom = levels_.front();
    run = bottom.row_offset == 0
              ? std::move(levels_.front().run)
              : KeyRun::merge(KeyRun(), bottom.run, bottom.row_offset);
  }
  levels_.clear();
  return run;
}

void KeyRunMerger::merge_top() {
  Level newer = std::move(levels_.back());
  levels_.pop_back();
  Level& older = levels_.back();
  older.run = KeyRun::merge(older.run, newer.run,
                            newer.row_offset - older.row_offset);
  older.pushed += newer.pushed;
}

int64_t SnapshotChunk::key_run_bytes() const {
  int64_t bytes = pk.memory_bytes();
  for (const auto& run : secondaries) {
    if (run.has_value()) bytes += run->memory_bytes();
  }
  return bytes;
}

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

std::vector<SnapshotChunk::RowRef> Snapshot::rows_in_heap_order(
    uint32_t table_id) const {
  using RowRef = SnapshotChunk::RowRef;
  // Each node's rows end at its rows_cumulative, so filling newest first
  // lays the refs out in commit order.
  std::vector<RowRef> refs(static_cast<size_t>(row_count(table_id)));
  for (const SnapshotNode* node = visible_head(table_id); node != nullptr;
       node = node->prev.get()) {
    std::copy(node->chunk->rows.begin(), node->chunk->rows.end(),
              refs.begin() + node->rows_cumulative -
                  static_cast<int64_t>(node->chunk->rows.size()));
  }
  // Commit order is a concatenation of runs already in heap order (a
  // chunk's rows were appended in slot order), so merging adjacent runs
  // pairwise costs O(n log runs), not a full sort. Slots are unique, so no
  // two refs compare equal and the order is the sort's.
  const auto heap_less = [](const RowRef& a, const RowRef& b) {
    return std::tie(a.slot.extent, a.slot.page, a.slot.slot) <
           std::tie(b.slot.extent, b.slot.page, b.slot.slot);
  };
  std::vector<size_t> bounds{0};
  for (size_t i = 1; i < refs.size(); ++i) {
    if (heap_less(refs[i], refs[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(refs.size());
  std::vector<RowRef> merged;
  while (bounds.size() > 2) {
    merged.resize(refs.size());
    const RowRef* from = refs.data();
    const size_t runs = bounds.size() - 1;
    std::vector<size_t> next{0};
    for (size_t r = 0; r < runs; r += 2) {
      const size_t lo = bounds[r];
      const size_t mid = bounds[r + 1];
      const size_t hi = r + 2 <= runs ? bounds[r + 2] : mid;
      std::merge(from + lo, from + mid, from + mid, from + hi,
                 merged.data() + lo, heap_less);
      next.push_back(hi);
    }
    refs.swap(merged);
    bounds = std::move(next);
  }
  return refs;
}

// -------------------------------------------------------- SnapshotManager

SnapshotManager::SnapshotManager(size_t table_count)
    : heads_(table_count), merger_([this] { run_merger(); }) {}

SnapshotManager::~SnapshotManager() {
  {
    const std::scoped_lock lock(mu_);
    stop_merger_ = true;
  }
  merge_cv_.notify_one();
  merger_.join();
}

uint64_t SnapshotManager::publish(
    std::vector<std::pair<uint32_t, SnapshotChunk>> chunks) {
  // Nodes are allocated before the mutex; only the linking runs under it.
  struct Link {
    uint32_t table_id;
    std::shared_ptr<SnapshotNode> node;
    int64_t key_bytes;
  };
  std::vector<Link> links;
  links.reserve(chunks.size());
  for (auto& [table_id, chunk] : chunks) {
    if (table_id >= heads_.size() || chunk.rows.empty()) continue;
    auto node = std::make_shared<SnapshotNode>();
    const int64_t key_bytes = chunk.key_run_bytes();
    node->chunk = std::make_shared<const SnapshotChunk>(std::move(chunk));
    links.push_back({table_id, std::move(node), key_bytes});
  }
  bool wake_merger = false;
  uint64_t lsn = 0;
  {
    const std::scoped_lock lock(mu_);
    lsn = published_lsn_ + 1;
    for (Link& link : links) {
      SnapshotNode& node = *link.node;
      const auto rows = static_cast<int64_t>(node.chunk->rows.size());
      chunks_published_.fetch_add(1, std::memory_order_relaxed);
      rows_published_.fetch_add(rows, std::memory_order_relaxed);
      node.prev = std::move(heads_[link.table_id]);
      node.rows_cumulative =
          (node.prev ? node.prev->rows_cumulative : 0) + rows;
      // The rest of the chain is already tiered (or a merge is pending),
      // so only a head that can absorb its neighbour needs the merger.
      if (node.prev != nullptr && absorbs(*node.chunk, *node.prev->chunk)) {
        wake_merger = true;
      }
      ++runs_;
      key_bytes_ += link.key_bytes;
      heads_[link.table_id] = std::move(link.node);
    }
    // The heads and the watermark change under the same mutex a pin holds
    // while it copies them, so a pin sees every chunk up to read_lsn and
    // none beyond it. The mutex also orders the node contents — and the
    // heap row bytes written before the commit — before any pinned read.
    published_lsn_ = lsn;
    if (wake_merger) merge_pending_ = true;
  }
  if (wake_merger) merge_cv_.notify_one();
  return lsn;
}

void SnapshotManager::run_merger() {
  // SCHED_BATCH keeps a normal CPU share but never preempts on wake-up:
  // woken by a commit, the merger waits for a free core or the end of the
  // loader's time slice instead of taking the loader's core at once. At
  // plain SCHED_OTHER the wake-ups cost a single-loader archive build
  // 15-30% of its set-up time on a 4-core host; at SCHED_IDLE the merger
  // starved whenever the host was busy. A refusal only loses this, so its
  // result is not checked.
  const sched_param batch{};
  pthread_setschedparam(pthread_self(), SCHED_BATCH, &batch);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    merge_cv_.wait(lock, [this] { return merge_pending_ || stop_merger_; });
    if (stop_merger_) return;
    merge_pending_ = false;
    lock.unlock();
    try {
      // heads_ never changes size, so its bounds are safe to read unlocked.
      for (size_t table_id = 0; table_id < heads_.size(); ++table_id) {
        merge_table(table_id);
      }
    } catch (const std::exception& e) {
      // A merge that fails (out of memory) leaves its chain as it was:
      // still correct, only longer. The next publication retries.
      SKY_ERROR("snapshot merge failed: %s", e.what());
    }
    lock.lock();
  }
}

void SnapshotManager::merge_table(size_t table_id) {
  std::shared_ptr<const SnapshotNode> captured;
  {
    const std::scoped_lock lock(mu_);
    captured = heads_[table_id];
  }
  // The captured chain, newest first. Its nodes are immutable, so the
  // merges below read them without the mutex.
  std::vector<std::shared_ptr<const SnapshotNode>> chain;
  for (auto node = captured; node != nullptr; node = node->prev) {
    chain.push_back(node);
  }

  // Replay the tier rule oldest to newest over a stack of runs.
  struct Tier {
    std::shared_ptr<const SnapshotNode> node;  // null once merged
    std::shared_ptr<const SnapshotChunk> chunk;
    int64_t rows_cumulative;
  };
  std::vector<Tier> tiers;
  int64_t merges = 0;
  int64_t key_bytes_before = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    key_bytes_before += (*it)->chunk->key_run_bytes();
    tiers.push_back({*it, (*it)->chunk, (*it)->rows_cumulative});
    while (tiers.size() >= 2 &&
           absorbs(*tiers.back().chunk, *tiers[tiers.size() - 2].chunk)) {
      Tier newer = std::move(tiers.back());
      tiers.pop_back();
      Tier& older = tiers.back();
      older.chunk = merge_chunks(*older.chunk, *newer.chunk);
      older.node = nullptr;
      older.rows_cumulative = newer.rows_cumulative;
      ++merges;
    }
  }
  if (merges == 0) return;

  // Rebuild the chain, reusing the oldest nodes no merge touched.
  std::shared_ptr<const SnapshotNode> merged;
  int64_t key_bytes_after = 0;
  for (Tier& tier : tiers) {
    key_bytes_after += tier.chunk->key_run_bytes();
    if (tier.node != nullptr && tier.node->prev == merged) {
      merged = std::move(tier.node);
    } else {
      merged = make_node(std::move(merged), std::move(tier.chunk),
                         tier.rows_cumulative);
    }
  }

  std::shared_ptr<const SnapshotNode> retired;  // freed after the unlock
  {
    const std::scoped_lock lock(mu_);
    // Nodes published since the capture sit above it: re-link them onto
    // the merged chain. Their chunks are shared, so this copies pointers.
    std::vector<const SnapshotNode*> newer;
    for (const SnapshotNode* node = heads_[table_id].get();
         node != captured.get(); node = node->prev.get()) {
      newer.push_back(node);
    }
    for (auto it = newer.rbegin(); it != newer.rend(); ++it) {
      merged = make_node(std::move(merged), (*it)->chunk,
                         (*it)->rows_cumulative);
    }
    retired = std::exchange(heads_[table_id], std::move(merged));
    runs_ += static_cast<int64_t>(tiers.size()) -
             static_cast<int64_t>(chain.size());
    key_bytes_ += key_bytes_after - key_bytes_before;
    merges_ += merges;
  }
}

Snapshot SnapshotManager::pin() {
  Snapshot snap;
  snap.manager_ = this;
  pins_taken_.fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  snap.read_lsn_ = published_lsn_;
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
  stats.chunks_published = chunks_published_.load(std::memory_order_relaxed);
  stats.rows_published = rows_published_.load(std::memory_order_relaxed);
  stats.pins_taken = pins_taken_.load(std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  stats.published_lsn = published_lsn_;
  stats.merges = merges_;
  stats.runs = runs_;
  stats.key_bytes = key_bytes_;
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
