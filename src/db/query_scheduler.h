// Two-lane query admission over snapshot reads (the CasJobs split).
//
// The survey repository's query mix is bimodal: short interactive lookups
// (cone searches, PK probes from the web front end) and long batch scans
// (full-table sweeps, cross-matches). The paper's production setting routes
// them through separate queues so batch work cannot bury interactive
// latency while multi-terabyte loads run. This module is that split for the
// embedded engine: a QueryScheduler with an interactive lane and a batch
// lane, each a FIFO SlotGate (lock_manager.h) sized by core::QueryPolicy,
// with the batch lane *yielding* to interactive arrivals — a batch query
// admits only when no interactive query is queued or in flight (when
// QueryPolicy::batch_yields_to_interactive is set).
//
// Admission returns a move-only RAII grant that carries a pinned Snapshot
// (db/snapshot.h), so an admitted query reads a consistent committed
// prefix latch-free; dropping the grant releases the lane slot,
// unpins, and records the query's latency into a lock-free log2 histogram
// (p50/p99 per lane in QueryStats). Lane queue wait is attributed to
// OpCosts::query_lane_wait_ns — deliberately not lock_wait_ns, because lane
// queueing is scheduling policy, not latch contention.
//
// Lock order: lane gates sit with the other admission gates, *before* the
// engine rwlock — an admitted query holds no engine lock while queued, and
// snapshot reads take no engine lock at all.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/units.h"
#include "core/query_policy.h"
#include "core/query_stats.h"
#include "db/engine.h"
#include "db/lock_manager.h"
#include "db/snapshot.h"

namespace sky::db {

enum class QueryLane { kInteractive, kBatch };

// Lock-free latency sketch: 64 power-of-two buckets (bucket i holds samples
// with bit_width(ns) == i). percentile() returns the upper bound of the
// bucket containing the requested rank — within 2x of the true value, which
// is plenty for the p50/p99 contrast the scheduler reports.
class LatencyHistogram {
 public:
  void record(Nanos latency_ns);
  // p in (0, 1]; returns 0 when no samples were recorded.
  Nanos percentile(double p) const;
  int64_t count() const { return total_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<int64_t>, 64> buckets_{};
  std::atomic<int64_t> total_{0};
};

// The stats schema is shared with the sim lanes (core/query_stats.h); db
// keeps its historical spellings as aliases.
using QueryLaneStats = core::QueryLaneStats;
using QueryStats = core::QueryStats;

class QueryScheduler;

// One admitted query: lane slot + pinned snapshot. Move-only RAII;
// destruction releases the slot, unpins, and records latency.
class Admission {
 public:
  Admission() = default;
  Admission(Admission&& other) noexcept;
  Admission& operator=(Admission&& other) noexcept;
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;
  ~Admission();

  bool valid() const { return scheduler_ != nullptr; }
  QueryLane lane() const { return lane_; }
  // The snapshot pinned at admission (valid iff valid()). Most callers
  // want view() instead.
  const Snapshot& snapshot() const { return snapshot_; }
  // The read view over the pinned snapshot. Empty ReadView on an invalid
  // admission.
  ReadView view() const;
  Nanos queue_wait() const { return queue_wait_; }

 private:
  friend class QueryScheduler;
  QueryScheduler* scheduler_ = nullptr;
  QueryLane lane_ = QueryLane::kInteractive;
  std::chrono::steady_clock::time_point start_{};
  Nanos queue_wait_ = 0;
  Snapshot snapshot_;
};

// Two SlotGate lanes over one engine. Thread-safe; one scheduler is
// shared by every query client of an engine. Must not outlive the engine.
class QueryScheduler {
 public:
  // Registers itself as the engine's query-stats source (Engine::stats());
  // the destructor detaches. One scheduler per engine at a time.
  explicit QueryScheduler(Engine& engine, core::QueryPolicy policy = {});
  ~QueryScheduler();

  // Block until the lane admits, then pin a snapshot.
  // Batch admissions yield: they wait until no interactive query is queued
  // or in flight before taking a batch slot. Queue wait (yield + gate) is
  // added to costs->query_lane_wait_ns when costs is non-null.
  Admission admit(QueryLane lane, OpCosts* costs = nullptr);

  const core::QueryPolicy& policy() const { return policy_; }
  QueryStats stats() const;

 private:
  friend class Admission;
  void release(Admission& admission);

  Engine& engine_;
  const core::QueryPolicy policy_;
  SlotGate interactive_gate_;
  SlotGate batch_gate_;

  // Batch-yield handshake: interactive admissions count themselves in
  // *before* taking their gate, so batch arrivals also yield to interactive
  // work that is still queued.
  std::mutex yield_mu_;
  std::condition_variable yield_cv_;
  int64_t interactive_in_flight_ = 0;

  std::atomic<int64_t> interactive_waiting_{0};
  std::atomic<int64_t> batch_waiting_{0};
  std::atomic<int64_t> interactive_completed_{0};
  std::atomic<int64_t> batch_completed_{0};
  std::atomic<int64_t> batch_yields_{0};
  LatencyHistogram interactive_latency_;
  LatencyHistogram batch_latency_;
};

}  // namespace sky::db
