// Unified engine statistics and the live-policy API (the control plane).
//
// EngineStats folds the engine's five telemetry surfaces — WalStats,
// ConcurrencyStats, QueryStats, SnapshotStats, per-table extent stats —
// into one snapshot behind a single Engine::stats() call, the only read
// path for them, with delta_since() to turn two snapshots into
// per-interval rates; PolicyPatch is the one spelling for a bounded set of
// *live* adjustments (commit window, gate slot counts, extent assignment)
// applied race-free by Engine::update_policies(). ControlPlane abstracts
// the pair so core::Controller (core/controller.h) drives the real engine
// and the simulated SimServer through identical code.
//
// Thread safety: stats() returns a copied snapshot assembled from each
// subsystem's own locked accessor; update_policies() serializes appliers on
// an internal mutex and touches only live-adjustable state (the WAL's
// commit policy under the log mutex, gate slot counts under each gate's
// mutex, an atomic extent-assignment flag). EngineOptions itself is never
// mutated after construction — options() remains the construction-time
// snapshot; live values are read from the owning subsystems.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/query_stats.h"
#include "db/engine.h"
#include "db/lock_manager.h"
#include "db/snapshot.h"
#include "storage/sharded_heap.h"
#include "storage/wal.h"

namespace sky::db {

// A bounded set of live policy adjustments. Unset fields keep their current
// value; every value is validated (and clamped by the controller) before it
// reaches a subsystem. The same spelling doubles as the "current live
// values" block of EngineStats (where every field is set).
struct PolicyPatch {
  // WAL commit-coalescing window / early-close group size (storage/wal.h).
  std::optional<Nanos> commit_window;
  std::optional<int64_t> max_group_commits;
  // Instance-wide transaction gate slot count.
  std::optional<int64_t> transaction_slots;
  // Per-table ITL gate slot count. Rejected (kFailedPrecondition) on an
  // engine built without ITL gates: creating gates live would race the
  // lock-free gate-pointer reads on the insert path.
  std::optional<int64_t> itl_slots_per_table;
  // How transactions pick heap extents (engine.h ExtentAssignment).
  std::optional<ExtentAssignment> extent_assignment;

  bool empty() const {
    return !commit_window.has_value() && !max_group_commits.has_value() &&
           !transaction_slots.has_value() &&
           !itl_slots_per_table.has_value() && !extent_assignment.has_value();
  }
  // Range checks both backends apply before touching anything: the first
  // out-of-range field as kInvalidArgument, else OK. Backend-specific
  // preconditions (an engine without ITL gates) stay with the backend.
  Status validate() const;
  // "commit_window=2ms itl_slots=6" style rendering for traces and reports.
  std::string describe() const;
};

// Per-extent occupancy of one table's heap.
struct TableExtentStats {
  uint32_t table_id = 0;
  std::vector<storage::ShardedHeap::ExtentStats> extents;
};

// The unified snapshot: every telemetry surface the engine owns, plus the
// live policy values in effect when it was taken. Copied by value; safe to
// hold across ticks.
struct EngineStats {
  storage::WalStats wal;
  ConcurrencyStats concurrency;
  core::QueryStats query;        // zero unless a QueryScheduler is attached
  SnapshotStats snapshots;
  std::vector<TableExtentStats> extents;
  int64_t total_rows = 0;
  int64_t total_heap_bytes = 0;
  // Live values at snapshot time — every optional set (itl_slots_per_table
  // is 0 on an engine running without ITL gates).
  PolicyPatch policies;

  // Monotone counters become per-interval deltas (this - prev); gauges
  // (in_use, queue depths, percentiles, pins, policies) keep this
  // snapshot's value. Per-extent stats subtract elementwise when the table
  // shapes match. The controller feeds on deltas so its decisions track
  // the current phase, not the whole run's history.
  EngineStats delta_since(const EngineStats& prev) const;

  // Appended-bytes imbalance across extents: max/mean of per-extent bytes
  // for the most skewed multi-extent table, 1.0 when balanced or when no
  // table has bytes. Computed on a delta to measure *recent* placement.
  double extent_skew() const;
};

// What Controller drives: a stats source plus a policy sink. Implemented by
// EngineControlPlane (below) for real engines and client::SimControlPlane
// for simulation — one controller, two execution modes.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  virtual EngineStats stats() const = 0;
  virtual Status apply(const PolicyPatch& patch) = 0;
};

class EngineControlPlane final : public ControlPlane {
 public:
  explicit EngineControlPlane(Engine& engine) : engine_(engine) {}
  EngineStats stats() const override { return engine_.stats(); }
  Status apply(const PolicyPatch& patch) override {
    return engine_.update_policies(patch);
  }

 private:
  Engine& engine_;
};

}  // namespace sky::db
