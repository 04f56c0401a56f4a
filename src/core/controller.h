// Closed-loop adaptive tuning (the control plane's brain).
//
// The paper's central lesson is that every tuning knob — commit frequency,
// concurrency, placement — has a workload-dependent sweet spot (Figs. 5-7
// each show a knee that moves with the workload), and production survey
// traffic is phase-changing: nightly bulk ingest alternating with bursty
// interactive query load (the CasJobs/SkyServer shape). A statically tuned
// preset is therefore wrong part of the time by construction. Controller
// closes the loop: each tick it reads one unified EngineStats snapshot
// through a ControlPlane, turns it into per-interval deltas, and publishes
// bounded, hysteresis-damped PolicyPatch adjustments:
//
//   * commit_window   <- observed commit arrival rate and concurrency: with
//     enough committers in flight to fill a group, steer toward the window
//     that coalesces ~target_group_commits commits per flush; with few open
//     transactions the window is pure leader latency, so steer to min.
//     Moves at most window_step per tick inside [min, max], held inside a
//     deadband.
//   * transaction / ITL slot counts <- observed gate wait share (grow) and
//     stall share (shrink — the Fig. 7 knee: past it, more concurrency only
//     adds escalation and stalls). A slot patch needs confirm_ticks
//     consecutive agreeing votes, so one noisy interval never moves slots.
//   * extent assignment <- appended-bytes skew across heap extents, with a
//     [skew_low, skew_high] hysteresis band so balanced workloads do not
//     flap between round-robin and least-loaded.
//
// The same Controller drives a real Engine (EngineControlPlane) and the
// simulated SimServer (client::SimControlPlane): tick() is pure feedback —
// it never sleeps — so a sim process can call it on virtual time while
// start()/stop() run it on a real thread against live engines.
//
// Every decision (and its reason) lands in a ControlTrace ring buffer,
// read through Controller::trace() (bench_keepup, `tuning_advisor --live`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "db/control_plane.h"

namespace sky::core {

struct ControllerPolicy {
  // Cadence of the feedback loop (start()'s thread; sim callers tick on
  // virtual time at whatever cadence they choose).
  Nanos tick_interval = 100 * kMillisecond;
  // Consecutive agreeing votes required before a slot-count patch is
  // published (oscillation damping).
  int confirm_ticks = 2;
  // Relative commit-window change below which the controller holds steady.
  double deadband = 0.15;

  // Commit-window bounds and per-tick movement limit.
  Nanos min_commit_window = 0;
  Nanos max_commit_window = 8 * kMillisecond;
  Nanos window_step = kMillisecond;
  // Commits the window should coalesce per flush at the observed rate.
  int64_t target_group_commits = 4;
  // Committers in flight (transaction-gate in_use) below which the window
  // drives to min instead: a window can only coalesce commits from sessions
  // that are actually committing concurrently, so with few open
  // transactions it is pure leader latency. This is the signal that
  // disambiguates "rate is low because load is light" (shrink) from "rate
  // is low because ungrouped flushes saturate the log device" (grow —
  // many committers, each stuck behind a serial flush).
  int64_t window_commit_concurrency = 3;

  // Slot-count bounds; each confirmed patch moves by slot_step.
  int64_t min_transaction_slots = 2;
  int64_t max_transaction_slots = 64;
  int64_t min_itl_slots = 2;
  int64_t max_itl_slots = 64;
  int64_t slot_step = 1;
  // Blocked share of gate acquires above which a lane votes "grow".
  double wait_share_high = 0.25;
  // Stall share of ITL acquires above which the ITL votes "shrink" (the
  // paper's past-the-knee signal).
  double stall_share_high = 0.02;

  // Extent-assignment hysteresis band on appended-bytes skew (max/mean).
  double skew_high = 1.5;
  double skew_low = 1.1;

  std::string describe() const;
};

// One controller decision: what was patched, why, and whether the plane
// accepted it.
struct ControlDecision {
  uint64_t tick = 0;
  Nanos at = 0;  // controller clock (virtual in sim, steady in real mode)
  std::string reason;
  db::PolicyPatch patch;
  bool applied = false;

  std::string render() const;
};

// Fixed-capacity ring of recent decisions + a total counter. Thread-safe:
// the controller thread records while report code snapshots.
class ControlTrace {
 public:
  explicit ControlTrace(size_t capacity = 256) : capacity_(capacity) {}

  void record(ControlDecision decision);
  std::vector<ControlDecision> snapshot() const;
  uint64_t total() const;

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::deque<ControlDecision> ring_;
  uint64_t total_ = 0;
};

class Controller {
 public:
  explicit Controller(db::ControlPlane& plane, ControllerPolicy policy = {});
  ~Controller();  // stops the background thread if running

  // One feedback step at time `now` (monotone; virtual or real). The first
  // call only establishes the delta baseline. Returns the patch applied
  // this tick — empty when the controller held steady. Serialized
  // internally; never sleeps.
  db::PolicyPatch tick(Nanos now);

  // Run tick() on a real thread every policy().tick_interval until stop().
  void start();
  void stop();

  const ControllerPolicy& policy() const { return policy_; }
  const ControlTrace& trace() const { return trace_; }
  uint64_t ticks() const { return tick_count_.load(std::memory_order_relaxed); }

 private:
  // Signed consecutive-vote accumulator: +n after n agreeing "grow" votes,
  // -n after n agreeing "shrink" votes; any disagreement resets toward the
  // new direction.
  static int accumulate_vote(int streak, int vote);

  db::ControlPlane& plane_;
  const ControllerPolicy policy_;
  ControlTrace trace_;

  std::mutex tick_mu_;  // serializes tick() (manual + thread callers)
  bool has_baseline_ = false;
  db::EngineStats baseline_;
  Nanos baseline_at_ = 0;
  int txn_slot_streak_ = 0;
  int itl_slot_streak_ = 0;
  std::atomic<uint64_t> tick_count_{0};

  std::mutex thread_mu_;  // guards thread_ / stop_ and the stop cv
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stop_requested_ = false;
};

}  // namespace sky::core
