// Concurrency gates: the RDBMS limit on concurrent transactions.
//
// The paper's parallelism study (section 5.4 / Fig. 7) attributes the
// throughput collapse beyond 6-7 parallel loaders to "hitting the RDBMS
// limit on the number of concurrent transactions" — escalating lock waits
// and occasional long stalls. The engine models that limit as a gate on
// transaction slots (begin_transaction blocks on it) plus per-table
// interested-transaction-list (ITL) gates acquired at a transaction's first
// write to each table and held to commit/abort.
//
// One gate class, SlotGate, serves every admission point: the transaction
// gate, the per-table ITL gates (which alone share a WaitGraph for deadlock
// detection) and the QueryScheduler's two query lanes. It admits in FIFO
// ticket order, resizes live, and optionally injects the bounded stall.
//
// Gate ordering (see DESIGN.md "Real-mode admission control"): transaction
// gate -> per-table ITL gates (in first-write order, holding no latches) ->
// engine rwlock -> table latches. A session blocked on any gate holds no
// lock at all, so gate waits never wedge DDL or rollback.
//
// Every gate reports the same GateStats snapshot, which is also the shape
// the client layer derives from sim::Resource — one schema for txn-slot
// vs. ITL wait breakdowns in both execution modes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace sky::db {

// Timed latch acquisition: try the fast path first; only a contended
// acquisition pays for two clock reads. Returns nanoseconds spent blocked
// (0 on the uncontended path). Used by the engine to attribute parallel-load
// makespan to latch waits vs. useful work.
Nanos lock_exclusive_timed(std::shared_mutex& mu);
Nanos lock_shared_timed(std::shared_mutex& mu);

// Unified snapshot of one gate's history. The sim path reports the same
// shape (client::gate_stats_from converts sim::Resource accounting), so
// ConcurrencyStats reads one schema in both execution modes.
struct GateStats {
  uint64_t acquires = 0;
  uint64_t waits = 0;     // acquisitions that blocked
  Nanos total_wait = 0;   // real or virtual, per implementation
  Nanos max_wait = 0;
  int64_t in_use = 0;     // slots currently held (0 once quiesced)
  uint64_t stalls = 0;    // bounded-stall penalties injected
  Nanos stall_time = 0;

  GateStats& operator+=(const GateStats& other) {
    acquires += other.acquires;
    waits += other.waits;
    total_wait += other.total_wait;
    if (other.max_wait > max_wait) max_wait = other.max_wait;
    in_use += other.in_use;
    stalls += other.stalls;
    stall_time += other.stall_time;
    return *this;
  }
};

// What one acquire() paid — threaded into OpCosts so per-call telemetry
// matches the sim session's per-call accounting.
struct GateAcquire {
  Nanos wait_ns = 0;
  Nanos stall_ns = 0;
  int64_t queue_depth = 0;  // acquirers queued ahead when this one arrived
  bool contended = false;   // had to queue for a slot
  bool deadlock = false;    // admission refused: this wait would close a cycle
};

// Waits-for graph over admission gates, shared by every ITL gate of one
// engine. An edge owner -> gate means "owner is blocked waiting for a slot
// on gate"; holders(gate) is the set of owners currently occupying slots.
// A blocked acquisition closes a deadlock iff some current holder of the
// requested gate (transitively, through its own wait edge) waits on a gate
// the requester already holds slots on.
//
// Soundness: one mutex serializes add_wait, so the cycle check and the
// wait-edge registration are a single atomic step — two concurrent
// would-be-cyclic waits cannot both miss each other; the later one sees the
// earlier one's edge and is refused. The victim is always the requester
// that would close the cycle, which holds no gate mutex while being refused
// (the check runs before a FIFO ticket is taken), so refusal never wedges
// the gate's ticket protocol.
class WaitGraph {
 public:
  // Register that `owner` holds a slot on `gate` (uncontended admission).
  void add_hold(uint64_t owner, const void* gate);
  // Drop one hold of `owner` on `gate`.
  void remove_hold(uint64_t owner, const void* gate);
  // `owner` is about to block on `gate`. Returns true (and registers
  // nothing) if the wait would close a cycle; otherwise records the wait
  // edge and returns false.
  bool add_wait(uint64_t owner, const void* gate);
  // `owner`'s blocked wait on `gate` was admitted: wait edge -> hold.
  void grant(uint64_t owner, const void* gate);

  // Owners currently blocked (for tests / introspection).
  size_t waiting_count() const;

 private:
  bool reachable_locked(uint64_t from_owner, uint64_t target_owner) const;

  mutable std::mutex mu_;
  // gate -> owners holding at least one slot (multiset semantics via count).
  std::unordered_map<const void*, std::unordered_map<uint64_t, int>> holders_;
  // owner -> the single gate it is blocked on (an owner blocks on at most
  // one gate at a time: acquisitions are sequential within a transaction).
  std::unordered_map<uint64_t, const void*> waiting_;
};

// Snapshot of every admission gate an engine (or sim server) runs:
// the instance-wide transaction gate plus the per-table ITL gates summed.
// Carried by EngineStats::concurrency; client::SimServer::
// concurrency_stats() reports the same shape.
struct ConcurrencyStats {
  GateStats transaction_gate;
  GateStats itl;  // aggregated across all per-table gates
};

// Bounded-stall model (SimServer::draw_stall()'s real-mode twin): each
// *contended* admission draws bernoulli(probability) from a deterministic
// per-gate stream and, on a hit, sleeps `duration` before returning — the
// occasional long stall the paper observed when the ITL is saturated.
// Uncontended admissions never draw, so uncontended workloads never pay it.
struct GateStallModel {
  double probability = 0.0;
  Nanos duration = 0;
  uint64_t seed = 0;
};

// Fair (FIFO-ticket) counting gate. Fairness matters under saturation: an
// unfair gate starves one acquirer indefinitely, which shows up as a
// spurious makespan tail instead of the paper's uniform slowdown.
//
// acquire(owner) / release(owner) name the holder. The owner is consulted
// only when the gate was built with a WaitGraph (the ITL gates, which pass
// the transaction id): a blocked acquisition that would close a waits-for
// cycle is refused with GateAcquire::deadlock *before* it takes a FIFO
// ticket, so a refusal never wedges the ticket order. Gates without a graph
// (the transaction gate, the query lanes) ignore the owner; callers pass 0.
class SlotGate {
 public:
  explicit SlotGate(int64_t slots, GateStallModel stall = {},
                    WaitGraph* wait_graph = nullptr);
  GateAcquire acquire(uint64_t owner);
  void release(uint64_t owner);
  GateStats stats() const;

  // Live resize (control plane): growing admits queued acquirers now;
  // shrinking bites as holders release.
  void set_slots(int64_t slots);
  int64_t slots() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t slots_;
  uint64_t next_ticket_ = 0;  // handed to arriving acquirers
  uint64_t serving_ = 0;      // tickets admitted so far
  GateStats stats_;  // stats_.in_use is the slots held right now
  const GateStallModel stall_;
  Rng stall_rng_;
  WaitGraph* const wait_graph_;  // not owned; nullptr = detection off
};

}  // namespace sky::db
