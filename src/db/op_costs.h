// Per-call cost accounting.
//
// Every engine call tallies the mechanical work it performed — index descents,
// pages dirtied, redo bytes; SimSession adds cache misses and device I/O by
// role. Real-time mode treats these as diagnostics; simulation mode prices
// them through the client CostModel to produce virtual server time. This is
// how the paper's figure-level effects (index maintenance cost, commit cost, cache-size
// effects, device contention) emerge from mechanism rather than curve fit.
#pragma once

#include <cstdint>

#include "storage/buffer_cache.h"
#include "storage/device.h"

namespace sky::db {

struct OpCosts {
  int64_t rows_applied = 0;
  int64_t index_updates = 0;       // entries inserted across all B+trees
  int64_t index_node_visits = 0;   // descent steps (CPU)
  int64_t index_leaf_splits = 0;
  // Indexed-column counts by type across inserted entries (float keys are
  // costlier to bind and compare — the paper's Fig. 8 contrast).
  int64_t index_int_columns = 0;
  int64_t index_float_columns = 0;
  int64_t index_string_columns = 0;
  int64_t heap_pages_opened = 0;
  int64_t heap_bytes = 0;
  int64_t fk_checks = 0;
  int64_t fk_node_visits = 0;
  int64_t check_evals = 0;         // type / null / range predicate evaluations
  int64_t constraint_failures = 0;
  int64_t wal_bytes = 0;
  // Real time this call spent blocked on engine latches (table latches and
  // the engine's DDL lock). Zero on uncontended runs; the parallel-load
  // report uses it to attribute makespan to contention vs. work.
  int64_t lock_wait_ns = 0;
  // Admission-gate breakdown (subsets of the wait story, same field names
  // the sim session reports): time blocked on the instance-wide
  // transaction-slot gate, time blocked on a per-table ITL gate, and
  // injected long-stall time (lock_manager.h GateStallModel).
  int64_t txn_slot_wait_ns = 0;
  int64_t itl_wait_ns = 0;
  int64_t stall_ns = 0;
  // Query-lane admission wait (db/query_scheduler.h): time a query spent
  // queued on its lane's gate (interactive or batch) plus, for batch
  // queries, time spent yielding to in-flight interactive work. Not part of
  // lock_wait_ns — lane queueing is scheduling policy, not latch contention.
  int64_t query_lane_wait_ns = 0;
  // Group-commit accounting (commit calls only): whether this commit led
  // the covering device write or rode another session's, and the
  // commit-coalescing window time it paid as leader.
  int64_t commit_flushes_led = 0;
  int64_t commit_piggybacks = 0;
  int64_t commit_leader_wait_ns = 0;
  // Spatial-operator accounting (db/spatial.h). zone_scan_rows counts rows
  // pulled through declination-zone windows (cone probes and per-zone ra
  // scans); xmatch_candidates counts pairs that reached the exact
  // angular-distance test; xmatch_pairs counts pairs that passed.
  int64_t zone_scan_rows = 0;
  int64_t xmatch_candidates = 0;
  int64_t xmatch_pairs = 0;
  storage::CacheEvents cache;  // sim server's delta for this call
  storage::IoTally io;         // same; log_bytes_flushed from the engine

  OpCosts& operator+=(const OpCosts& other) {
    rows_applied += other.rows_applied;
    index_updates += other.index_updates;
    index_node_visits += other.index_node_visits;
    index_leaf_splits += other.index_leaf_splits;
    index_int_columns += other.index_int_columns;
    index_float_columns += other.index_float_columns;
    index_string_columns += other.index_string_columns;
    heap_pages_opened += other.heap_pages_opened;
    heap_bytes += other.heap_bytes;
    fk_checks += other.fk_checks;
    fk_node_visits += other.fk_node_visits;
    check_evals += other.check_evals;
    constraint_failures += other.constraint_failures;
    wal_bytes += other.wal_bytes;
    lock_wait_ns += other.lock_wait_ns;
    txn_slot_wait_ns += other.txn_slot_wait_ns;
    itl_wait_ns += other.itl_wait_ns;
    stall_ns += other.stall_ns;
    query_lane_wait_ns += other.query_lane_wait_ns;
    commit_flushes_led += other.commit_flushes_led;
    commit_piggybacks += other.commit_piggybacks;
    commit_leader_wait_ns += other.commit_leader_wait_ns;
    zone_scan_rows += other.zone_scan_rows;
    xmatch_candidates += other.xmatch_candidates;
    xmatch_pairs += other.xmatch_pairs;
    cache += other.cache;
    io += other.io;
    return *this;
  }
};

}  // namespace sky::db
