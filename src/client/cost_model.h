// Cost model: prices the engine's mechanical work into time.
//
// Calibrated once against the paper's reported endpoints (see EXPERIMENTS.md):
//   * non-bulk loading ~13.3 s per paper-MB (Fig. 4: ~16000 s at 1200 MB),
//   * bulk loading at batch-size 40 is 7-9x faster (~330 s for 200 MB),
//   * a single-integer secondary index costs ~1.5% and a three-float
//     composite index ~8.5% (Fig. 8),
//   * the optimal batch size sits in the 40-50 range (Fig. 5).
//
// A "paper MB" is one megabyte of ASCII catalog data in the original study;
// we map it to kRowsPerPaperMb catalog rows. Benchmarks may run at a reduced
// row scale and report normalized (per-paper-MB) simulated time, so the
// figure axes match the paper at any scale.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "db/op_costs.h"
#include "db/schema.h"

namespace sky::client {

// Catalog rows represented by one paper-MB at scale 1.0 (the synthetic
// catalog emits ~62-byte lines, ~16k rows per MB of text; the cost model is
// calibrated against this density).
constexpr int64_t kRowsPerPaperMb = 16000;

struct CostModel {
  // ---- per-call (the price of a database round trip) ----
  Nanos client_call_overhead = 60 * kMicrosecond;  // JDBC driver marshalling
  Nanos wire_latency = 40 * kMicrosecond;          // each direction
  Nanos server_call_overhead = 700 * kMicrosecond; // parse/dispatch/ack

  // ---- per-call client-side marshalling ----
  // Batch marshalling grows with batch size (array binding): extra cost per
  // row proportional to the number of rows in its batch. This is what turns
  // "bigger batches are always better" into the paper's interior optimum
  // (minimizing call/b + q*b gives b* = sqrt(call/q) ~ 39).
  Nanos client_marshal_per_row_per_batchrow = 560;  // ns per row per batchrow

  // ---- per-row server-side work ----
  Nanos server_row_base = 45 * kMicrosecond;  // execute + buffer management
  Nanos per_check_eval = 100;
  Nanos per_index_node_visit = 300;
  Nanos per_fk_check = 1 * kMicrosecond;
  Nanos per_heap_kb = 2500;
  Nanos per_wal_kb = 1500;
  // Index-entry maintenance priced per indexed column by type: float keys
  // are wider and costlier to bind/compare (the Fig. 8 contrast: the
  // single-int index costs ~1.5% of a row, the 3-float composite ~8.5%).
  Nanos per_index_entry_base = 400;
  Nanos per_index_int_column = 1300;
  Nanos per_index_float_column = 27 * kMicrosecond;
  Nanos per_leaf_split = 8 * kMicrosecond;
  // Constraint-failure handling (error raise + statement abort).
  Nanos per_constraint_failure = 300 * kMicrosecond;

  // ---- spatial operators (db/spatial.h) ----
  // Zone cross-match and cone-search CPU, priced from the OpCosts spatial
  // funnel. per_zone_scan_row covers pulling one row through a per-zone
  // ra-sorted window (binary-search amortization plus the Δdec screen) —
  // sized against the measured zone matcher at ~10^6-row catalogs, where
  // the window walk runs tens of ns/row. per_xmatch_candidate covers one
  // exact angular-distance test (two unit-vector transforms + dot product +
  // acos, ~100-200 ns real), priced above the scan rate so candidate-heavy
  // (wide-window, polar) zones dominate, matching the real profile.
  Nanos per_zone_scan_row = 60;
  Nanos per_xmatch_candidate = 250;
  // Per matched pair: result formation (pair record + separation).
  Nanos per_xmatch_pair = 100;

  // ---- buffer cache / DBWR ----
  Nanos per_writer_scanned_frame = 250;   // DBWR examining one frame
  // ---- device service times (charged on the owning device's queue) ----
  Nanos per_page_write = 100 * kMicrosecond;
  Nanos per_page_read = 200 * kMicrosecond;
  Nanos log_flush_base = 8 * kMillisecond;
  Nanos per_log_kb = 6 * kMicrosecond;

  // ---- client memory model (array-set paging; Fig. 6) ----
  // Sized from the array-set's measured column-buffer footprint (about
  // 150 KiB at array size 1000 on the bench catalog), so arrays past ~1000
  // rows page on the client.
  int64_t client_array_memory_bytes = 160 * 1024;
  Nanos per_buffered_row = 500;                    // array append
  Nanos per_paged_row = 40 * kMicrosecond;         // append while thrashing

  // Price the CPU time a batch spends on the server (excluding device I/O,
  // which queues on devices, and excluding the per-call overhead).
  Nanos server_cpu_time(const db::OpCosts& costs) const;

  // Price one log-device flush of `bytes` redo (the fixed device write plus
  // the per-KB transfer). A group-commit joiner pays only the marginal
  // bytes; the leader pays the whole thing.
  Nanos log_flush_time(int64_t bytes) const;
  Nanos log_bytes_time(int64_t bytes) const;
};

// The paper-calibrated default.
CostModel paper_calibrated_costs();

}  // namespace sky::client
