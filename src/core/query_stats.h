// Shared query-lane statistics spelling for both execution modes.
//
// The real engine's QueryScheduler (db/query_scheduler.h) and the simulated
// SimServer lanes (client/sim_server.h) used to carry two structurally
// different QueryLaneStats structs with a conversion shim between them.
// This header is the single spelling both report, so tuning and benchmark
// code reads one schema regardless of execution mode — the same unification
// GateStats already provides for admission gates. Consumed by the unified
// db::EngineStats snapshot (db/control_plane.h).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "db/lock_manager.h"

namespace sky::core {

// One admission lane (interactive or batch).
struct QueryLaneStats {
  db::GateStats gate;       // slot accounting for the lane's gate/resource
  int64_t completed = 0;    // admissions fully released
  int64_t queue_depth = 0;  // admitters currently waiting (gate or yield)
  Nanos p50_latency = 0;    // admission-to-release, histogram upper bound
  Nanos p99_latency = 0;
};

struct QueryStats {
  QueryLaneStats interactive;
  QueryLaneStats batch;
  int64_t batch_yields = 0;  // batch admissions that waited for quiet
};

}  // namespace sky::core
