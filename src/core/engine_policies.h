// EnginePolicies: the one aggregate holding every shared policy struct —
// commit cadence/durability (CommitPolicy), admission limits
// (ConcurrencyPolicy), query-lane scheduling (QueryPolicy), the spatial
// subsystem's knobs (SpatialPolicy), and the multi-engine scale-out layout
// (ShardPolicy).
//
// Both execution backends embed one EnginePolicies: db::EngineOptions (real
// threads) and client::ServerConfig (simulation). The policies used to be
// four loose members spread across those structs with duplicated field
// spellings; folding them here gives tuning code one object to hand around
// (`options.policies = config.policies`) and one spelling for every knob
// (`options.policies.concurrency.itl_slots_per_table = 7`,
// `config.policies.commit.commit_window = 2ms`).
//
// Header-only; deliberately no describe() here — CommitPolicy::describe()
// is defined in the core library, and db/ headers embed this aggregate
// without linking core.
#pragma once

#include "core/commit_policy.h"
#include "core/concurrency_policy.h"
#include "core/query_policy.h"
#include "core/shard_policy.h"
#include "core/spatial_policy.h"

namespace sky::core {

struct EnginePolicies {
  CommitPolicy commit;
  ConcurrencyPolicy concurrency;
  QueryPolicy query;
  SpatialPolicy spatial;
  ShardPolicy shard;
};

}  // namespace sky::core
