// ShardPolicy: knobs for the multi-engine scale-out layer (shard/
// sharded_repository.h) — the same one-policy-two-backends pattern as its
// siblings in core::EnginePolicies: db::ShardedRepository partitions the
// repository across M independent engines from this struct, and tuning code
// hands the whole EnginePolicies aggregate around.
//
// The partitioning follows the JHU parallel-zone report ("Large-Scale Query
// and XMatch, Entering the Parallel Zone", PAPERS.md): the sky is split by
// HTM trixel range across independent database instances. Trixel ids at a
// fixed depth form one contiguous integer space ([8*4^d, 16*4^d), htm/htm.h),
// and each shard owns one contiguous slice of it, so "which shard holds this
// position" is one ancestor computation plus a boundary search, and a cone
// cover prunes to the shards whose slices it intersects.
//
// Header-only so db/ and client/ headers can embed it without a link
// dependency on the core library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sky::core {

struct ShardPolicy {
  // Number of independent engine instances (1 = the unsharded repository;
  // ShardedRepository degenerates to a pass-through).
  int shard_count = 1;
  // Trixel depth of the partition boundaries. Coarser than the per-table
  // index depths (routing compares trixel *ancestors*, so any index depth
  // >= this maps each index key to exactly one shard). Depth 6 trixels are
  // ~1.4 degrees — a few thousand atoms to lay out across shards.
  int htm_depth = 6;
  // Optional explicit partition boundaries: ascending trixel ids at
  // `htm_depth`, size shard_count - 1; shard s owns [boundaries[s-1],
  // boundaries[s]) with the first/last shard unbounded below/above. Empty =
  // equal slices of the id space. ShardRouter::plan_boundaries() derives
  // equal-frequency boundaries from a sampled position histogram — how the
  // JHU cluster laid its partitions out from the observed data distribution.
  std::vector<uint64_t> boundaries;

  // Clamp to runnable values (at least one shard, a representable depth,
  // boundaries only meaningful when they match shard_count).
  ShardPolicy normalized() const {
    ShardPolicy p = *this;
    if (p.shard_count < 1) p.shard_count = 1;
    if (p.htm_depth < 0) p.htm_depth = 0;
    if (p.htm_depth > 30) p.htm_depth = 30;  // htm::kMaxDepth
    if (!p.boundaries.empty() &&
        p.boundaries.size() != static_cast<size_t>(p.shard_count) - 1) {
      p.boundaries.clear();
    }
    return p;
  }

  // e.g. "shards=4, htm-depth=6".
  std::string describe() const {
    std::string out = "shards=" + std::to_string(shard_count);
    out += ", htm-depth=" + std::to_string(htm_depth);
    if (!boundaries.empty()) {
      out += ", boundaries=" + std::to_string(boundaries.size());
    }
    return out;
  }
};

}  // namespace sky::core
