// ShardedRepository: M independent engines behind one repository facade.
//
// The paper's production deployment scales the loader across database
// instances; this layer reproduces that shape in-process. A
// core::ShardPolicy (folded into EnginePolicies like its siblings) slices
// the HTM trixel-id space into contiguous ranges, one db::Engine per slice,
// and everything above the engines speaks the same surfaces as before:
//
//   * make_session() returns a client::Session whose execute_batch splits
//     each batch into contiguous same-shard runs applied in the original
//     row order — the JDBC prefix contract (earlier rows stay applied, the
//     first failure's index is reported, the tail is discarded) holds
//     exactly as on one engine. Columnar batches split into sub-ranges of
//     the same ColumnBatch, so the batched columnar fast path is kept.
//   * read_view() returns a ShardedReadView implementing the ReadView
//     method set by scatter-gather: point lookups short-circuit to the
//     owning shard when the router can derive it, range reads merge
//     per-shard results by key order so the bytes match a single-shard
//     oracle.
//   * shard::cone_search probes only the shards whose trixel slices
//     intersect the cone cover; shard::xmatch collects positions shard by
//     shard and fans the zone matcher out across workers.
//
// Foreign keys: a child row and its parent may land on different shards
// (children route block-cyclically by PK when they carry no position), so
// shard engines run with EngineOptions::enforce_foreign_keys = false and
// FK checking is deferred to reconcile_foreign_keys() — a post-load pass
// that probes every child edge against all shards and reports orphans.
//
// Recovery: each shard retains / dumps its own WAL (dir/shard-NNN/wal.skywal)
// and replays shard-identically — the router is deterministic, so replayed
// rows land where they were, and extents match byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client/session.h"
#include "common/status.h"
#include "db/engine.h"
#include "db/recovery.h"
#include "db/spatial.h"
#include "shard/shard_router.h"

namespace sky::db {

class ShardedRepository;

// The ReadView method set, scatter-gathered over every shard.
//
// Byte-identity contract vs. a single-shard oracle: row_count, pk_lookup,
// pk_range, pk_encoded_range and scan_heap are exact (primary keys are
// unique per table, so merging per-shard runs by encoded PK key reproduces
// the oracle's order and content). index_range / index_encoded_range merge
// by the indexed-value key; rows with *equal* index values surface in
// shard-major order rather than global insertion order (the engine's
// non-unique index keys carry a per-shard row-id suffix that is not
// comparable across shards). scan_collect concatenates shards in shard
// order — a deterministic but shard-relative order, same caveat as any
// heap-order scan.
class ShardedReadView {
 public:
  ShardedReadView() = default;

  bool valid() const { return repo_ != nullptr && !views_.empty(); }
  int shard_count() const { return static_cast<int>(views_.size()); }
  const ReadView& shard_view(int shard) const {
    return views_[static_cast<size_t>(shard)];
  }
  const ShardedRepository& repository() const { return *repo_; }

  int64_t row_count(uint32_t table_id) const;
  Result<Row> pk_lookup(uint32_t table_id, const Row& pk_values) const;
  Result<std::vector<Row>> pk_range(uint32_t table_id, const Row& lo,
                                    const Row& hi) const;
  Result<std::vector<Row>> index_range(uint32_t table_id,
                                       std::string_view index_name,
                                       const Row& lo, const Row& hi) const;
  Result<std::vector<Row>> pk_encoded_range(uint32_t table_id,
                                            const std::string& lo,
                                            const std::string& hi) const;
  Result<std::vector<Row>> index_encoded_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const std::string& lo,
                                               const std::string& hi) const;
  std::vector<Row> scan_collect(uint32_t table_id,
                                const std::function<bool(const Row&)>& pred,
                                OpCosts* costs = nullptr) const;
  Status scan_heap(
      uint32_t table_id,
      const std::function<void(storage::SlotId, std::string_view)>& fn) const;

 private:
  friend class ShardedRepository;
  ShardedReadView(const ShardedRepository* repo, std::vector<ReadView> views)
      : repo_(repo), views_(std::move(views)) {}

  // Run one range read on every shard and merge the per-shard runs: by
  // primary key when `index_name` is nullopt, else by the named index's
  // value key.
  Result<std::vector<Row>> scatter_merge(
      uint32_t table_id, std::optional<std::string_view> index_name,
      const std::function<Result<std::vector<Row>>(const ReadView&)>& read)
      const;
  // Merge per-shard result runs (each already key-ascending) into one
  // key-ascending sequence; `key(row)` re-derives the comparison key.
  static std::vector<Row> merge_by_key(
      std::vector<std::vector<Row>> per_shard,
      const std::function<std::string(const Row&)>& key);

  const ShardedRepository* repo_ = nullptr;
  std::vector<ReadView> views_;  // one per shard, shard order
};

// client::Session over a sharded repository: one lazy DirectSession per
// shard, batches split into contiguous same-shard runs applied in original
// row order. commit() commits every shard with an open transaction in shard
// order; there is no cross-shard atomic commit (see DESIGN.md §12) — a
// commit failure on one shard leaves earlier shards committed, and the
// first error is reported.
class ShardedSession final : public client::Session {
 public:
  explicit ShardedSession(ShardedRepository& repo);

  Result<uint32_t> prepare_insert(std::string_view table_name) override;
  client::BatchOutcome execute_batch(uint32_t table,
                                     std::span<const Row> rows) override;
  client::BatchOutcome execute_column_batch(uint32_t table,
                                            const ColumnBatch& batch,
                                            size_t first,
                                            size_t count) override;
  Status execute_single(uint32_t table, const Row& row) override;
  Status commit() override;
  void client_compute(Nanos duration) override;
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override;
  Nanos now() const override;
  // Aggregate of every shard session's stats (summed field by field).
  const client::SessionStats& stats() const override;

  // Per-shard session stats (empty stats for shards never written).
  const client::SessionStats& shard_stats(int shard) const;

 private:
  client::Session& session_for(int shard);

  ShardedRepository& repo_;
  std::vector<std::unique_ptr<client::DirectSession>> sessions_;  // lazy
  Nanos start_real_ = 0;
  mutable client::SessionStats agg_;
  static const client::SessionStats kEmptyStats;
};

// Post-load cross-shard foreign-key reconciliation result.
struct FkReconcileReport {
  int64_t edges_checked = 0;   // (child table, FK) edges walked
  int64_t rows_checked = 0;    // child rows probed
  int64_t local_hits = 0;      // parent found on the child's own shard
  int64_t remote_hits = 0;     // parent found on another shard
  int64_t null_skipped = 0;    // NULL FK values (vacuously satisfied)
  int64_t orphans = 0;         // no parent anywhere
  std::vector<std::string> orphan_samples;  // first few, for diagnostics

  bool converged() const { return orphans == 0; }
};

class ShardedRepository {
 public:
  // Shard layout comes from options.policies.shard (normalized). With more
  // than one shard, each shard engine runs with enforce_foreign_keys off;
  // call reconcile_foreign_keys() after a load to audit the closure.
  ShardedRepository(Schema schema, EngineOptions options = {});

  int shard_count() const { return static_cast<int>(engines_.size()); }
  Engine& shard(int i) { return *engines_[static_cast<size_t>(i)]; }
  const Engine& shard(int i) const { return *engines_[static_cast<size_t>(i)]; }
  const ShardRouter& router() const { return router_; }
  const Schema& schema() const { return engines_.front()->schema(); }

  std::unique_ptr<client::Session> make_session() {
    return std::make_unique<ShardedSession>(*this);
  }

  // Scatter-gather read handle over every shard's live state.
  ShardedReadView read_view() const;

  // Telemetry: committed rows per shard and the skew ratio
  // max(shard rows) / mean(shard rows) — 1.0 is perfectly balanced.
  int64_t total_rows() const;
  std::vector<int64_t> shard_rows() const;
  double shard_skew() const;

  // Post-load FK pass: for every child row on every shard, probe the parent
  // PK on the child's own shard first, then the rest. Fails only on
  // engine-level errors; orphans are reported, not failed, so callers can
  // decide (a mid-recovery reconcile may legitimately find orphans).
  Result<FkReconcileReport> reconcile_foreign_keys() const;

  // Integrity audit of every shard (FK closure stays off on shard engines;
  // pair with reconcile_foreign_keys for the cross-shard closure).
  Status verify_integrity() const;

  // Per-shard WAL access (requires EngineOptions::retain_wal_records).
  std::vector<storage::WalRecord> shard_wal_records(int i) const {
    return shard(i).wal_records();
  }
  // Write dir/shard-NNN/wal.skywal for every shard (dirs created).
  Status dump_wal(const std::string& dir) const;

  // Replay per-shard WAL streams (records[i] -> shard i) into a fresh
  // repository; each shard replays independently through
  // db::recover_from_wal, and the deterministic router guarantees replayed
  // rows land on the shard that logged them. `stats` (optional) aggregates
  // across shards.
  static Result<std::unique_ptr<ShardedRepository>> recover_from_wal(
      const Schema& schema,
      const std::vector<std::vector<storage::WalRecord>>& records,
      EngineOptions options = {}, RecoveryStats* stats = nullptr);
  // Read dir/shard-NNN/wal.skywal (shard count from options.policies.shard)
  // and replay.
  static Result<std::unique_ptr<ShardedRepository>> recover_from_dir(
      const Schema& schema, const std::string& dir, EngineOptions options = {},
      RecoveryStats* stats = nullptr);

 private:
  ShardedRepository(Schema schema, EngineOptions options,
                    std::vector<std::unique_ptr<Engine>> engines);

  static EngineOptions shard_options(const EngineOptions& options,
                                     int shard_count);

  Schema schema_;  // the authoritative copy the router points into
  EngineOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

namespace shard {

// Cone search over a sharded view: the cone cover's trixel-id ranges are
// split at shard boundaries (ShardRouter::segments_for_range), so only
// shards whose slice intersects the cover are probed. With the index depth
// >= the policy depth (the default layout) the per-segment probes are exact
// and the concatenation is byte-identical to the single-shard oracle; a
// coarser index falls back to broadcasting each range and merging by
// trixel key. `shards_probed` (optional) reports how many shards were
// touched — the pruning the bench and tests assert on. A NaN, infinite or
// negative radius fails with kInvalidArgument.
Result<std::vector<Row>> cone_search(const ShardedReadView& view,
                                     const spatial::SpatialTableSpec& spec,
                                     double ra_deg, double dec_deg,
                                     double radius_deg,
                                     OpCosts* costs = nullptr,
                                     int* shards_probed = nullptr);

// Cross-match two tables over sharded views: positions are collected shard
// by shard (shard-major concatenation, so MatchPair indices are
// deterministic for any worker count) and the zone matcher fans out across
// options.fan_out workers exactly as the single-engine overload does.
Result<spatial::XmatchResult> xmatch(const ShardedReadView& view_a,
                                     const spatial::SpatialTableSpec& spec_a,
                                     const ShardedReadView& view_b,
                                     const spatial::SpatialTableSpec& spec_b,
                                     const spatial::XmatchOptions& options,
                                     std::vector<Row>* a_rows_out = nullptr,
                                     std::vector<Row>* b_rows_out = nullptr);

}  // namespace shard

}  // namespace sky::db
