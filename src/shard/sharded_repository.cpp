#include "shard/sharded_repository.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "db/table.h"
#include "index/key_codec.h"
#include "storage/wal_file.h"

namespace sky::db {

namespace {

std::string shard_wal_path(const std::string& dir, int shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%03d", shard);
  return (std::filesystem::path(dir) / name / "wal.skywal").string();
}

}  // namespace

EngineOptions ShardedRepository::shard_options(const EngineOptions& options,
                                               int shard_count) {
  EngineOptions per_shard = options;
  // Cross-shard children defer FK checking to reconcile_foreign_keys();
  // a single-shard layout keeps the engine's inline checks.
  if (shard_count > 1) per_shard.enforce_foreign_keys = false;
  return per_shard;
}

ShardedRepository::ShardedRepository(Schema schema, EngineOptions options)
    : schema_(std::move(schema)),
      options_(options),
      router_(schema_, options.policies.shard.normalized()) {
  options_.policies.shard = router_.policy();
  const int shards = router_.shard_count();
  const EngineOptions per_shard = shard_options(options_, shards);
  engines_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>(schema_, per_shard));
  }
}

ShardedRepository::ShardedRepository(Schema schema, EngineOptions options,
                                     std::vector<std::unique_ptr<Engine>> engines)
    : schema_(std::move(schema)),
      options_(options),
      router_(schema_, options.policies.shard.normalized()),
      engines_(std::move(engines)) {
  options_.policies.shard = router_.policy();
}

ShardedReadView ShardedRepository::read_view() const {
  std::vector<ReadView> views;
  views.reserve(engines_.size());
  for (const auto& engine : engines_) views.push_back(engine->live_view());
  return ShardedReadView(this, std::move(views));
}

int64_t ShardedRepository::total_rows() const {
  int64_t total = 0;
  for (const auto& engine : engines_) total += engine->total_rows();
  return total;
}

std::vector<int64_t> ShardedRepository::shard_rows() const {
  std::vector<int64_t> rows;
  rows.reserve(engines_.size());
  for (const auto& engine : engines_) rows.push_back(engine->total_rows());
  return rows;
}

double ShardedRepository::shard_skew() const {
  const std::vector<int64_t> rows = shard_rows();
  int64_t total = 0;
  int64_t max_rows = 0;
  for (const int64_t r : rows) {
    total += r;
    max_rows = std::max(max_rows, r);
  }
  if (total <= 0) return 1.0;  // empty repository is vacuously balanced
  const double mean =
      static_cast<double>(total) / static_cast<double>(rows.size());
  return static_cast<double>(max_rows) / mean;
}

Result<FkReconcileReport> ShardedRepository::reconcile_foreign_keys() const {
  constexpr size_t kOrphanSamples = 8;
  FkReconcileReport report;
  const ShardedReadView view = read_view();
  const auto& tables = schema_.tables();
  for (uint32_t child_id = 0; child_id < tables.size(); ++child_id) {
    const TableDef& child_def = tables[static_cast<size_t>(child_id)];
    for (const ForeignKey& fk : child_def.foreign_keys) {
      auto parent_id = schema_.table_id(fk.parent_table);
      if (!parent_id.is_ok()) return parent_id.status();
      const std::vector<int> fk_columns = column_indices(child_def, fk.columns);
      ++report.edges_checked;
      for (int home = 0; home < shard_count(); ++home) {
        const std::vector<Row> children = view.shard_view(home).scan_collect(
            child_id, [](const Row&) { return true; });
        for (const Row& child : children) {
          ++report.rows_checked;
          const std::optional<std::string> probe =
              encode_fk_probe(fk_columns, RowCells(child_def, child));
          if (!probe.has_value()) {
            ++report.null_skipped;
            continue;
          }
          const std::string hi = index::encoded_key_successor(*probe);
          bool found = false;
          // Probe the child's own shard first: co-located parents (the
          // common case under position routing) never leave the shard.
          for (int step = 0; step < shard_count() && !found; ++step) {
            const int s = (home + step) % shard_count();
            auto hit = view.shard_view(s).pk_encoded_range(parent_id.value(),
                                                           *probe, hi);
            if (!hit.is_ok()) return hit.status();
            if (!hit.value().empty()) {
              found = true;
              if (step == 0) {
                ++report.local_hits;
              } else {
                ++report.remote_hits;
              }
            }
          }
          if (!found) {
            ++report.orphans;
            if (report.orphan_samples.size() < kOrphanSamples) {
              std::string values;
              for (const std::string& column : fk.columns) {
                const int c = child_def.column_index(column);
                if (!values.empty()) values += ", ";
                values += c >= 0 ? child[static_cast<size_t>(c)].to_display()
                                 : "?";
              }
              report.orphan_samples.push_back(
                  child_def.name + " -> " + fk.parent_table + " (shard " +
                  std::to_string(home) + "): (" + values + ")");
            }
          }
        }
      }
    }
  }
  return report;
}

Status ShardedRepository::verify_integrity() const {
  for (int s = 0; s < shard_count(); ++s) {
    Status status = shard(s).verify_integrity();
    if (!status.is_ok()) {
      return Status(status.code(), "shard " + std::to_string(s) + ": " +
                                       std::string(status.message()));
    }
  }
  return Status::ok();
}

Status ShardedRepository::dump_wal(const std::string& dir) const {
  for (int s = 0; s < shard_count(); ++s) {
    const std::string path = shard_wal_path(dir, s);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (ec) {
      return Status(ErrorCode::kIoError,
                    "create shard WAL dir: " + ec.message());
    }
    Status status = storage::write_wal_file(path, shard(s).wal_records());
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

Result<std::unique_ptr<ShardedRepository>> ShardedRepository::recover_from_wal(
    const Schema& schema,
    const std::vector<std::vector<storage::WalRecord>>& records,
    EngineOptions options, RecoveryStats* stats) {
  core::ShardPolicy policy = options.policies.shard.normalized();
  if (static_cast<size_t>(policy.shard_count) != records.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "recover_from_wal: " + std::to_string(records.size()) +
                      " WAL streams for " +
                      std::to_string(policy.shard_count) + " shards");
  }
  options.policies.shard = policy;
  const EngineOptions per_shard = shard_options(options, policy.shard_count);
  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(records.size());
  for (size_t s = 0; s < records.size(); ++s) {
    RecoveryStats shard_stats;
    auto engine = db::recover_from_wal(schema, records[s], per_shard,
                                       stats != nullptr ? &shard_stats : nullptr);
    if (!engine.is_ok()) {
      return Status(engine.status().code(),
                    "shard " + std::to_string(s) + ": " +
                        std::string(engine.status().message()));
    }
    if (stats != nullptr) {
      stats->records_scanned += shard_stats.records_scanned;
      stats->transactions_committed += shard_stats.transactions_committed;
      stats->transactions_discarded += shard_stats.transactions_discarded;
      stats->rows_replayed += shard_stats.rows_replayed;
      stats->rows_discarded += shard_stats.rows_discarded;
    }
    engines.push_back(std::move(*engine));
  }
  return std::unique_ptr<ShardedRepository>(
      new ShardedRepository(schema, options, std::move(engines)));
}

Result<std::unique_ptr<ShardedRepository>> ShardedRepository::recover_from_dir(
    const Schema& schema, const std::string& dir, EngineOptions options,
    RecoveryStats* stats) {
  const core::ShardPolicy policy = options.policies.shard.normalized();
  std::vector<std::vector<storage::WalRecord>> records;
  records.reserve(static_cast<size_t>(policy.shard_count));
  for (int s = 0; s < policy.shard_count; ++s) {
    auto read = storage::read_wal_file(shard_wal_path(dir, s));
    if (!read.is_ok()) {
      return Status(read.status().code(),
                    "shard " + std::to_string(s) + ": " +
                        std::string(read.status().message()));
    }
    records.push_back(std::move(read.value().records));
  }
  return recover_from_wal(schema, records, options, stats);
}

}  // namespace sky::db
