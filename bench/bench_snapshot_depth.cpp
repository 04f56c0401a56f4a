// Snapshot read cost over a long-lived engine.
//
// The repository takes one small commit after another all night while
// astronomers query what is already loaded. Every commit publishes a
// copy-on-write snapshot chunk (db/snapshot.h); the snapshot manager's
// merger keeps each table's chain at O(log commits) packed key runs, so a
// snapshot PK probe should stay within a small factor of the live B+tree
// probe however many commits came before it.
//
// Real threads, CPU mode (no modeled device latency). One engine lives for
// the whole run; each commit inserts kRowsPerCommit rows in one batch call.
// At each checkpoint the loader pauses and kProbes PK lookups of committed
// rows alternate between a freshly pinned snapshot view and the live view
// (only the lookup is timed). The bench prints both p99s with the chain's
// run count and key-run memory and writes BENCH_snapshot_depth.json.
//
// `--smoke` measures the 10k-commit point only and exits non-zero unless
// snapshot p99 <= 3x live p99 there (the CI guard); full mode adds the
// 100k-commit point and SHAPE-CHECKs both.
#include "bench_util.h"

#include <algorithm>
#include <cstring>

namespace {

using namespace skybench;
using sky::db::Value;

constexpr int64_t kRowsPerCommit = 10;
constexpr int kProbes = 20000;
constexpr double kMaxRatio = 3.0;

sky::db::Schema make_objects_schema() {
  sky::db::Schema schema;
  sky::db::TableDef objects;
  objects.name = "objects";
  objects.col("objid", sky::db::ColumnType::kInt64, /*nullable=*/false)
      .col("htmid", sky::db::ColumnType::kInt64, /*nullable=*/false)
      .col("mag", sky::db::ColumnType::kDouble);
  objects.primary_key = {"objid"};
  objects.indexes.push_back({"ix_htmid", {"htmid"}, {}});
  if (!schema.add_table(std::move(objects)).is_ok()) std::abort();
  return schema;
}

double p99_us(std::vector<double>& samples) {
  const auto rank = static_cast<size_t>(
      0.99 * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

struct DepthPoint {
  int64_t commits = 0;
  double snapshot_p99_us = 0;
  double live_p99_us = 0;
  sky::db::SnapshotStats snapshots;
};

// Time one PK lookup through `view`; aborts if the row is missing.
double timed_lookup_us(const sky::db::ReadView& view, uint32_t table,
                       int64_t objid) {
  const auto begin = std::chrono::steady_clock::now();
  const auto row = view.pk_lookup(table, {Value::i64(objid)});
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  if (!row.is_ok()) std::abort();
  return us;
}

DepthPoint probe(const sky::db::Engine& engine, uint32_t table,
                 int64_t commits, sky::Rng& rng) {
  const int64_t rows = commits * kRowsPerCommit;
  std::vector<double> snapshot_us;
  std::vector<double> live_us;
  snapshot_us.reserve(kProbes);
  live_us.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const int64_t objid = rng.uniform_int(0, rows - 1);
    const sky::db::Snapshot snap = engine.pin_snapshot();
    snapshot_us.push_back(timed_lookup_us(engine.view_at(snap), table, objid));
    live_us.push_back(timed_lookup_us(engine.live_view(), table, objid));
  }
  DepthPoint point;
  point.commits = commits;
  point.snapshot_p99_us = p99_us(snapshot_us);
  point.live_p99_us = p99_us(live_us);
  point.snapshots = engine.stats().snapshots;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int64_t> checkpoints =
      smoke ? std::vector<int64_t>{10000} : std::vector<int64_t>{10000, 100000};

  const sky::db::Schema schema = make_objects_schema();
  sky::db::Engine engine(schema, sky::db::EngineOptions{});
  const uint32_t table = engine.table_id("objects").value();
  sky::Rng rng(17);
  std::vector<DepthPoint> points;
  int64_t commits = 0;
  for (const int64_t checkpoint : checkpoints) {
    for (; commits < checkpoint; ++commits) {
      std::vector<sky::db::Row> rows;
      for (int64_t r = 0; r < kRowsPerCommit; ++r) {
        rows.push_back({Value::i64(commits * kRowsPerCommit + r),
                        Value::i64(rng.uniform_int(0, 1 << 20)),
                        Value::f64(rng.uniform_range(14, 24))});
      }
      const uint64_t txn = engine.begin_transaction();
      if (engine.insert_batch(txn, table, rows).error.has_value() ||
          !engine.commit(txn).is_ok()) {
        std::abort();
      }
    }
    points.push_back(probe(engine, table, commits, rng));
  }

  std::printf("\n=== Snapshot pk_lookup over a long-lived engine (%s; %lld "
              "rows per commit, %d probes per view) ===\n",
              smoke ? "smoke" : "full",
              static_cast<long long>(kRowsPerCommit), kProbes);
  std::printf("%8s  %16s  %12s  %7s  %6s  %8s  %12s\n", "commits",
              "snapshot p99 us", "live p99 us", "ratio", "runs", "merges",
              "key MiB");
  std::vector<std::string> entries;
  bool all_within = true;
  for (const DepthPoint& point : points) {
    const double ratio = point.snapshot_p99_us / point.live_p99_us;
    all_within = all_within && ratio <= kMaxRatio;
    std::printf("%8lld  %16.2f  %12.2f  %6.2fx  %6lld  %8lld  %12.2f\n",
                static_cast<long long>(point.commits), point.snapshot_p99_us,
                point.live_p99_us, ratio,
                static_cast<long long>(point.snapshots.runs),
                static_cast<long long>(point.snapshots.merges),
                static_cast<double>(point.snapshots.key_bytes) / (1 << 20));
    char buffer[384];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"commits\": %lld, \"snapshot_pk_p99_us\": %.3f, "
                  "\"live_pk_p99_us\": %.3f, \"snapshot_runs\": %lld, "
                  "\"snapshot_merges\": %lld, \"snapshot_key_bytes\": %lld}",
                  static_cast<long long>(point.commits), point.snapshot_p99_us,
                  point.live_p99_us,
                  static_cast<long long>(point.snapshots.runs),
                  static_cast<long long>(point.snapshots.merges),
                  static_cast<long long>(point.snapshots.key_bytes));
    entries.emplace_back(buffer);
  }
  write_json_array("BENCH_snapshot_depth.json", entries);
  std::printf("wrote BENCH_snapshot_depth.json\n");

  if (smoke) {
    std::printf("DEPTH-GUARD %s: snapshot pk p99 within %.0fx of live at "
                "%lld commits\n",
                all_within ? "PASS" : "FAIL", kMaxRatio,
                static_cast<long long>(points.back().commits));
    return all_within ? 0 : 1;
  }
  for (const DepthPoint& point : points) {
    const std::string claim =
        "snapshot pk_lookup p99 stays within 3x of live at " +
        std::to_string(point.commits) + " commits";
    shape_check(point.snapshot_p99_us <= kMaxRatio * point.live_p99_us,
                claim.c_str());
  }
  return 0;
}
