// Multi-engine scale-out: shard weak scaling, with the simulated cluster
// (Oracle RAC style) study as the motivating baseline.
//
// Part A (baseline, simulated) — the paper closes by asking how a clustered
// host "scales on databases of the Palomar-Quest magnitude ... provided
// performance and stability are not sacrificed". Scaling the simulated host
// from 1 to 4 nodes under 12 loaders shows why shared-everything clustering
// disappoints: with all nodes writing the same hot tables, every hot block
// ships across the interconnect (cache fusion), and even the perfectly
// partitioned variant flattens against the shared SAN. The lesson — scale
// by *partitioning the data*, not by adding nodes over shared storage — is
// what the shard layer implements.
//
// Part B (the real thing) — db::ShardedRepository weak scaling: M
// independent engines partitioned by HTM trixel range (equal-frequency
// boundaries planned from a position sample), fixed files and loaders *per
// shard*, modeled device latencies on every engine so each shard pays
// realistic redo/data/log write time. Aggregate rows/sec should grow near
// the shard count while per-lookup latency stays flat: the scatter-gather
// reads route point lookups straight to the owning shard. Every run must
// pass per-shard verify_integrity() and cross-shard FK reconciliation.
//
// Emits BENCH_shard_scaling.json. With --smoke, runs a reduced sweep and
// exits non-zero if the scaling gates fail (CI wiring).
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

#include "shard/sharded_repository.h"

namespace {

using namespace skybench;

// Modeled device waits per engine call (see db::ModeledDeviceLatency), the
// same constants as bench_engine_scaling: the host running this bench may
// have few cores, so scaling is carried by these waits overlapping across
// shard engines, not by CPU parallelism.
constexpr sky::Nanos kBatchRedoWrite = 12 * 1000 * 1000;  // 12 ms
constexpr sky::Nanos kDataWritePerPage = 100 * 1000;      // 0.1 ms
constexpr sky::Nanos kCommitLogFlush = 4 * 1000 * 1000;   // 4 ms

constexpr int kLoadersPerShard = 4;
constexpr int kFilesPerShard = 8;  // two per loader

FigureTable g_rac("Baseline: simulated cluster (RAC-style), 12 loaders",
                  "cluster nodes", "throughput (MB/s, paper scale)");
FigureTable g_weak("Shard weak scaling: fixed rows and loaders per shard",
                   "shards", "aggregate rows/sec");

// ------------------------------------------------------------------ Part A

double run_rac(int nodes, bool partitioned, double paper_mb) {
  sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
  sky::db::Engine engine(sky::catalog::make_pq_schema(),
                         profile.engine_options());
  if (!profile.apply_index_policy(engine).is_ok()) std::abort();
  sky::sim::Environment env;
  sky::client::ServerConfig config = profile.server_config();
  config.nodes = nodes;
  config.cpus = 8 * nodes;              // each node is a full host
  config.batch_gate_slots = 5 * nodes;  // per-instance lock capacity
  config.policies.concurrency.max_concurrent_transactions = 8 * nodes;
  if (partitioned) config.cache_fusion_per_page = 0;
  sky::client::SimServer server(env, engine, config);
  env.spawn("reference", [&] {
    sky::client::SimSession session(server);
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    sky::core::BulkLoader loader(session, engine.schema(), options);
    const auto report = loader.load_text(
        "reference", sky::catalog::CatalogGenerator::reference_file().text);
    if (!report.is_ok()) std::abort();
  });
  env.run();

  const auto files = make_observation(paper_mb, /*seed=*/2100,
                                      /*night_id=*/21);
  sky::core::CoordinatorOptions options;
  options.parallel_degree = 12;
  options.loader.write_audit_row = false;
  const auto report = sky::core::LoadCoordinator::run_sim(
      env, server, files, engine.schema(), options);
  if (!report.is_ok()) std::abort();
  const double seconds = normalized_seconds(report->makespan);
  const double mb =
      static_cast<double>(report->total_bytes) / 1e6 / bench_scale();
  return seconds > 0 ? mb / seconds : 0;
}

// ------------------------------------------------------------------ Part B

// Equal-frequency boundary planning needs a position sample that covers the
// workload's sky footprint — each catalog unit images a different region, so
// sample a small slice of *every* unit in the sweep via a quick unmodeled
// single-engine load.
std::vector<uint64_t> sample_trixels(int policy_depth, int units) {
  const sky::db::Schema schema = sky::catalog::make_pq_schema();
  const sky::core::TuningProfile profile =
      sky::core::TuningProfile::paper_2005();
  sky::db::Engine engine(schema, profile.engine_options());
  if (!profile.apply_index_policy(engine).is_ok()) std::abort();
  sky::client::DirectSession session(engine);
  sky::core::BulkLoaderOptions loader_options;
  loader_options.write_audit_row = false;
  sky::core::BulkLoader loader(session, schema, loader_options);
  if (!loader.load_text("reference",
                        sky::catalog::CatalogGenerator::reference_file().text)
           .is_ok()) {
    std::abort();
  }
  for (int f = 0; f < units; ++f) {
    sky::catalog::FileSpec spec;
    spec.name = "boundary-sample-" + std::to_string(f) + ".cat";
    spec.seed = 5200 + static_cast<uint64_t>(f);  // the workload's units
    spec.unit_id = 700 + f;
    spec.target_bytes = 8 * 1024;
    const auto sample_file = sky::catalog::CatalogGenerator::generate(spec);
    if (!loader.load_text(spec.name, sample_file.text).is_ok()) std::abort();
  }

  const uint32_t objects = schema.table_id("objects").value();
  const int ra = schema.table(objects).column_index("ra");
  const int dec = schema.table(objects).column_index("dec");
  const std::vector<sky::db::Row> rows = engine.live_view().scan_collect(
      objects, [](const sky::db::Row&) { return true; });
  std::vector<uint64_t> trixels;
  trixels.reserve(rows.size());
  for (const sky::db::Row& row : rows) {
    trixels.push_back(sky::htm::htm_id_radec(
        row[static_cast<size_t>(ra)].as_f64(),
        row[static_cast<size_t>(dec)].as_f64(), policy_depth));
  }
  if (trixels.empty()) std::abort();
  return trixels;
}

// Fixed size per file; file count scales with the shard count (weak
// scaling), so per-shard work is constant across the sweep.
std::vector<sky::core::CatalogFile> weak_files(int shards,
                                               int64_t bytes_per_file) {
  std::vector<sky::core::CatalogFile> files;
  for (int f = 0; f < kFilesPerShard * shards; ++f) {
    sky::catalog::FileSpec spec;
    spec.name = "shard-scale-" + std::to_string(f) + ".cat";
    spec.seed = 5200 + static_cast<uint64_t>(f);
    spec.unit_id = 700 + f;
    spec.target_bytes = bytes_per_file;
    files.push_back(sky::core::CatalogFile{
        spec.name, sky::catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

struct ShardRun {
  int shards = 0;
  double seconds = 0;
  int64_t rows = 0;
  double rows_per_sec = 0;
  double skew = 0;
  std::vector<int64_t> shard_rows;
  double pk_p99_us = 0;     // p99 of routed point lookups, microseconds
  int64_t fk_remote = 0;    // FK edges whose parent lives on another shard
  int64_t fk_orphans = 0;
};

ShardRun run_sharded(int shards, const std::vector<uint64_t>& sample,
                     int64_t bytes_per_file) {
  const sky::db::Schema schema = sky::catalog::make_pq_schema();
  const sky::core::TuningProfile profile =
      sky::core::TuningProfile::paper_2005();
  sky::db::EngineOptions options = profile.engine_options();
  options.latency.batch_redo_write = kBatchRedoWrite;
  options.latency.data_write_per_page = kDataWritePerPage;
  options.latency.commit_log_flush = kCommitLogFlush;
  options.policies.shard.shard_count = shards;
  if (shards > 1) {
    options.policies.shard.boundaries =
        sky::db::ShardRouter::plan_boundaries(sample, shards);
  }
  sky::db::ShardedRepository repo(schema, options);
  for (int s = 0; s < repo.shard_count(); ++s) {
    if (!profile.apply_index_policy(repo.shard(s)).is_ok()) std::abort();
  }
  {
    auto session = repo.make_session();
    sky::core::BulkLoaderOptions loader_options;
    loader_options.write_audit_row = false;
    sky::core::BulkLoader loader(*session, schema, loader_options);
    const auto report = loader.load_text(
        "reference", sky::catalog::CatalogGenerator::reference_file().text);
    if (!report.is_ok() || report->total_skipped() != 0) std::abort();
  }

  const auto files = weak_files(shards, bytes_per_file);
  sky::core::CoordinatorOptions coordinator_options;
  coordinator_options.parallel_degree = kLoadersPerShard * shards;
  coordinator_options.loader.write_audit_row = false;
  coordinator_options.loader.commit.every_cycles = 2;
  const auto factory = [&](int) { return repo.make_session(); };
  const auto report = sky::core::LoadCoordinator::run_threads(
      files, schema, factory, coordinator_options);
  if (!report.is_ok()) std::abort();
  if (!repo.verify_integrity().is_ok()) std::abort();
  const auto fk = repo.reconcile_foreign_keys();
  if (!fk.is_ok()) std::abort();

  ShardRun run;
  run.shards = shards;
  run.seconds = sky::to_seconds(report->makespan);
  run.rows = report->total_rows_loaded;
  run.rows_per_sec =
      run.seconds > 0 ? static_cast<double>(run.rows) / run.seconds : 0;
  run.skew = repo.shard_skew();
  run.shard_rows = repo.shard_rows();
  run.fk_remote = fk->remote_hits;
  run.fk_orphans = fk->orphans;

  // Query phase: routed point lookups. detections is block-cyclic on its
  // integer PK, so the sharded view derives the owner from the key and goes
  // straight to one shard. Reported is the worst per-shard p99 — each
  // shard's lookup latency must stay flat as the fleet grows (weak scaling
  // adds shards, it must not add per-shard coordination cost).
  const uint32_t detections = schema.table_id("detections").value();
  const int pk_col = schema.table(detections).column_index("detection_id");
  const sky::db::ShardedReadView view = repo.read_view();
  constexpr size_t kLookupsPerShard = 1500;
  for (int s = 0; s < repo.shard_count(); ++s) {
    const std::vector<sky::db::Row> det_rows = view.shard_view(s).scan_collect(
        detections, [](const sky::db::Row&) { return true; });
    if (det_rows.empty()) std::abort();
    const auto pk_of = [&](size_t k) {
      const sky::db::Row& target = det_rows[(k * 7919) % det_rows.size()];
      return sky::db::Row{target[static_cast<size_t>(pk_col)]};
    };
    for (size_t k = 0; k < 200; ++k) {  // warmup
      if (!view.pk_lookup(detections, pk_of(k)).is_ok()) std::abort();
    }
    std::vector<double> latencies_us;
    latencies_us.reserve(kLookupsPerShard);
    for (size_t k = 0; k < kLookupsPerShard; ++k) {
      const sky::db::Row pk = pk_of(k);
      const auto start = std::chrono::steady_clock::now();
      const auto hit = view.pk_lookup(detections, pk);
      const auto stop = std::chrono::steady_clock::now();
      if (!hit.is_ok()) std::abort();
      latencies_us.push_back(
          static_cast<double>(std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(stop - start)
                                  .count()) /
          1e3);
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    run.pk_p99_us = std::max(
        run.pk_p99_us, latencies_us[(latencies_us.size() * 99) / 100]);
  }
  return run;
}

std::string shard_run_json(const ShardRun& run) {
  std::string rows = "[";
  for (size_t s = 0; s < run.shard_rows.size(); ++s) {
    rows += (s > 0 ? ", " : "") + std::to_string(run.shard_rows[s]);
  }
  rows += "]";
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"shards\": %d, \"makespan_s\": %.4f, \"rows\": %lld, "
                "\"rows_per_sec\": %.1f, \"shard_skew\": %.4f, "
                "\"pk_p99_us\": %.2f, \"fk_remote_hits\": %lld, "
                "\"fk_orphans\": %lld, \"shard_rows\": %s}",
                run.shards, run.seconds, static_cast<long long>(run.rows),
                run.rows_per_sec, run.skew, run.pk_p99_us,
                static_cast<long long>(run.fk_remote),
                static_cast<long long>(run.fk_orphans), rows.c_str());
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Part A: the simulated cluster baseline.
  const double rac_mb = smoke ? 60 : 280;
  const std::vector<int> rac_nodes = smoke ? std::vector<int>{1, 4}
                                           : std::vector<int>{1, 2, 4};
  std::vector<std::string> rac_json;
  for (const int nodes : rac_nodes) {
    for (const bool partitioned : {false, true}) {
      const double mbps = run_rac(nodes, partitioned, rac_mb);
      const char* mode = partitioned ? "partitioned" : "shared-tables";
      g_rac.add(mode, nodes, mbps);
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "    {\"mode\": \"%s\", \"nodes\": %d, "
                    "\"mb_per_sec\": %.2f}",
                    mode, nodes, mbps);
      rac_json.push_back(buffer);
    }
  }
  g_rac.print();
  const double shared1 = g_rac.value("shared-tables", 1);
  const double shared4 = g_rac.value("shared-tables", 4);
  const double part1 = g_rac.value("partitioned", 1);
  const double part4 = g_rac.value("partitioned", 4);
  std::printf("4-node cluster: shared-tables %.2fx, partitioned %.2fx "
              "(of 1-node)\n",
              shared1 > 0 ? shared4 / shared1 : 0,
              part1 > 0 ? part4 / part1 : 0);
  shape_check(part4 > shared4 * 1.05,
              "cache-fusion traffic on shared tables costs real throughput");
  shape_check(part4 < part1 * 3.0,
              "cluster scaling stays sublinear: the shared SAN caps it");

  // Part B: real shard weak scaling. File size is fixed small so the
  // modeled device waits dominate the single-host parse cost — the sweep
  // measures how well per-shard device waits overlap, not how fast one CPU
  // parses 8 shards' worth of text.
  const int64_t bytes_per_file = 24 * 1024;
  const std::vector<int> shard_counts = smoke ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 2, 4, 8};
  std::vector<ShardRun> runs;
  std::vector<std::string> weak_json;
  for (const int shards : shard_counts) {
    const std::vector<uint64_t> sample = sample_trixels(
        sky::core::ShardPolicy{}.htm_depth, kFilesPerShard * shards);
    const ShardRun run = run_sharded(shards, sample, bytes_per_file);
    g_weak.add("htm-range", shards, run.rows_per_sec);
    std::printf("shards=%d: %.2fs, %lld rows, %.0f rows/s, skew %.2f, "
                "pk p99 %.1fus, fk remote %lld, orphans %lld\n",
                run.shards, run.seconds, static_cast<long long>(run.rows),
                run.rows_per_sec, run.skew, run.pk_p99_us,
                static_cast<long long>(run.fk_remote),
                static_cast<long long>(run.fk_orphans));
    weak_json.push_back(shard_run_json(run));
    runs.push_back(run);
  }
  g_weak.print();

  const auto find_run = [&](int shards) -> const ShardRun* {
    for (const ShardRun& run : runs) {
      if (run.shards == shards) return &run;
    }
    return nullptr;
  };
  const ShardRun* one = find_run(1);
  const ShardRun* four = find_run(4);
  if (one == nullptr || four == nullptr) std::abort();
  std::printf("\n4-shard weak scaling: %.2fx aggregate rows/sec, pk p99 "
              "%.2fx, skew %.2f\n",
              one->rows_per_sec > 0 ? four->rows_per_sec / one->rows_per_sec
                                    : 0,
              one->pk_p99_us > 0 ? four->pk_p99_us / one->pk_p99_us : 0,
              four->skew);

  const bool gate_scaling = four->rows_per_sec >= 3.0 * one->rows_per_sec;
  bool gate_skew = true;
  bool gate_fk = true;
  for (const ShardRun& run : runs) {
    gate_skew = gate_skew && run.skew <= 1.5;
    gate_fk = gate_fk && run.fk_orphans == 0;
  }
  const bool gate_p99 = four->pk_p99_us <= 3.0 * one->pk_p99_us;
  shape_check(gate_scaling,
              ">=3x aggregate rows/sec at 4 shards (weak scaling)");
  shape_check(gate_skew,
              "planned HTM boundaries hold shard skew <= 1.5 at every M");
  shape_check(gate_p99,
              "routed point-lookup p99 stays near-flat as shards are added");
  shape_check(gate_fk, "cross-shard FK reconciliation converges at every M");

  std::ofstream("BENCH_shard_scaling.json")
      << "{\n  \"rac_baseline\": " << json_array(rac_json, "  ")
      << ",\n  \"weak_scaling\": " << json_array(weak_json, "  ")
      << "\n}\n";
  std::printf("\nwrote BENCH_shard_scaling.json\n");

  if (smoke && !(gate_scaling && gate_skew && gate_p99 && gate_fk)) {
    std::printf("SMOKE GATE FAIL\n");
    return 1;
  }
  return 0;
}
