// Engine concurrency scaling: real threads, real time.
//
// Measures LoadCoordinator::run_threads makespan and aggregate rows/sec at
// parallel degree 1-8 over the PQ schema, with the engine's modeled device
// latencies enabled so each database call pays realistic redo/data/log
// write time. Two modes contrast the locking designs:
//   * fine-grained — the engine as shipped: engine rwlock shared, per-table
//     latches, striped cache, group-commit WAL. Device waits overlap across
//     loaders.
//   * global-mutex — every session call serialized through one process-wide
//     mutex, emulating the previous engine-wide mutex design. Device waits
//     serialize, so added loaders buy almost nothing.
// A second scenario contrasts the heap layouts under same-table contention
// with only the per-row extent write modeled:
//   * sharded-8 — eight heap extents per table; round-robin transactions
//     append on distinct streams and the per-row writes overlap.
//   * single-heap — one extent (the pre-sharding layout); every loader's
//     appends to a hot table queue on one write stream.
// A third scenario sweeps the WAL's commit-coalescing window under a
// commit-heavy load with only the commit log flush modeled: with the window
// open, concurrent commits fold into shared flushes instead of each paying
// its own device write. The window trades bounded commit latency for
// materially fewer physical log writes; the fast path keeps a lone loader
// at exactly the no-window rate.
// Each run uses a fresh engine, loads the reference tables first, and must
// pass verify_integrity() afterwards. Emits BENCH_engine_scaling.json,
// BENCH_heap_sharding.json, and BENCH_commit_window_threads.json.
#include "bench_util.h"

#include <algorithm>
#include <mutex>

namespace {

using namespace skybench;

// Modeled device waits per engine call (see db::ModeledDeviceLatency). The
// host running this bench may have few cores; the contrast between the two
// modes is carried by these waits overlapping vs serializing, not by CPU
// parallelism.
constexpr sky::Nanos kBatchRedoWrite = 12 * 1000 * 1000;   // 12 ms
constexpr sky::Nanos kDataWritePerPage = 100 * 1000;       // 0.1 ms
constexpr sky::Nanos kCommitLogFlush = 4 * 1000 * 1000;    // 4 ms

// Session wrapper emulating a single engine-wide mutex: one call in the
// engine at a time, device waits included.
class GlobalLockSession final : public sky::client::Session {
 public:
  GlobalLockSession(sky::db::Engine& engine, std::mutex& mu)
      : inner_(engine), mu_(mu) {}

  sky::Result<uint32_t> prepare_insert(std::string_view table_name) override {
    const std::scoped_lock lock(mu_);
    return inner_.prepare_insert(table_name);
  }
  sky::client::BatchOutcome execute_batch(
      uint32_t table, std::span<const sky::db::Row> rows) override {
    const std::scoped_lock lock(mu_);
    return inner_.execute_batch(table, rows);
  }
  sky::client::BatchOutcome execute_column_batch(
      uint32_t table, const sky::db::ColumnBatch& batch, size_t first,
      size_t count) override {
    const std::scoped_lock lock(mu_);
    return inner_.execute_column_batch(table, batch, first, count);
  }
  sky::Status execute_single(uint32_t table, const sky::db::Row& row) override {
    const std::scoped_lock lock(mu_);
    return inner_.execute_single(table, row);
  }
  sky::Status commit() override {
    const std::scoped_lock lock(mu_);
    return inner_.commit();
  }
  void client_compute(sky::Nanos duration) override {
    inner_.client_compute(duration);
  }
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override {
    inner_.note_buffered_rows(rows, footprint_bytes, columnar);
  }
  sky::Nanos now() const override { return inner_.now(); }
  const sky::client::SessionStats& stats() const override {
    return inner_.stats();
  }

 private:
  sky::client::DirectSession inner_;
  std::mutex& mu_;
};

std::vector<sky::core::CatalogFile> make_workload() {
  // Fixed real size (independent of SKYLOADER_BENCH_SCALE): this bench
  // measures wall-clock scaling, not paper-normalized virtual time.
  std::vector<sky::core::CatalogFile> files;
  for (int f = 0; f < 16; ++f) {
    sky::catalog::FileSpec spec;
    spec.name = "scale-" + std::to_string(f) + ".cat";
    spec.seed = 4200 + static_cast<uint64_t>(f);
    spec.unit_id = 900 + f;
    spec.target_bytes = 48 * 1024;
    files.push_back(sky::core::CatalogFile{
        spec.name, sky::catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

struct RunResult {
  double seconds = 0;
  int64_t rows = 0;
  double rows_per_sec = 0;
  double busy_seconds = 0;
  double lock_wait_seconds = 0;
  sky::storage::WalStats wal;
};

RunResult run_files(const sky::db::EngineOptions& engine_options,
                    bool global_lock, int degree,
                    const std::vector<sky::core::CatalogFile>& files,
                    int64_t commit_every_batches = 0) {
  const sky::db::Schema schema = sky::catalog::make_pq_schema();
  const sky::core::TuningProfile profile =
      sky::core::TuningProfile::production();
  sky::db::Engine engine(schema, engine_options);
  if (!profile.apply_index_policy(engine).is_ok()) std::abort();
  {
    sky::client::DirectSession session(engine);
    sky::core::BulkLoaderOptions loader_options;
    loader_options.write_audit_row = false;
    sky::core::BulkLoader loader(session, schema, loader_options);
    const auto report = loader.load_text(
        "reference", sky::catalog::CatalogGenerator::reference_file().text);
    if (!report.is_ok() || report->total_skipped() != 0) std::abort();
  }

  sky::core::CoordinatorOptions options;
  options.parallel_degree = degree;
  options.loader.write_audit_row = false;
  options.loader.commit.every_cycles = 2;
  options.loader.commit.every_batches = commit_every_batches;
  std::mutex global_mu;
  const auto factory = [&](int) -> std::unique_ptr<sky::client::Session> {
    if (global_lock) {
      return std::make_unique<GlobalLockSession>(engine, global_mu);
    }
    return std::make_unique<sky::client::DirectSession>(engine);
  };
  const auto report = sky::core::LoadCoordinator::run_threads(
      files, schema, factory, options);
  if (!report.is_ok()) std::abort();
  if (!engine.verify_integrity().is_ok()) std::abort();

  RunResult result;
  result.seconds = sky::to_seconds(report->makespan);
  result.rows = report->total_rows_loaded;
  result.rows_per_sec =
      result.seconds > 0 ? static_cast<double>(result.rows) / result.seconds
                         : 0;
  for (const sky::Nanos busy : report->worker_busy) {
    result.busy_seconds += sky::to_seconds(busy);
  }
  result.lock_wait_seconds = sky::to_seconds(report->sessions.lock_wait_time);
  result.wal = engine.stats().wal;
  return result;
}

RunResult run_load(bool global_lock, int degree,
                   const std::vector<sky::core::CatalogFile>& files) {
  sky::db::EngineOptions engine_options =
      sky::core::TuningProfile::production().engine_options();
  engine_options.latency.batch_redo_write = kBatchRedoWrite;
  engine_options.latency.data_write_per_page = kDataWritePerPage;
  engine_options.latency.commit_log_flush = kCommitLogFlush;
  return run_files(engine_options, global_lock, degree, files);
}

// Same-table contention scenario: only the per-row extent write is modeled
// (0.15 ms, slept under the extent latch), so the benchmark isolates the
// table's append stream. single = one extent per table, the pre-sharding
// layout: every loader's appends to a hot table queue on one write stream.
// sharded = 8 extents: round-robin transactions land on distinct streams
// and the per-row writes overlap.
constexpr sky::Nanos kExtentAppendWrite = 150 * 1000;  // 0.15 ms per row

RunResult run_sharding_load(uint32_t heap_extents, int degree,
                            const std::vector<sky::core::CatalogFile>& files) {
  sky::db::EngineOptions engine_options =
      sky::core::TuningProfile::production().engine_options();
  engine_options.heap_extents = heap_extents;
  engine_options.latency.extent_append_write = kExtentAppendWrite;
  return run_files(engine_options, /*global_lock=*/false, degree, files);
}

// Commit-window scenario: commits every 8 batches with only the commit log
// flush modeled. The flush is deliberately fast (0.25 ms) so the log device
// is NOT saturated: when it is, the WAL's flush convoy already groups
// maximally for free (everyone who appended during flush N-1 shares flush
// N) and a window has nothing left to cut. Unsaturated, most commits lead
// their own flush; the window folds commits arriving within it into one
// device write — the paper's "reduce frequency of transaction commits"
// lever applied server-side, trading bounded commit latency for materially
// fewer physical log writes.
constexpr sky::Nanos kWindowLogFlush = 250 * 1000;  // 0.25 ms

// Varied file sizes so loaders desynchronize. With identical files the
// workers stay phase-locked and their commits arrive in clumps that
// piggyback for free, which both inflates the no-window baseline and
// leaves the window nothing to do; real catalog nights are not uniform.
// Sized so even the fastest run lasts over a second: at tens of
// milliseconds the makespan ratios the checks compare are scheduler noise.
std::vector<sky::core::CatalogFile> make_window_workload() {
  std::vector<sky::core::CatalogFile> files;
  for (int f = 0; f < 16; ++f) {
    sky::catalog::FileSpec spec;
    spec.name = "window-" + std::to_string(f) + ".cat";
    spec.seed = 7700 + static_cast<uint64_t>(f);
    spec.unit_id = 950 + f;
    spec.target_bytes = (32 + 5 * (f % 7)) * 128 * 1024;  // 4-7.8 MiB
    files.push_back(sky::core::CatalogFile{
        spec.name, sky::catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

RunResult run_window_load(sky::Nanos window, int degree,
                          const std::vector<sky::core::CatalogFile>& files) {
  sky::db::EngineOptions engine_options =
      sky::core::TuningProfile::production().engine_options();
  engine_options.latency.commit_log_flush = kWindowLogFlush;
  engine_options.policies.commit.commit_window = window;
  // Close the group once all but one of the loaders have queued (the last
  // is usually mid-batch; waiting for it costs the whole window). A cap
  // above the parallel degree would make leaders always wait out the full
  // window for a group that can never fill.
  engine_options.policies.commit.max_group_commits = std::max(degree - 1, 2);
  return run_files(engine_options, /*global_lock=*/false, degree, files,
                   /*commit_every_batches=*/8);
}

FigureTable g_figure("Engine scaling: aggregate load rate vs parallel degree",
                     "parallel loaders", "rows/sec");
std::vector<std::string> g_json_entries;

FigureTable g_sharding_figure(
    "Heap sharding: same-table load rate vs parallel degree",
    "parallel loaders", "rows/sec");
std::vector<std::string> g_sharding_json;

FigureTable g_window_figure(
    "Commit window: load rate vs parallel degree (commit every 8 batches)",
    "parallel loaders", "rows/sec");
std::vector<std::string> g_window_json;
// (mode, degree) -> flushes per commit, for the shape checks.
std::map<std::pair<std::string, int>, double> g_window_fpc;

std::string json_entry(const char* mode, int degree, const RunResult& result) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  {\"mode\": \"%s\", \"degree\": %d, \"makespan_s\": %.4f, "
                "\"rows\": %lld, \"rows_per_sec\": %.1f, \"busy_s\": %.4f, "
                "\"lock_wait_s\": %.4f}",
                mode, degree, result.seconds,
                static_cast<long long>(result.rows), result.rows_per_sec,
                result.busy_seconds, result.lock_wait_seconds);
  return buffer;
}

void record(const char* mode, int degree, const RunResult& result) {
  g_figure.add(mode, degree, result.rows_per_sec);
  g_json_entries.push_back(json_entry(mode, degree, result));
}

void record_sharding(const char* mode, int degree, const RunResult& result) {
  g_sharding_figure.add(mode, degree, result.rows_per_sec);
  g_sharding_json.push_back(json_entry(mode, degree, result));
}

// range(1): 0 = fine-grained, 1 = global mutex.
void bench_scaling(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const bool global_lock = state.range(1) == 1;
  static const std::vector<sky::core::CatalogFile> files = make_workload();
  for (auto _ : state) {
    const RunResult result = run_load(global_lock, degree, files);
    state.SetIterationTime(result.seconds);
    state.counters["rows_per_sec"] = result.rows_per_sec;
    state.counters["lock_wait_s"] = result.lock_wait_seconds;
    record(global_lock ? "global-mutex" : "fine-grained", degree, result);
  }
}

void record_window(const char* mode, int degree, const RunResult& result) {
  g_window_figure.add(mode, degree, result.rows_per_sec);
  const int64_t commits = result.wal.commit_requests;
  const int64_t led = commits - result.wal.group_piggybacks;
  const double fpc =
      commits > 0 ? static_cast<double>(led) / static_cast<double>(commits)
                  : 1.0;
  g_window_fpc[{mode, degree}] = fpc;
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "  {\"mode\": \"%s\", \"degree\": %d, \"makespan_s\": %.4f, "
                "\"rows_per_sec\": %.1f, \"commit_requests\": %lld, "
                "\"piggybacks\": %lld, \"flushes_per_commit\": %.4f, "
                "\"leader_wait_s\": %.4f}",
                mode, degree, result.seconds, result.rows_per_sec,
                static_cast<long long>(commits),
                static_cast<long long>(result.wal.group_piggybacks), fpc,
                static_cast<double>(result.wal.leader_wait_ns) / 1e9);
  g_window_json.push_back(buffer);
}

void bench_window(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const sky::Nanos window = state.range(1) * 1000 * 1000;  // ms -> ns
  static const std::vector<sky::core::CatalogFile> files =
      make_window_workload();
  for (auto _ : state) {
    const RunResult result = run_window_load(window, degree, files);
    state.SetIterationTime(result.seconds);
    state.counters["rows_per_sec"] = result.rows_per_sec;
    record_window(state.range(1) == 0 ? "no-window" : "window-3ms", degree,
                  result);
  }
}

void bench_sharding(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const uint32_t extents = static_cast<uint32_t>(state.range(1));
  static const std::vector<sky::core::CatalogFile> files = make_workload();
  for (auto _ : state) {
    const RunResult result = run_sharding_load(extents, degree, files);
    state.SetIterationTime(result.seconds);
    state.counters["rows_per_sec"] = result.rows_per_sec;
    state.counters["lock_wait_s"] = result.lock_wait_seconds;
    record_sharding(extents > 1 ? "sharded-8" : "single-heap", degree, result);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const int degree : {1, 2, 4, 6, 8}) {
    benchmark::RegisterBenchmark("engine_scaling/fine", bench_scaling)
        ->Args({degree, 0})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
    benchmark::RegisterBenchmark("engine_scaling/global", bench_scaling)
        ->Args({degree, 1})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
    benchmark::RegisterBenchmark("heap_sharding/sharded", bench_sharding)
        ->Args({degree, 8})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
    benchmark::RegisterBenchmark("heap_sharding/single", bench_sharding)
        ->Args({degree, 1})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  for (const int degree : {1, 4, 6}) {
    for (const int64_t window_ms : {0, 3}) {
      benchmark::RegisterBenchmark("commit_window/threads", bench_window)
          ->Args({degree, window_ms})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();
  g_sharding_figure.print();

  write_json_array("BENCH_engine_scaling.json", g_json_entries);
  std::printf("\nwrote BENCH_engine_scaling.json\n");

  const double fine1 = g_figure.value("fine-grained", 1);
  const double fine6 = g_figure.value("fine-grained", 6);
  const double global1 = g_figure.value("global-mutex", 1);
  const double global6 = g_figure.value("global-mutex", 6);
  std::printf("fine-grained speedup at 6: %.2fx; global-mutex: %.2fx\n",
              fine1 > 0 ? fine6 / fine1 : 0,
              global1 > 0 ? global6 / global1 : 0);
  shape_check(fine6 >= 3.0 * fine1,
              "fine-grained locking: >=3x aggregate rows/sec at degree 6");
  shape_check(global6 < 1.5 * global1,
              "global mutex emulation stays flat as loaders are added");
  shape_check(fine6 > 2.0 * global6,
              "fine-grained beats the global mutex at degree 6");

  write_json_array("BENCH_heap_sharding.json", g_sharding_json);
  std::printf("\nwrote BENCH_heap_sharding.json\n");

  const double sharded1 = g_sharding_figure.value("sharded-8", 1);
  const double sharded6 = g_sharding_figure.value("sharded-8", 6);
  const double single6 = g_sharding_figure.value("single-heap", 6);
  std::printf("sharded speedup at 6: %.2fx over single heap\n",
              single6 > 0 ? sharded6 / single6 : 0);
  shape_check(sharded6 >= 1.5 * single6,
              "sharded heap: >=1.5x aggregate rows/sec at degree 6 vs one "
              "append stream");
  shape_check(sharded6 >= 1.5 * sharded1,
              "sharded heap scales with loaders on the same table");

  g_window_figure.print();
  write_json_array("BENCH_commit_window_threads.json", g_window_json);
  std::printf("\nwrote BENCH_commit_window_threads.json\n");

  const double fpc_base = g_window_fpc[{"no-window", 6}];
  const double fpc_windowed = g_window_fpc[{"window-3ms", 6}];
  std::printf("degree 6: %.2f flushes/commit without window, %.2f with\n",
              fpc_base, fpc_windowed);
  // Implicit group commit already folds commits that clump behind an
  // in-flight flush (on a timeshared host the clumping is substantial), so
  // the window is judged on what it adds beyond that: fewer flushes than
  // implicit piggybacking alone, and material grouping in absolute terms
  // (at least two commits per device write on average).
  shape_check(fpc_windowed < 0.85 * fpc_base && fpc_windowed < 0.5,
              "commit window cuts real-thread flushes per commit beyond "
              "implicit group commit at degree 6");
  // The window buys fewer device writes with bounded extra commit latency
  // (the leader holds the group open for up to the window). The makespan
  // cost must stay within that bound, not balloon past it.
  shape_check(g_window_figure.value("window-3ms", 6) >=
                  0.7 * g_window_figure.value("no-window", 6),
              "windowed rows/sec stays within the bounded-latency trade at "
              "degree 6");
  // The lone loader takes the single-transaction fast path: the leader
  // never held a window open, so the wait counter stays exactly zero.
  shape_check(g_window_fpc.count({"window-3ms", 1}) > 0 &&
                  g_window_figure.value("window-3ms", 1) >=
                      0.85 * g_window_figure.value("no-window", 1),
              "window does not slow the single loader (fast path skips it)");
  return 0;
}
