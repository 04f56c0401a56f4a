// Section 4.5.2 ablation: commit frequency — and commit coalescing.
//
// Part 1 (single loader): a commit forces redo processing and a log-device
// flush; committing rarely amortizes that cost ("we chose to execute
// commits very infrequently ... resulting in a significant performance
// increase"), at the price of a larger redo backlog (also reported here).
//
// Part 2 (parallel loaders): when commits must stay frequent, the
// commit-coalescing group-commit window folds commits arriving close
// together into one log-device flush. Sweeps parallel degree x window over
// a commit-heavy load and emits BENCH_commit_window.json. Expected shape:
// materially fewer flushes per commit at degree >= 4, and an unchanged
// degree-1 runtime (the lone loader skips the window).
//
// --smoke: shrink both sweeps for CI (same shapes, smaller data set).
#include "bench_util.h"

#include <cstring>

namespace {

using namespace skybench;

bool g_smoke = false;

FigureTable g_figure("Ablation 4.5.2: Commit Frequency (200 MB data set)",
                     "batches between commits (0 = end of file)",
                     "runtime (simulated seconds)");

// Sweep: commit every N database calls (1 = JDBC autocommit after every
// batch); 0 = only at end of file.
std::vector<int64_t> commit_every_sweep() {
  if (g_smoke) return {1, 16, 256, 0};
  return {1, 4, 16, 64, 256, 0};
}

void bench_commit(benchmark::State& state) {
  const int64_t every = state.range(0);
  for (auto _ : state) {
    SimRepository repo = SimRepository::create();
    const auto file = make_file(g_smoke ? 40 : 200, /*seed=*/1100,
                                /*unit_id=*/110);
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    options.commit.every_batches = every;
    const auto report = run_bulk(repo, file, options);
    const double seconds = normalized_seconds(report.elapsed);
    state.SetIterationTime(seconds);
    // Use 1000 as the x position for "end of file only".
    g_figure.add("runtime", every == 0 ? 1000.0 : static_cast<double>(every),
                 seconds);
    state.counters["commits"] = static_cast<double>(report.commits);
    state.counters["redo_backlog_max"] = static_cast<double>(
        repo.engine->stats().wal.max_unflushed_bytes);
  }
}

// ---- Part 2: commit-coalescing window, parallel degrees -------------------

FigureTable g_window_figure(
    "Commit coalescing: log flushes per commit (commit every 4 batches)",
    "parallel loaders", "flushes per commit");
std::vector<std::string> g_window_json;
// (degree, window_ms) -> result, for the shape checks on makespan.
std::map<std::pair<int, int64_t>, double> g_window_seconds;

struct WindowResult {
  double seconds = 0;
  double rows_per_sec = 0;
  int64_t flushes = 0;
  int64_t piggybacks = 0;
  double flushes_per_commit = 1.0;
  double leader_wait_s = 0;
};

WindowResult run_window_load(int degree, sky::Nanos window) {
  sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
  profile.commit.commit_window = window;
  profile.commit.max_group_commits = 8;
  SimRepository repo = SimRepository::create(profile);
  const auto files = make_observation(g_smoke ? 12 : 60, /*seed=*/5200,
                                      /*night_id=*/52);
  sky::core::CoordinatorOptions options;
  options.parallel_degree = degree;
  options.loader.write_audit_row = false;
  // Commit-heavy on purpose: the window only matters when commits are
  // frequent enough to collide.
  options.loader.commit.every_batches = 4;
  const auto report = sky::core::LoadCoordinator::run_sim(
      *repo.env, *repo.server, files, repo.schema, options);
  if (!report.is_ok()) std::abort();

  WindowResult result;
  result.seconds = normalized_seconds(report->makespan);
  result.rows_per_sec =
      result.seconds > 0
          ? static_cast<double>(report->total_rows_loaded) / result.seconds
          : 0;
  result.flushes = report->sessions.commit_flushes_led;
  result.piggybacks = report->sessions.commit_piggybacks;
  const int64_t commits = result.flushes + result.piggybacks;
  result.flushes_per_commit =
      commits > 0 ? static_cast<double>(result.flushes) /
                        static_cast<double>(commits)
                  : 1.0;
  result.leader_wait_s = sky::to_seconds(report->sessions.commit_leader_wait);
  return result;
}

void bench_window(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const sky::Nanos window = state.range(1) * sky::kMillisecond;
  for (auto _ : state) {
    const WindowResult result = run_window_load(degree, window);
    state.SetIterationTime(result.seconds);
    state.counters["flushes_per_commit"] = result.flushes_per_commit;
    state.counters["piggybacks"] = static_cast<double>(result.piggybacks);
    const std::string series =
        state.range(1) == 0 ? "window-0"
                            : "window-" + std::to_string(state.range(1)) + "ms";
    g_window_figure.add(series, degree, result.flushes_per_commit);
    g_window_seconds[{degree, state.range(1)}] = result.seconds;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"degree\": %d, \"window_ms\": %lld, "
                  "\"makespan_s\": %.4f, \"rows_per_sec\": %.1f, "
                  "\"commit_flushes\": %lld, \"commit_piggybacks\": %lld, "
                  "\"flushes_per_commit\": %.4f, \"leader_wait_s\": %.4f}",
                  degree, static_cast<long long>(state.range(1)),
                  result.seconds, result.rows_per_sec,
                  static_cast<long long>(result.flushes),
                  static_cast<long long>(result.piggybacks),
                  result.flushes_per_commit, result.leader_wait_s);
    g_window_json.push_back(buffer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      // Strip the flag so google-benchmark does not reject it.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  for (const int64_t every : commit_every_sweep()) {
    benchmark::RegisterBenchmark("commit_frequency/every", bench_commit)
        ->Arg(every)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  const std::vector<int> degrees = g_smoke ? std::vector<int>{1, 4}
                                           : std::vector<int>{1, 2, 4, 6};
  const std::vector<int64_t> windows_ms = {0, 2, 8};
  for (const int degree : degrees) {
    for (const int64_t window_ms : windows_ms) {
      benchmark::RegisterBenchmark("commit_window/sweep", bench_window)
          ->Args({degree, window_ms})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  const double frequent = g_figure.value("runtime", 1);
  const double infrequent = g_figure.value("runtime", 1000);
  std::printf("\nautocommit-per-batch: %.1f s; commit-at-end: %.1f s "
              "(%.1f%% saved)\n",
              frequent, infrequent, (frequent - infrequent) / frequent * 100);
  shape_check(infrequent < frequent * 0.95,
              "infrequent commits are significantly faster than autocommit");
  shape_check(g_figure.value("runtime", 16) < frequent &&
                  g_figure.value("runtime", 256) <= g_figure.value("runtime", 16),
              "runtime improves monotonically as commits get rarer");

  g_window_figure.print();
  write_json_array("BENCH_commit_window.json", g_window_json);
  std::printf("\nwrote BENCH_commit_window.json\n");

  const int high_degree = degrees.back();
  const double fpc_base = g_window_figure.value("window-0", high_degree);
  const double fpc_windowed = g_window_figure.value("window-8ms", high_degree);
  std::printf("degree %d: %.2f flushes/commit without window, %.2f with 8 ms "
              "window\n",
              high_degree, fpc_base, fpc_windowed);
  shape_check(fpc_windowed < 0.7 * fpc_base,
              "coalescing window materially cuts flushes per commit at "
              "parallel degree >= 4");
  shape_check(g_window_seconds[{high_degree, 8}] <=
                  g_window_seconds[{high_degree, 0}] * 1.05,
              "windowed makespan does not regress at high parallel degree");
  // Sim runs are deterministic: the lone loader takes the (modeled)
  // single-transaction fast path, so the window must cost degree 1 nothing.
  const double d1_base = g_window_seconds[{1, 0}];
  const double d1_windowed = g_window_seconds[{1, 8}];
  shape_check(d1_base > 0 && d1_windowed <= d1_base * 1.01,
              "window does not slow the single loader (fast path skips it)");
  return 0;
}
