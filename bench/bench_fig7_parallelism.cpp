// Figure 7: loading throughput vs number of parallel loading processes.
//
// Paper result: throughput climbs almost linearly up to ~6 loaders, peaks at
// 6-7 (not at 8, despite 8 server CPUs), and declines at 8 as the RDBMS
// concurrent-transaction limit bites — escalating lock waits and, very
// infrequently, long stalls. The production framework runs 5 loaders.
//
// Two executions of the same experiment, configured from ONE shared
// core::ConcurrencyPolicy literal (kFig7Policy below):
//   * sim — the virtual-time SimServer sweep over one 280 MB observation
//     (the original figure regeneration).
//   * real — actual loader threads against the engine's admission gates
//     (FIFO SlotGate transaction slots + per-table SlotGate ITL),
//     with modeled device latencies carrying the contrast. Gated runs use
//     kFig7Policy verbatim; a gate-off control must scale monotonically.
// Emits BENCH_fig7_real.json for the real sweep.
//
// --smoke: skip the sim sweep and shrink the real files for CI.
#include "bench_util.h"

#include <cstring>

namespace {

using namespace skybench;

bool g_smoke = false;

// THE shared admission policy: both the sim server and the real engine are
// configured from this literal, so the two sweeps model the same RDBMS —
// 8 open-transaction slots, 7 ITL slots per table (the knee of Fig. 7),
// default escalation factor and stall model.
constexpr sky::core::ConcurrencyPolicy kFig7Policy{
    .max_concurrent_transactions = 8,
    .itl_slots_per_table = 7,
};

// ---- sim sweep (virtual time, one 280 MB observation) ---------------------

FigureTable g_figure("Figure 7: Effect of Parallelism (one observation)",
                     "parallel loaders", "throughput (MB/s, paper scale)");

void bench_parallel(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sky::client::ServerConfig server_config =
        sky::core::TuningProfile::paper_2005().server_config();
    server_config.policies.concurrency = kFig7Policy;
    SimRepository repo =
        SimRepository::create(sky::core::TuningProfile::paper_2005(),
                              &server_config);
    const auto files =
        make_observation(/*paper_mb=*/280, /*seed=*/700, /*night_id=*/7);
    sky::core::CoordinatorOptions options;
    options.parallel_degree = degree;
    options.loader.write_audit_row = false;
    const auto report = sky::core::LoadCoordinator::run_sim(
        *repo.env, *repo.server, files, repo.schema, options);
    if (!report.is_ok()) std::abort();
    const double seconds = normalized_seconds(report->makespan);
    // Throughput on the paper's axis: paper-MB over paper-normalized time.
    const double mb =
        static_cast<double>(report->total_bytes) / 1e6 / bench_scale();
    const double throughput = mb / seconds;
    state.SetIterationTime(seconds);
    g_figure.add("throughput", degree, throughput);
    state.counters["MBps"] = throughput;
    state.counters["lock_waits"] = static_cast<double>(
        repo.server->concurrency_stats().transaction_gate.waits);
  }
}

// ---- real sweep (loader threads against the engine's gates) ---------------

// Modeled device waits per engine call (the bench_engine_scaling constants):
// on a small host the contrast is carried by these waits overlapping across
// threads, and by contended transactions paying the escalation surcharge on
// every batch.
constexpr sky::Nanos kBatchRedoWrite = 12 * 1000 * 1000;   // 12 ms
constexpr sky::Nanos kDataWritePerPage = 100 * 1000;       // 0.1 ms
constexpr sky::Nanos kCommitLogFlush = 4 * 1000 * 1000;    // 4 ms

// Two equal files per worker, so every degree loads a balanced share and
// throughput is expected to rise linearly until the gates bite.
std::vector<sky::core::CatalogFile> make_real_workload(int degree) {
  std::vector<sky::core::CatalogFile> files;
  const int64_t bytes = (g_smoke ? 24 : 48) * 1024;
  for (int f = 0; f < 2 * degree; ++f) {
    sky::catalog::FileSpec spec;
    spec.name = "fig7-" + std::to_string(f) + ".cat";
    spec.seed = 7000 + static_cast<uint64_t>(f);
    spec.unit_id = 970 + f;
    spec.target_bytes = bytes;
    files.push_back(sky::core::CatalogFile{
        spec.name, sky::catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

struct RealResult {
  double seconds = 0;
  double mbps = 0;
  int64_t rows = 0;
  sky::db::ConcurrencyStats gates;
  double itl_wait_s = 0;
  double txn_slot_wait_s = 0;
  double stall_s = 0;
};

RealResult run_real(int degree, bool gated) {
  const sky::db::Schema schema = sky::catalog::make_pq_schema();
  const sky::core::TuningProfile profile =
      sky::core::TuningProfile::paper_2005();
  sky::db::EngineOptions engine_options = profile.engine_options();
  engine_options.policies.concurrency = kFig7Policy;
  if (!gated) {
    // Gate-off control: ITL admission disabled, transaction slots
    // permissive. Everything else identical.
    engine_options.policies.concurrency.itl_slots_per_table = 0;
    engine_options.policies.concurrency.max_concurrent_transactions = 64;
  }
  engine_options.latency.batch_redo_write = kBatchRedoWrite;
  engine_options.latency.data_write_per_page = kDataWritePerPage;
  engine_options.latency.commit_log_flush = kCommitLogFlush;
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

  const auto files = make_real_workload(degree);
  sky::core::CoordinatorOptions options;
  options.parallel_degree = degree;
  options.loader.write_audit_row = false;
  // Commit only at end of file (the production choice): each loader holds
  // its ITL admission for the whole file, so at 8 loaders the 7-slot ITL on
  // the hot table is genuinely saturated — one loader is always queued and
  // contended admissions pay the escalation surcharge on every batch.
  const auto report = sky::core::LoadCoordinator::run_threads(
      files, schema,
      [&](int) -> std::unique_ptr<sky::client::Session> {
        return std::make_unique<sky::client::DirectSession>(engine);
      },
      options);
  if (!report.is_ok()) std::abort();
  if (!engine.verify_integrity().is_ok()) std::abort();

  RealResult result;
  result.seconds = sky::to_seconds(report->makespan);
  result.rows = report->total_rows_loaded;
  result.mbps = result.seconds > 0
                    ? static_cast<double>(report->total_bytes) / 1e6 /
                          result.seconds
                    : 0;
  result.gates = engine.stats().concurrency;
  result.itl_wait_s = sky::to_seconds(report->sessions.itl_wait_time);
  result.txn_slot_wait_s = sky::to_seconds(report->sessions.txn_slot_wait_time);
  result.stall_s = sky::to_seconds(report->sessions.stall_time);
  return result;
}

FigureTable g_real_figure(
    "Figure 7 (real threads): throughput vs parallel loaders",
    "parallel loaders", "MB/s (2 files per worker)");
std::vector<std::string> g_real_json;

void bench_real(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const bool gated = state.range(1) != 0;
  for (auto _ : state) {
    const RealResult result = run_real(degree, gated);
    state.SetIterationTime(result.seconds);
    state.counters["MBps"] = result.mbps;
    state.counters["itl_waits"] =
        static_cast<double>(result.gates.itl.waits);
    g_real_figure.add(gated ? "gated" : "gate-off", degree, result.mbps);
    char buffer[320];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"mode\": \"%s\", \"degree\": %d, \"makespan_s\": %.4f, "
        "\"mb_per_sec\": %.2f, \"rows\": %lld, \"itl_waits\": %llu, "
        "\"itl_wait_s\": %.4f, \"txn_slot_wait_s\": %.4f, "
        "\"stall_s\": %.4f, \"stalls\": %llu}",
        gated ? "gated" : "gate-off", degree, result.seconds, result.mbps,
        static_cast<long long>(result.rows),
        static_cast<unsigned long long>(result.gates.itl.waits),
        result.itl_wait_s, result.txn_slot_wait_s, result.stall_s,
        static_cast<unsigned long long>(result.gates.itl.stalls));
    g_real_json.push_back(buffer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (!g_smoke) {
    for (int degree = 1; degree <= 8; ++degree) {
      benchmark::RegisterBenchmark("fig7/parallel", bench_parallel)
          ->Arg(degree)
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  const std::vector<int> real_degrees =
      g_smoke ? std::vector<int>{1, 6, 7, 8}
              : std::vector<int>{1, 2, 4, 6, 7, 8};
  for (const int degree : real_degrees) {
    benchmark::RegisterBenchmark("fig7/real_gated", bench_real)
        ->Args({degree, 1})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
    benchmark::RegisterBenchmark("fig7/real_ungated", bench_real)
        ->Args({degree, 0})
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();

  if (!g_smoke) {
    g_figure.print();
    double peak_degree = 0, peak = 0;
    for (int degree = 1; degree <= 8; ++degree) {
      const double throughput = g_figure.value("throughput", degree);
      if (throughput > peak) {
        peak = throughput;
        peak_degree = degree;
      }
    }
    std::printf("\nsim peak throughput: %.2f MB/s at %d loaders\n", peak,
                static_cast<int>(peak_degree));
    // Near-linear scaling through 6 loaders.
    const double t1 = g_figure.value("throughput", 1);
    const double t6 = g_figure.value("throughput", 6);
    shape_check(t6 > 4.5 * t1,
                "sim: throughput scales nearly linearly up to 6 loaders");
    shape_check(peak_degree >= 6 && peak_degree <= 7,
                "sim: throughput peaks at 6-7 loaders, not at the 8 CPUs");
    shape_check(g_figure.value("throughput", 8) < peak,
                "sim: 8 loaders are slower than the peak (lock contention)");
  }

  g_real_figure.print();
  write_json_array("BENCH_fig7_real.json", g_real_json);
  std::printf("\nwrote BENCH_fig7_real.json\n");

  double real_peak = 0;
  int real_peak_degree = 0;
  for (const int degree : real_degrees) {
    const double mbps = g_real_figure.value("gated", degree);
    if (mbps > real_peak) {
      real_peak = mbps;
      real_peak_degree = degree;
    }
  }
  std::printf("real gated peak: %.2f MB/s at %d loaders\n", real_peak,
              real_peak_degree);
  const double r1 = g_real_figure.value("gated", 1);
  const double r6 = g_real_figure.value("gated", 6);
  const double r8 = g_real_figure.value("gated", 8);
  shape_check(r6 > 4.0 * r1,
              "real: gated throughput scales nearly linearly up to 6 loaders");
  shape_check(real_peak_degree >= 6 && real_peak_degree <= 7,
              "real: gated throughput peaks at 6-7 loaders");
  shape_check(r8 < real_peak,
              "real: 8 loaders fall off the peak (ITL admission waits + "
              "escalation)");
  const double u1 = g_real_figure.value("gate-off", 1);
  const double u8 = g_real_figure.value("gate-off", 8);
  const double u6 = g_real_figure.value("gate-off", 6);
  shape_check(u8 >= u6 && u6 > 4.0 * u1,
              "real: with the gates off, throughput keeps climbing to 8");
  return 0;
}
