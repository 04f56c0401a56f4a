// Future-work extension (paper section 4.3), measured: configurable
// array-set sizing.
//
// The paper's framework used one global array-size and flagged two
// refinements for future work: per-table array sizes from a configuration
// file, and an aggregate "memory high water mark" trigger. Both are
// implemented; this bench compares, at equal client memory budgets:
//   * uniform    — one global array-size (the paper's production setup),
//   * per-table  — array sizes proportional to each table's row share
//                  (fingers get 4x the objects array, etc.),
//   * high-water — arrays unbounded, flush when the aggregate footprint
//                  hits the memory budget.
// The budgets are 1/4, 1/2, 1 and 2 times the modeled client memory
// (CostModel::client_array_memory_bytes, the Fig. 6 paging threshold).
#include "bench_util.h"

namespace {

using namespace skybench;

FigureTable g_figure("Extension 4.3: array-set sizing (200 MB data set)",
                     "client memory budget (KiB)",
                     "runtime (simulated seconds)");

enum class Mode { kUniform = 0, kPerTable = 1, kHighWater = 2 };

// Client memory budgets in KiB, relative to the modeled client memory.
std::vector<int64_t> budgets_kib() {
  const int64_t memory_kib =
      sky::client::paper_calibrated_costs().client_array_memory_bytes / 1024;
  return {memory_kib / 4, memory_kib / 2, memory_kib, memory_kib * 2};
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kUniform: return "uniform";
    case Mode::kPerTable: return "per-table";
    case Mode::kHighWater: return "high-water";
  }
  return "?";
}

// Approximate interleave shares (rows per object-group) for the hot tables;
// used to split a row budget proportionally.
const std::map<std::string, double> kRowShares = {
    {"objects", 1.0},      {"fingers", 4.0},       {"object_moments", 1.0},
    {"object_flags", 1.0}, {"detections", 1.5},    {"ccd_frames", 0.025},
    {"ccd_frame_apertures", 0.1}};

sky::core::ArraySet::Config config_for(Mode mode, int64_t memory_kib,
                                       const sky::db::Schema& schema) {
  sky::core::ArraySet::Config config;
  // The measured footprint is ~152 B per array-row-unit at uniform sizing
  // (148 KiB at array size 1000); derive comparable budgets for all three
  // modes.
  const int64_t row_budget = memory_kib * 1024 / 152;
  switch (mode) {
    case Mode::kUniform:
      config.default_rows = std::max<int64_t>(16, row_budget / 9);
      break;
    case Mode::kPerTable: {
      double total_share = 0;
      for (const auto& [table, share] : kRowShares) total_share += share;
      // Non-hot tables get a small fixed array.
      config.default_rows = 64;
      for (const auto& [table, share] : kRowShares) {
        (void)schema;
        config.per_table_rows[table] = std::max<int64_t>(
            16, static_cast<int64_t>(static_cast<double>(row_budget) *
                                     share / total_share));
      }
      break;
    }
    case Mode::kHighWater:
      config.default_rows = 1 << 20;  // effectively unbounded
      config.memory_high_water_bytes = memory_kib * 1024;
      break;
  }
  return config;
}

void bench_mode(benchmark::State& state) {
  const auto mode = static_cast<Mode>(state.range(0));
  const int64_t memory_kib = state.range(1);
  for (auto _ : state) {
    SimRepository repo = SimRepository::create();
    const auto file = make_file(200, /*seed=*/1900, /*unit_id=*/190);
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    options.array_config = config_for(mode, memory_kib, repo.schema);
    const auto report = run_bulk(repo, file, options);
    const double seconds = normalized_seconds(report.elapsed);
    state.SetIterationTime(seconds);
    g_figure.add(mode_name(mode), static_cast<double>(memory_kib), seconds);
    state.counters["cycles"] = static_cast<double>(report.flush_cycles);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const std::vector<int64_t> budgets = budgets_kib();
  for (const int64_t memory_kib : budgets) {
    for (const int64_t mode : {0, 1, 2}) {
      benchmark::RegisterBenchmark("arrayset_config/mode", bench_mode)
          ->Args({mode, memory_kib})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  int per_table_wins = 0, high_water_wins = 0, points = 0;
  for (const int64_t budget : budgets) {
    const auto memory_kib = static_cast<double>(budget);
    ++points;
    if (g_figure.value("per-table", memory_kib) <
        g_figure.value("uniform", memory_kib)) {
      ++per_table_wins;
    }
    if (g_figure.value("high-water", memory_kib) <
        g_figure.value("uniform", memory_kib)) {
      ++high_water_wins;
    }
  }
  std::printf("\nper-table beats uniform at %d/%d budgets; high-water at "
              "%d/%d\n",
              per_table_wins, points, high_water_wins, points);
  shape_check(per_table_wins >= points - 1,
              "interleave-aware per-table arrays beat one global size");
  shape_check(high_water_wins >= points - 1,
              "the memory high-water mark matches or beats fixed sizing");
  const double tight =
      g_figure.value("uniform", static_cast<double>(budgets.front()));
  const double loose =
      g_figure.value("uniform", static_cast<double>(budgets.back()));
  shape_check(tight > loose,
              "more client memory helps until the paging knee (cf. Fig. 6)");
  return 0;
}
