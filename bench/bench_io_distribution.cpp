// Section 4.5.3 ablation: I/O distribution across devices.
//
// The production layout puts (1) data and temporary files, (2) indices, and
// (3) logs on three separate RAID devices. Co-locating them on one device
// makes commits (log flushes) queue behind data/index page writes. The
// contrast is strongest under frequent commits and parallel loaders; both
// configurations are measured.
#include "bench_util.h"

namespace {

using namespace skybench;

FigureTable g_figure("Ablation 4.5.3: I/O Distribution (200 MB, 4 loaders)",
                     "commit every N batches", "runtime (simulated seconds)");

void bench_layout(benchmark::State& state) {
  const bool separate = state.range(0) == 1;
  const int64_t commit_every = state.range(1);
  for (auto _ : state) {
    sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
    profile.device_layout = separate
                                ? sky::storage::DeviceLayout::separate_raids()
                                : sky::storage::DeviceLayout::single_raid();
    SimRepository repo = SimRepository::create(profile);
    const auto files =
        make_observation(/*paper_mb=*/200, /*seed=*/1200, /*night_id=*/12);
    sky::core::CoordinatorOptions options;
    options.parallel_degree = 4;
    options.loader.write_audit_row = false;
    options.loader.commit.every_batches = commit_every;
    const auto report = sky::core::LoadCoordinator::run_sim(
        *repo.env, *repo.server, files, repo.schema, options);
    if (!report.is_ok()) std::abort();
    const double seconds = normalized_seconds(report->makespan);
    state.SetIterationTime(seconds);
    g_figure.add(separate ? "separate-raids" : "single-raid",
                 static_cast<double>(commit_every), seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const int64_t commit_every : {1, 4, 16}) {
    for (const int64_t separate : {0, 1}) {
      benchmark::RegisterBenchmark("io_distribution/layout", bench_layout)
          ->Args({separate, commit_every})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  bool separate_always_wins = true;
  for (const double commit_every : {1.0, 4.0, 16.0}) {
    if (g_figure.value("separate-raids", commit_every) >=
        g_figure.value("single-raid", commit_every)) {
      separate_always_wins = false;
    }
  }
  const double gain1 = (g_figure.value("single-raid", 1) -
                        g_figure.value("separate-raids", 1)) /
                       g_figure.value("single-raid", 1) * 100;
  const double gain16 = (g_figure.value("single-raid", 16) -
                         g_figure.value("separate-raids", 16)) /
                        g_figure.value("single-raid", 16) * 100;
  std::printf("\nseparate-RAID gain: %.1f%% at commit-every-1, %.1f%% at "
              "commit-every-16\n",
              gain1, gain16);
  shape_check(separate_always_wins,
              "separate data/index/log devices reduce I/O contention");
  shape_check(gain1 > 2.0 || gain16 > 2.0,
              "the layout effect is material, not noise");
  return 0;
}
