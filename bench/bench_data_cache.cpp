// Section 4.5.5 ablation: server data-cache size during loading.
//
// Counterintuitive paper finding: a *smaller* data cache loads faster. The
// database writer scans the whole cache each time it wakes to flush dirty
// buffers; the wake rate is set by the dirty-page production rate (fixed by
// the workload), so a bigger cache means more scan work per wake with no
// offsetting benefit for a pure insert stream.
#include "bench_util.h"

namespace {

using namespace skybench;

FigureTable g_figure("Ablation 4.5.5: Server Data Cache (200 MB data set)",
                     "cache size (8 KiB pages)", "runtime (simulated seconds)");

const std::vector<int64_t> kCachePages = {4096, 16384, 65536, 262144, 1048576};

void bench_cache(benchmark::State& state) {
  const int64_t pages = state.range(0);
  for (auto _ : state) {
    sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
    profile.server_cache_pages = pages;
    SimRepository repo = SimRepository::create(profile);
    const auto file = make_file(200, /*seed=*/1400, /*unit_id=*/140);
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    const auto report = run_bulk(repo, file, options);
    const double seconds = normalized_seconds(report.elapsed);
    state.SetIterationTime(seconds);
    g_figure.add("runtime", static_cast<double>(pages), seconds);
    state.counters["writer_scanned_frames"] = static_cast<double>(
        repo.server->cache_events().writer_scanned_frames);
    state.counters["writer_wakes"] =
        static_cast<double>(repo.server->cache_events().writer_wakes);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const int64_t pages : kCachePages) {
    benchmark::RegisterBenchmark("data_cache/pages", bench_cache)
        ->Arg(pages)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  const double small = g_figure.value("runtime", 4096);
  const double huge = g_figure.value("runtime", 1048576);
  std::printf("\n4K-page cache: %.1f s; 1M-page cache: %.1f s (+%.1f%%)\n",
              small, huge, (huge - small) / small * 100);
  shape_check(huge > small,
              "a smaller data cache loads faster (DBWR scan cost)");
  bool monotone = true;
  for (size_t i = 1; i < kCachePages.size(); ++i) {
    if (g_figure.value("runtime", static_cast<double>(kCachePages[i])) +
            0.5 <
        g_figure.value("runtime", static_cast<double>(kCachePages[i - 1]))) {
      monotone = false;
    }
  }
  shape_check(monotone, "runtime grows (weakly) with cache size");
  return 0;
}
