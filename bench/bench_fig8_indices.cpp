// Figure 8: impact of secondary indices on bulk-loading runtime,
// data sizes 200-1200 MB, single loader, empty database.
//
// Paper result: the single large-integer attribute index (htmid) costs an
// almost undetectable ~1.5% on average; the composite index over three
// float attributes costs a significant ~8.5%; the degradation tends to grow
// with data size.
#include "bench_util.h"

namespace {

using namespace skybench;

FigureTable g_figure("Figure 8: Effect of Indices",
                     "data size (MB)", "runtime (simulated seconds)");

const std::vector<double> kSizesMb = {200, 400, 600, 800, 1000, 1200};

enum class Scenario { kNone = 0, kIntIndex = 1, kFloatComposite = 2 };

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kNone: return "no-indices";
    case Scenario::kIntIndex: return "1-int-index";
    case Scenario::kFloatComposite: return "3-float-index";
  }
  return "?";
}

void bench_indices(benchmark::State& state) {
  const double mb = static_cast<double>(state.range(0));
  const auto scenario = static_cast<Scenario>(state.range(1));
  for (auto _ : state) {
    sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
    profile.maintain_htmid_index = scenario == Scenario::kIntIndex;
    profile.maintain_composite_index = scenario == Scenario::kFloatComposite;
    SimRepository repo = SimRepository::create(profile);
    const auto file =
        make_file(mb, /*seed=*/800 + static_cast<uint64_t>(mb),
                  /*unit_id=*/80 + static_cast<int64_t>(mb) / 100);
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    const auto report = run_bulk(repo, file, options);
    const double seconds = normalized_seconds(report.elapsed);
    state.SetIterationTime(seconds);
    g_figure.add(scenario_name(scenario), mb, seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const double mb : kSizesMb) {
    for (const Scenario scenario :
         {Scenario::kNone, Scenario::kIntIndex, Scenario::kFloatComposite}) {
      benchmark::RegisterBenchmark("fig8/indices", bench_indices)
          ->Args({static_cast<int64_t>(mb), static_cast<int64_t>(scenario)})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  double int_overhead_sum = 0, float_overhead_sum = 0;
  double first_float_overhead = 0, last_float_overhead = 0;
  for (const double mb : kSizesMb) {
    const double base = g_figure.value("no-indices", mb);
    const double int_overhead =
        (g_figure.value("1-int-index", mb) - base) / base * 100.0;
    const double float_overhead =
        (g_figure.value("3-float-index", mb) - base) / base * 100.0;
    int_overhead_sum += int_overhead;
    float_overhead_sum += float_overhead;
    if (mb == kSizesMb.front()) first_float_overhead = float_overhead;
    if (mb == kSizesMb.back()) last_float_overhead = float_overhead;
  }
  const double int_avg = int_overhead_sum / static_cast<double>(kSizesMb.size());
  const double float_avg =
      float_overhead_sum / static_cast<double>(kSizesMb.size());
  std::printf("\naverage overhead: 1-int index %.2f%%, 3-float composite %.2f%%\n",
              int_avg, float_avg);
  shape_check(int_avg > 0.2 && int_avg < 4.0,
              "single-integer index impact is small (~1.5% in the paper)");
  shape_check(float_avg > 5.0 && float_avg < 14.0,
              "3-float composite index impact is significant (~8.5%)");
  shape_check(float_avg > 3.0 * int_avg,
              "composite float index costs several times the int index");
  shape_check(last_float_overhead >= first_float_overhead - 0.5,
              "index degradation does not shrink as data grows");
  return 0;
}
