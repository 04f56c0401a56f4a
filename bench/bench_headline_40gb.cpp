// Headline claim (abstract / section 3): "reducing the loading time for a
// 40-gigabyte data set from more than 20 hours to less than 3 hours on the
// same hardware and operating system platform."
//
// The before-state is reconstructed as the untuned-2004 profile: row-at-a-
// time inserts, 2 statically-assigned loaders, frequent commits, every
// index maintained, everything on one RAID, a large data cache, unsorted
// input. The after-state is the paper_2005() profile: bulk loading (batch
// 40, array 1000), 5 dynamically-assigned loaders, infrequent commits, only
// the htmid index, separate devices, reduced cache, presorted input.
//
// One observation (~280 MB) is loaded under each profile; hours for 40 GB
// are extrapolated linearly (Fig. 9 established size-independence).
#include "bench_util.h"

namespace {

using namespace skybench;

FigureTable g_figure("Headline: 40 GB loading time, before vs after",
                     "profile (0=untuned-2004, 1=paper-2005)",
                     "extrapolated hours for 40 GB");

constexpr double kTotalMb = 280;
constexpr double kTargetGb = 40.0;

double run_profile(const sky::core::TuningProfile& profile) {
  SimRepository repo = SimRepository::create(profile);
  std::vector<sky::core::CatalogFile> files;
  for (const auto& spec : sky::catalog::CatalogGenerator::observation_specs(
           /*seed=*/1800, /*night_id=*/18, bytes_for_paper_mb(kTotalMb))) {
    sky::catalog::FileSpec adjusted = spec;
    adjusted.shuffle_object_ids = !profile.presorted_input;
    files.push_back(sky::core::CatalogFile{
        adjusted.name,
        sky::catalog::CatalogGenerator::generate(adjusted).text});
  }
  sky::core::CoordinatorOptions options;
  options.parallel_degree = profile.parallel_degree;
  options.dynamic_assignment = profile.dynamic_assignment;
  options.loader = profile.bulk_options();
  options.loader.write_audit_row = false;

  double seconds = 0;
  if (profile.bulk) {
    const auto report = sky::core::LoadCoordinator::run_sim(
        *repo.env, *repo.server, files, repo.schema, options);
    if (!report.is_ok()) std::abort();
    seconds = normalized_seconds(report->makespan);
  } else {
    // Non-bulk workers: N sim processes over the file list, with the
    // profile's assignment policy.
    const Nanos start = repo.env->now();
    std::mutex queue_mu;
    size_t cursor = 0;
    for (int w = 0; w < profile.parallel_degree; ++w) {
      repo.env->spawn("nonbulk-" + std::to_string(w), [&, w] {
        sky::client::SimSession session(*repo.server);
        sky::core::NonBulkLoaderOptions nb_options;
        nb_options.commit = profile.commit;
        sky::core::NonBulkLoader loader(session, repo.schema, nb_options);
        auto load_one = [&](size_t index) {
          const auto report =
              loader.load_text(files[index].name, files[index].text);
          if (!report.is_ok()) std::abort();
        };
        if (profile.dynamic_assignment) {
          while (true) {
            size_t mine;
            {
              const std::scoped_lock lock(queue_mu);
              if (cursor >= files.size()) return;
              mine = cursor++;
            }
            load_one(mine);
          }
        } else {
          for (size_t i = static_cast<size_t>(w); i < files.size();
               i += static_cast<size_t>(profile.parallel_degree)) {
            load_one(i);
          }
        }
      });
    }
    repo.env->run();
    seconds = normalized_seconds(repo.env->now() - start);
  }
  // Linear extrapolation to 40 GB (Fig. 9: loading speed is size-invariant).
  return seconds * (kTargetGb * 1000.0 / kTotalMb) / 3600.0;
}

void bench_headline(benchmark::State& state) {
  const bool production = state.range(0) == 1;
  for (auto _ : state) {
    const sky::core::TuningProfile profile =
        production ? sky::core::TuningProfile::paper_2005()
                   : sky::core::TuningProfile::untuned_2004();
    const double hours = run_profile(profile);
    state.SetIterationTime(hours * 3600.0);
    g_figure.add(production ? "production" : "untuned",
                 production ? 1.0 : 0.0, hours);
    state.counters["hours_40gb"] = hours;
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const int64_t production : {0, 1}) {
    benchmark::RegisterBenchmark("headline/profile", bench_headline)
        ->Arg(production)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  const double before = g_figure.value("untuned", 0.0);
  const double after = g_figure.value("production", 1.0);
  std::printf("\n40 GB extrapolated: untuned-2004 %.1f h -> production %.1f h "
              "(%.1fx faster)\n",
              before, after, before / after);
  std::printf("paper: 'from more than 20 hours to less than 3 hours'\n");
  std::printf("note: our cost model anchors to the paper's Fig. 4/5 bulk\n"
              "rate (~1.9 s per MB single-loader), which itself implies\n"
              "~3.9 h at 5 loaders; the '<3 hours' abstract claim needs the\n"
              "Fig. 7 peak rate. The before/after contrast is the result.\n");
  shape_check(before > 20.0, "the untuned configuration needs >20 hours");
  shape_check(after < 6.0,
              "the production configuration lands in the few-hours range");
  shape_check(before / after > 6.0,
              "the combined tuning wins roughly an order of magnitude");
  return 0;
}
