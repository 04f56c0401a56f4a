// Tuning advisor: the paper's section 4.5 guidance as a tool.
//
// Sweeps batch size, array size, and parallel degree over a sample of the
// input in fast simulation, then prints a recommended TuningProfile — the
// "methodical experimentation" the paper advocates ("even when the detailed
// database system implementation is unknown"), automated.
//
// `--live` runs the closed-loop alternative: instead of sweeping knobs
// offline, it loads the sample under core::Controller and prints every
// ControlTrace decision — the same feedback loop that re-tunes a production
// engine mid-run (core/controller.h).
//
//   $ ./tuning_advisor [sample_megabytes]
//   $ ./tuning_advisor --live [sample_megabytes]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/sim_session.h"
#include "core/bulk_loader.h"
#include "core/controller.h"
#include "core/coordinator.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"

using namespace sky;

namespace {

// All policy values read through the one EnginePolicies aggregate — the
// block tuning code copies between backends (`options.policies =
// config.policies`), not the per-field compat spellings.
void print_policies(const core::EnginePolicies& policies) {
  std::printf(
      "  commit:      window %.2f ms, max group %lld, %s\n"
      "  concurrency: %lld transaction slots, %lld itl slots/table\n"
      "  query:       %lld interactive / %lld batch lane slots%s\n",
      static_cast<double>(policies.commit.commit_window) / 1e6,
      static_cast<long long>(policies.commit.max_group_commits),
      policies.commit.durability == storage::DurabilityMode::kRelaxed
          ? "relaxed durability"
          : "strict durability",
      static_cast<long long>(policies.concurrency.max_concurrent_transactions),
      static_cast<long long>(policies.concurrency.itl_slots_per_table),
      static_cast<long long>(policies.query.normalized().interactive_slots),
      static_cast<long long>(policies.query.normalized().batch_slots),
      policies.query.batch_yields_to_interactive ? " (batch yields)" : "");
}

// --live: load the sample under the adaptive controller instead of sweeping
// knobs offline. Four parallel loaders, the controller ticking on virtual
// time through the SimControlPlane; prints every decision it took. Exits
// non-zero when a load fails or the controller never ticked.
int run_live(int64_t sample_mb) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema,
                    core::TuningProfile::paper_2005().engine_options());
  sim::Environment env;
  client::ServerConfig config = core::TuningProfile::paper_2005()
                                    .server_config();
  // Neutral start: no commit window, lean slots; everything else the
  // controller learns from EngineStats.
  config.policies.commit.commit_window = 0;
  config.policies.concurrency.max_concurrent_transactions = 4;
  client::SimServer server(env, engine, config);

  std::printf("live-tuned load of a %lld MB sample, starting from:\n",
              static_cast<long long>(sample_mb));
  print_policies(config.policies);

  constexpr int kLoaders = 4;
  int active = kLoaders;
  int failed_loads = 0;
  for (int w = 0; w < kLoaders; ++w) {
    catalog::FileSpec spec;
    spec.name = "live-" + std::to_string(w) + ".cat";
    spec.seed = 9600 + static_cast<uint64_t>(w);
    spec.unit_id = 90 + w;
    spec.target_bytes = sample_mb * 1000 * 1000 / kLoaders;
    env.spawn(spec.name, [&server, &schema, &active, &failed_loads, spec] {
      client::SimSession session(server);
      core::BulkLoaderOptions options;
      options.write_audit_row = false;
      // Autocommit-style cadence: gives the controller real commit traffic
      // to steer the group-commit window against.
      options.commit.every_batches = 1;
      core::BulkLoader loader(session, schema, options);
      const std::string text = catalog::CatalogGenerator::generate(spec).text;
      const auto report = loader.load_text(spec.name, text);
      if (!report.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                     report.status().to_string().c_str());
        ++failed_loads;
      }
      --active;
    });
  }

  client::SimControlPlane plane(server);
  core::ControllerPolicy policy;
  core::Controller controller(plane, policy);
  env.spawn("controller", [&env, &active, &policy, &controller] {
    while (active > 0) {
      env.delay(policy.tick_interval);
      controller.tick(env.now());
    }
  });
  env.run();

  std::printf("\nloaded in %.2f virtual seconds; %llu ticks, %llu patches\n",
              to_seconds(env.now()),
              static_cast<unsigned long long>(controller.ticks()),
              static_cast<unsigned long long>(controller.trace().total()));
  std::printf("\ncontrol trace (%s):\n", policy.describe().c_str());
  for (const core::ControlDecision& decision :
       controller.trace().snapshot()) {
    std::printf("  %s\n", decision.render().c_str());
  }
  std::printf("\nsettled policies:\n");
  print_policies(server.config().policies);
  if (failed_loads > 0 || controller.ticks() == 0) {
    std::fprintf(stderr, "live run failed: %d failed loads, %llu ticks\n",
                 failed_loads,
                 static_cast<unsigned long long>(controller.ticks()));
    return 1;
  }
  return 0;
}

// One simulated single-loader run over the sample; returns virtual seconds.
double run_single(const db::Schema& schema, const std::string& text,
                  int64_t batch, int64_t array_size) {
  db::Engine engine(schema,
                    core::TuningProfile::paper_2005().engine_options());
  sim::Environment env;
  client::SimServer server(env, engine,
                           core::TuningProfile::paper_2005().server_config());
  double seconds = 0;
  env.spawn("probe", [&] {
    client::SimSession session(server);
    core::BulkLoaderOptions options;
    options.write_audit_row = false;
    core::BulkLoader reference_loader(session, schema, options);
    (void)reference_loader.load_text(
        "reference", catalog::CatalogGenerator::reference_file().text);
    const Nanos start = env.now();
    options.batch_size = batch;
    options.array_config.default_rows = array_size;
    core::BulkLoader loader(session, schema, options);
    (void)loader.load_text("sample", text);
    seconds = to_seconds(env.now() - start);
  });
  env.run();
  return seconds;
}

double run_parallel(const db::Schema& schema,
                    const std::vector<core::CatalogFile>& files, int degree,
                    const core::BulkLoaderOptions& loader_options) {
  db::Engine engine(schema,
                    core::TuningProfile::paper_2005().engine_options());
  sim::Environment env;
  client::SimServer server(env, engine,
                           core::TuningProfile::paper_2005().server_config());
  env.spawn("reference", [&] {
    client::SimSession session(server);
    core::BulkLoaderOptions options;
    options.write_audit_row = false;
    core::BulkLoader loader(session, schema, options);
    (void)loader.load_text("reference",
                           catalog::CatalogGenerator::reference_file().text);
  });
  env.run();
  core::CoordinatorOptions options;
  options.parallel_degree = degree;
  options.loader = loader_options;
  options.loader.write_audit_row = false;
  const auto report =
      core::LoadCoordinator::run_sim(env, server, files, schema, options);
  return report.is_ok() ? to_seconds(report->makespan) : 1e18;
}

}  // namespace

int main(int argc, char** argv) {
  bool live = false;
  int64_t sample_mb = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
    } else {
      sample_mb = std::atoll(argv[i]);
    }
  }
  if (live) return run_live(sample_mb);
  const db::Schema schema = catalog::make_pq_schema();

  catalog::FileSpec spec;
  spec.name = "sample.cat";
  spec.seed = 4242;
  spec.unit_id = 4;
  spec.target_bytes = sample_mb * 1000 * 1000;
  const std::string sample = catalog::CatalogGenerator::generate(spec).text;
  std::printf("tuning against a %lld MB sample (simulated time)\n\n",
              static_cast<long long>(sample_mb));

  core::TuningProfile recommended = core::TuningProfile::paper_2005();
  recommended.name = "advisor-recommended";

  std::printf("batch-size sweep (array 1000):\n");
  double best = 1e18;
  for (const int64_t batch : {10, 20, 30, 40, 50, 60, 80}) {
    const double seconds = run_single(schema, sample, batch, 1000);
    std::printf("  batch %3lld -> %7.2f s\n", static_cast<long long>(batch),
                seconds);
    if (seconds < best) {
      best = seconds;
      recommended.batch_size = batch;
    }
  }

  std::printf("\narray-size sweep (batch %lld):\n",
              static_cast<long long>(recommended.batch_size));
  best = 1e18;
  for (const int64_t array_size : {250, 500, 1000, 2000, 4000}) {
    const double seconds =
        run_single(schema, sample, recommended.batch_size, array_size);
    std::printf("  array %4lld -> %7.2f s\n",
                static_cast<long long>(array_size), seconds);
    if (seconds < best) {
      best = seconds;
      recommended.array_size = array_size;
    }
  }

  std::printf("\nparallel-degree sweep (28-file observation):\n");
  std::vector<core::CatalogFile> files;
  for (const auto& file_spec : catalog::CatalogGenerator::observation_specs(
           /*seed=*/555, /*night_id=*/5, sample_mb * 4 * 1000 * 1000)) {
    files.push_back(core::CatalogFile{
        file_spec.name, catalog::CatalogGenerator::generate(file_spec).text});
  }
  core::BulkLoaderOptions loader_options = recommended.bulk_options();
  best = 1e18;
  double best_throughput = 0;
  for (int degree = 1; degree <= 8; ++degree) {
    const double seconds =
        run_parallel(schema, files, degree, loader_options);
    const double throughput =
        static_cast<double>(sample_mb * 4) / seconds;
    std::printf("  degree %d -> %7.2f s (%.2f MB/s)\n", degree, seconds,
                throughput);
    if (seconds < best) {
      best = seconds;
      recommended.parallel_degree = degree;
      best_throughput = throughput;
    }
  }
  // The paper's production choice backs off one from the peak to dodge the
  // rare high-parallelism stalls; mirror that.
  if (recommended.parallel_degree > 1) {
    recommended.parallel_degree -= 1;
  }

  std::printf("\nrecommended profile (backing off one loader from the peak, "
              "as the paper's production system does):\n  %s\n",
              recommended.describe().c_str());
  std::printf("server policies for this profile:\n");
  print_policies(recommended.server_config().policies);
  std::printf("expected throughput near %.2f MB/s on this substrate\n",
              best_throughput);
  return 0;
}
