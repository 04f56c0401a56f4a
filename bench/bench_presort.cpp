// Section 4.5.4 ablation: presorted input.
//
// Catalog files arrive sorted by primary key (a byproduct of extraction).
// Sorted keys land in the B+tree's rightmost leaf, so index page touches
// stay cache-resident; scrambled keys scatter across leaves and, once the
// tree outgrows the buffer cache, every insert risks a miss plus a dirty
// eviction. The effect needs a large preexisting table — we preload the
// repository first (as the paper's production system was) and use a
// moderate cache.
#include "bench_util.h"

#include "htm/htm.h"

namespace {

using namespace skybench;

FigureTable g_figure("Ablation 4.5.4: Presorted Input (100 MB data set)",
                     "preloaded DB size (GB)", "runtime (simulated seconds)");

void preload_objects(SimRepository& repo, int64_t object_rows) {
  using sky::db::Value;
  const int64_t base = 1LL << 58;
  auto must = [](const sky::Status& status) {
    if (!status.is_ok()) std::abort();
  };
  must(repo.engine->bulk_load_sorted(
      repo.engine->table_id("telescope_states").value(),
      {{Value::i64(base), Value::f64(10), Value::f64(0), Value::f64(40)}}));
  must(repo.engine->bulk_load_sorted(
      repo.engine->table_id("observations").value(),
      {{Value::i64(base), Value::i64(1), Value::i64(1), Value::i64(1),
        Value::i64(base), Value::timestamp(1), Value::f64(1.5),
        Value::f64(0.5)}}));
  must(repo.engine->bulk_load_sorted(
      repo.engine->table_id("ccd_columns").value(),
      {{Value::i64(base), Value::i64(base), Value::i32(0), Value::f64(10),
        Value::f64(0), Value::f64(0.873)}}));
  must(repo.engine->bulk_load_sorted(
      repo.engine->table_id("ccd_frames").value(),
      {{Value::i64(base), Value::i64(base), Value::i32(1), Value::i32(0),
        Value::timestamp(0), Value::f64(60), Value::f64(1.2),
        Value::f64(20.5)}}));
  std::vector<sky::db::Row> objects;
  objects.reserve(static_cast<size_t>(object_rows));
  for (int64_t o = 0; o < object_rows; ++o) {
    const double ra = static_cast<double>(o % 360000) / 1000.0;
    objects.push_back({Value::i64(base + o), Value::i64(base), Value::f64(ra),
                       Value::f64(10.0), Value::f64(20.0), Value::f64(0.01),
                       Value::f64(100.0), Value::f64(2.0), Value::f64(0.1),
                       Value::f64(1), Value::f64(1),
                       Value::i64(static_cast<int64_t>(
                           sky::htm::htm_id_radec(ra, 10.0, 14)))});
  }
  must(repo.engine->bulk_load_sorted(
      repo.engine->table_id("objects").value(), objects));
}

void bench_presort(benchmark::State& state) {
  const bool presorted = state.range(0) == 1;
  const int64_t db_gb = state.range(1);
  for (auto _ : state) {
    sky::core::TuningProfile profile = sky::core::TuningProfile::paper_2005();
    profile.server_cache_pages = 1024;  // moderate cache: page churn matters
    SimRepository repo = SimRepository::create(profile);
    preload_objects(repo, db_gb * 8000);
    sky::catalog::FileSpec spec;
    spec.name = "presort.cat";
    spec.seed = 1300;
    spec.unit_id = 130;
    spec.target_bytes = bytes_for_paper_mb(100);
    spec.shuffle_object_ids = !presorted;
    const auto text = sky::catalog::CatalogGenerator::generate(spec).text;
    sky::core::BulkLoaderOptions options;
    options.write_audit_row = false;
    const auto report =
        run_bulk(repo, sky::core::CatalogFile{spec.name, text}, options);
    const double seconds = normalized_seconds(report.elapsed);
    state.SetIterationTime(seconds);
    g_figure.add(presorted ? "presorted" : "unsorted",
                 static_cast<double>(db_gb), seconds);
    state.counters["cache_misses"] =
        static_cast<double>(repo.server->cache_events().misses);
    state.counters["dirty_evictions"] =
        static_cast<double>(repo.server->cache_events().dirty_evictions);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const int64_t db_gb : {20, 80}) {
    for (const int64_t presorted : {1, 0}) {
      benchmark::RegisterBenchmark("presort/input", bench_presort)
          ->Args({presorted, db_gb})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  g_figure.print();

  const double gain20 =
      (g_figure.value("unsorted", 20) - g_figure.value("presorted", 20)) /
      g_figure.value("unsorted", 20) * 100;
  const double gain80 =
      (g_figure.value("unsorted", 80) - g_figure.value("presorted", 80)) /
      g_figure.value("unsorted", 80) * 100;
  std::printf("\npresort gain: %.1f%% at 20 GB, %.1f%% at 80 GB\n", gain20,
              gain80);
  shape_check(gain20 > 0 && gain80 > 0,
              "presorted input loads faster (index clustering, less I/O)");
  shape_check(gain20 > 5.0,
              "the clustering effect is material (scattered dirty index "
              "leaves cost real page writes)");
  return 0;
}
