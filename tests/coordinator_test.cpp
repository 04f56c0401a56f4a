// Parallel coordinator tests: dynamic vs static assignment, real-thread and
// simulated backends, determinism of simulation, and end-to-end integrity
// of a full parallel night.
#include <gtest/gtest.h>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/sim_session.h"
#include "core/coordinator.h"
#include "core/tuning.h"
#include "db/engine.h"

namespace sky::core {
namespace {

std::vector<CatalogFile> make_files(int count, int64_t bytes_each,
                                    uint64_t seed, double error_rate = 0.0) {
  std::vector<CatalogFile> files;
  for (int f = 0; f < count; ++f) {
    catalog::FileSpec spec;
    spec.name = "file" + std::to_string(f) + ".cat";
    spec.seed = seed + static_cast<uint64_t>(f);
    spec.unit_id = 100 + f;
    spec.target_bytes = bytes_each;
    spec.error_rate = error_rate;
    files.push_back(
        CatalogFile{spec.name, catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

void load_reference(db::Engine& engine, const db::Schema& schema) {
  client::DirectSession session(engine);
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema, options);
  ASSERT_TRUE(
      loader
          .load_text("reference",
                     catalog::CatalogGenerator::reference_file().text)
          .is_ok());
}

TEST(CoordinatorThreadsTest, ParallelNightLoadsEverything) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  load_reference(engine, schema);
  const auto files = make_files(8, 24 * 1024, 71);

  CoordinatorOptions options;
  options.parallel_degree = 4;
  options.loader.write_audit_row = true;
  const auto report = LoadCoordinator::run_threads(
      files, schema,
      [&](int) { return std::make_unique<client::DirectSession>(engine); },
      options);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->files.size(), 8u);
  EXPECT_EQ(report->workers, 4);
  int64_t skipped = 0;
  for (const FileLoadReport& file : report->files) {
    skipped += file.total_skipped();
  }
  EXPECT_EQ(skipped, 0);
  EXPECT_GT(report->total_rows_loaded, 0);
  // One audit row per file.
  EXPECT_EQ(engine.live_view().row_count(engine.table_id("load_audit").value()), 8);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  // Dynamic assignment: all files distributed; with real threads on a
  // loaded host some workers may drain the queue before others start, so
  // only require that no worker was overloaded past the queue total.
  int total_files = 0;
  for (const int files_done : report->files_per_worker) {
    EXPECT_GE(files_done, 0);
    total_files += files_done;
  }
  EXPECT_EQ(total_files, 8);
}

TEST(CoordinatorThreadsTest, DegreeOneIsSerial) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  load_reference(engine, schema);
  const auto files = make_files(3, 16 * 1024, 73);
  CoordinatorOptions options;
  options.parallel_degree = 1;
  options.loader.write_audit_row = false;
  const auto report = LoadCoordinator::run_threads(
      files, schema,
      [&](int) { return std::make_unique<client::DirectSession>(engine); },
      options);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->files_per_worker, (std::vector<int>{3}));
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

TEST(CoordinatorThreadsTest, RejectsBadDegree) {
  const db::Schema schema = catalog::make_pq_schema();
  CoordinatorOptions options;
  options.parallel_degree = 0;
  const auto report = LoadCoordinator::run_threads(
      {}, schema, [](int) -> std::unique_ptr<client::Session> {
        return nullptr;
      },
      options);
  EXPECT_FALSE(report.is_ok());
}

TEST(CoordinatorSimTest, SimNightDeterministicAndComplete) {
  const db::Schema schema = catalog::make_pq_schema();
  const auto files = make_files(6, 24 * 1024, 79);

  auto run_once = [&]() {
    db::Engine engine(schema);
    load_reference(engine, schema);
    sim::Environment env;
    client::SimServer server(env, engine, client::ServerConfig{});
    CoordinatorOptions options;
    options.parallel_degree = 3;
    options.loader.write_audit_row = false;
    const auto report =
        LoadCoordinator::run_sim(env, server, files, schema, options);
    EXPECT_TRUE(report.is_ok());
    EXPECT_TRUE(engine.verify_integrity().is_ok());
    return std::make_pair(report->makespan, report->total_rows_loaded);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.first, 0);
  EXPECT_GT(first.second, 0);
}

TEST(CoordinatorSimTest, MoreWorkersFasterUpToSaturation) {
  const db::Schema schema = catalog::make_pq_schema();
  const auto files = make_files(8, 24 * 1024, 83);
  auto makespan_with = [&](int degree) {
    db::Engine engine(schema);
    load_reference(engine, schema);
    sim::Environment env;
    client::SimServer server(env, engine, client::ServerConfig{});
    CoordinatorOptions options;
    options.parallel_degree = degree;
    options.loader.write_audit_row = false;
    const auto report =
        LoadCoordinator::run_sim(env, server, files, schema, options);
    EXPECT_TRUE(report.is_ok());
    return report->makespan;
  };
  const Nanos serial = makespan_with(1);
  const Nanos quad = makespan_with(4);
  EXPECT_LT(quad, serial);
  // Speedup is sublinear but substantial.
  EXPECT_GT(quad, serial / 6);
  EXPECT_LT(quad, serial * 2 / 5);
}

TEST(CoordinatorSimTest, DynamicBeatsStaticOnSkewedFiles) {
  // Very skewed file sizes: dynamic assignment balances, static round-robin
  // strands one worker with the big files.
  const db::Schema schema = catalog::make_pq_schema();
  std::vector<CatalogFile> files;
  for (int f = 0; f < 8; ++f) {
    catalog::FileSpec spec;
    spec.name = "skew" + std::to_string(f);
    spec.seed = 89 + static_cast<uint64_t>(f);
    spec.unit_id = 200 + f;
    // Files 0 and 4 are 8x the size of the rest; round-robin with 4 workers
    // gives BOTH big files to worker 0.
    spec.target_bytes = (f % 4 == 0) ? 96 * 1024 : 12 * 1024;
    files.push_back(CatalogFile{
        spec.name, catalog::CatalogGenerator::generate(spec).text});
  }
  auto makespan_with = [&](bool dynamic) {
    db::Engine engine(schema);
    load_reference(engine, schema);
    sim::Environment env;
    client::SimServer server(env, engine, client::ServerConfig{});
    CoordinatorOptions options;
    options.parallel_degree = 4;
    options.dynamic_assignment = dynamic;
    options.loader.write_audit_row = false;
    const auto report =
        LoadCoordinator::run_sim(env, server, files, schema, options);
    EXPECT_TRUE(report.is_ok());
    return report->makespan;
  };
  EXPECT_LT(makespan_with(true), makespan_with(false));
}

TEST(CoordinatorSimTest, ErrorHeavyFileAbsorbedByDynamicAssignment) {
  const db::Schema schema = catalog::make_pq_schema();
  std::vector<CatalogFile> files = make_files(5, 20 * 1024, 97);
  {
    catalog::FileSpec bad;
    bad.name = "toxic.cat";
    bad.seed = 999;
    bad.unit_id = 300;
    bad.target_bytes = 20 * 1024;
    bad.error_rate = 0.5;  // slow, error-laden file
    files.push_back(CatalogFile{
        bad.name, catalog::CatalogGenerator::generate(bad).text});
  }
  db::Engine engine(schema);
  load_reference(engine, schema);
  sim::Environment env;
  client::SimServer server(env, engine, client::ServerConfig{});
  CoordinatorOptions options;
  options.parallel_degree = 3;
  options.loader.write_audit_row = false;
  const auto report =
      LoadCoordinator::run_sim(env, server, files, schema, options);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->files.size(), 6u);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  int64_t skipped = 0;
  for (const FileLoadReport& file : report->files) {
    skipped += file.total_skipped();
  }
  EXPECT_GT(skipped, 0);
}

TEST(CoordinatorSimTest, ContendedNightReportsWaitAndCommitTotals) {
  // Fewer transaction and ITL slots than workers, a commit every cycle and
  // planted parse errors: every block of the report's wait, commit and
  // parser totals is nonzero and rendered, and the rendering is
  // deterministic.
  const db::Schema schema = catalog::make_pq_schema();
  const auto files = make_files(6, 24 * 1024, 103, /*error_rate=*/0.05);
  auto run_once = [&]() {
    db::Engine engine(schema);
    load_reference(engine, schema);
    sim::Environment env;
    client::ServerConfig config;
    config.policies.concurrency.max_concurrent_transactions = 2;
    config.policies.concurrency.itl_slots_per_table = 2;
    client::SimServer server(env, engine, config);
    CoordinatorOptions options;
    options.parallel_degree = 4;
    options.loader.write_audit_row = false;
    options.loader.commit.every_cycles = 1;
    auto report =
        LoadCoordinator::run_sim(env, server, files, schema, options);
    EXPECT_TRUE(report.is_ok());
    return report.is_ok() ? *report : ParallelLoadReport{};
  };
  const ParallelLoadReport report = run_once();
  const client::SessionStats& sessions = report.sessions;
  EXPECT_GT(sessions.txn_slot_wait_time + sessions.itl_wait_time, 0);
  EXPECT_GT(sessions.commit_flushes_led + sessions.commit_piggybacks, 0);
  EXPECT_GT(report.parser.lines, 0);
  EXPECT_GT(report.parser.parse_errors, 0);

  const std::string summary = report.summary();
  const std::string markdown = render_markdown_report(report);
  EXPECT_NE(summary.find("flushes per commit"), std::string::npos);
  EXPECT_NE(summary.find("gate waits"), std::string::npos);
  EXPECT_NE(markdown.find("## Admission gates"), std::string::npos);
  EXPECT_NE(markdown.find("- parser:"), std::string::npos);

  const ParallelLoadReport again = run_once();
  EXPECT_EQ(again.summary() + render_markdown_report(again),
            summary + markdown);
}

TEST(CoordinatorThreadsTest, RerunSkipsAlreadyLoadedFiles) {
  // A restarted loading job must not duplicate work: the audit checker
  // recognizes files recorded in load_audit and skips them.
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  load_reference(engine, schema);
  const auto files = make_files(6, 16 * 1024, 271);
  CoordinatorOptions options;
  options.parallel_degree = 2;
  options.loader.write_audit_row = true;
  options.already_loaded = make_audit_checker(engine);
  const auto session_factory = [&](int) {
    return std::make_unique<client::DirectSession>(engine);
  };

  const auto first =
      LoadCoordinator::run_threads(files, schema, session_factory, options);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first->files.size(), 6u);
  EXPECT_EQ(first->files_skipped, 0);
  const int64_t rows_after_first = engine.total_rows();

  // Full re-run: everything skips, nothing changes.
  const auto second =
      LoadCoordinator::run_threads(files, schema, session_factory, options);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->files_skipped, 6);
  EXPECT_TRUE(second->files.empty());
  EXPECT_EQ(engine.total_rows(), rows_after_first);

  // Partial crash simulation: two new files join; only they load.
  auto extended = files;
  for (const auto& file : make_files(2, 16 * 1024, 999)) {
    extended.push_back(CatalogFile{"new_" + file.name, file.text});
  }
  const auto third = LoadCoordinator::run_threads(extended, schema,
                                                  session_factory, options);
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third->files_skipped, 6);
  EXPECT_EQ(third->files.size(), 2u);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

TEST(CoordinatorTest, AuditCheckerWithoutAuditTable) {
  db::Schema schema;
  db::TableDef t;
  t.name = "only";
  t.col("id", db::ColumnType::kInt64, false);
  t.primary_key = {"id"};
  ASSERT_TRUE(schema.add_table(t).is_ok());
  db::Engine engine(schema);
  const auto checker = make_audit_checker(engine);
  EXPECT_FALSE(checker("anything.cat"));  // degrades to "never loaded"
}

// --------------------------------------------------------------- tuning ---

TEST(TuningTest, ProfilesDiffer) {
  const TuningProfile production = TuningProfile::production();
  const TuningProfile untuned = TuningProfile::untuned_2004();
  EXPECT_TRUE(production.bulk);
  EXPECT_FALSE(untuned.bulk);
  EXPECT_GT(production.parallel_degree, untuned.parallel_degree);
  EXPECT_LT(production.server_cache_pages, untuned.server_cache_pages);
  EXPECT_EQ(production.device_layout.physical_devices, 3);
  EXPECT_EQ(untuned.device_layout.physical_devices, 1);
  EXPECT_FALSE(production.describe().empty());
  EXPECT_NE(production.describe(), untuned.describe());
}

TEST(TuningTest, IndexPolicyApplies) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema, TuningProfile::production().engine_options());
  ASSERT_TRUE(TuningProfile::production().apply_index_policy(engine).is_ok());
  const uint32_t objects = engine.table_id("objects").value();
  // htmid index queryable; composite index disabled.
  EXPECT_TRUE(engine.live_view()
                  .index_range(objects, catalog::kIndexHtmid,
                               {db::Value::i64(0)},
                               {db::Value::i64(INT64_MAX)})
                  .is_ok());
  EXPECT_EQ(engine.live_view()
                .index_range(objects, catalog::kIndexRaDecMag,
                             {db::Value::f64(0)}, {db::Value::f64(360)})
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sky::core
