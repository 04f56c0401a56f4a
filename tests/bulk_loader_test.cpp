// BulkLoader tests: the paper's Example 1 as a literal scenario, FK
// ordering under interleaved input, error skip-and-resume recovery, commit
// policy, the database-call count analysis of section 4.2, and loader
// completeness properties over randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "common/strings.h"
#include "client/session.h"
#include "client/sim_session.h"
#include "core/bulk_loader.h"
#include "core/non_bulk_loader.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"

namespace sky::core {
namespace {

// A minimal frames/objects world expressed in catalog syntax is not possible
// (tags map to the PQ schema), so Example 1 uses the PQ tables directly via
// hand-built text for ccd_frames/objects' ancestors plus OBJ/FRM rows.
// Simpler and closer to the paper: drive the loader with the real PQ
// generator, and use a dedicated text builder for the Example 1 scenario.

std::string example1_text(int frames, int objects_per_frame,
                          std::optional<int> duplicate_object_index) {
  // Builds a self-consistent mini catalog: TST/OBS/CCD scaffolding, then
  // `frames` FRM rows each followed by interleaved OBJ(+FNG...) rows.
  std::ostringstream out;
  out << "# example 1\n";
  out << "TST|1|10.0|0.0|50.0\n";
  out << "OBS|1|1|1|1|1|1000000|1.2|0.5\n";
  out << "CCD|10|1|5|120.0|10.0|0.873\n";
  int64_t object_id = 0;
  for (int f = 0; f < frames; ++f) {
    const int64_t frame_id = 1000 + f;
    out << "FRM|" << frame_id << "|10|1|" << f << "|2000000|60.0|1.2|20.5\n";
    for (int a = 0; a < 4; ++a) {
      out << "APR|" << frame_id * 10 + a << "|" << frame_id << "|" << a
          << "|2.5|1.8|25.0\n";
    }
    for (int i = 0; i < objects_per_frame; ++i) {
      const int64_t intended = object_id++;
      // A duplicated PK on the OBJ line; its fingers still reference the
      // intended id, which then never exists (cascading FK skips).
      const int64_t emitted =
          (duplicate_object_index.has_value() &&
           intended == *duplicate_object_index)
              ? intended - 1
              : intended;
      out << "OBJ|" << emitted << "|" << frame_id
          << "|120.100000|10.100000|19.5|0.01|100.0|2.0|0.1|10.0|10.0\n";
      for (int g = 0; g < 4; ++g) {
        out << "FNG|" << intended * 4 + g << "|" << intended << "|" << g
            << "|50.0|10|5.0\n";
      }
    }
  }
  return out.str();
}

class BulkLoaderTest : public ::testing::Test {
 protected:
  BulkLoaderTest()
      : schema_(catalog::make_pq_schema()),
        engine_(schema_, [] {
          db::EngineOptions options;
          options.retain_wal_records = false;
          return options;
        }()) {
    // Reference tables must exist before nightly loads.
    client::DirectSession session(engine_);
    BulkLoaderOptions options;
    options.write_audit_row = false;
    BulkLoader loader(session, schema_, options);
    const auto report = loader.load_text(
        "reference", catalog::CatalogGenerator::reference_file().text);
    EXPECT_TRUE(report.is_ok());
    EXPECT_EQ(report->total_skipped(), 0);
  }

  int64_t count(const char* table) {
    return engine_.live_view().row_count(engine_.table_id(table).value());
  }

  db::Schema schema_;
  db::Engine engine_;
};

// ------------------------------------------------------ paper's Example 1 ---

TEST_F(BulkLoaderTest, Example1InterleavedTwoTablesLoadCleanly) {
  // 5 frames and 1000 objects interleaved; array-size 1000, batch-size 40.
  // The objects array fills first, yet frames must load before objects.
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.batch_size = 40;
  options.array_config.default_rows = 1000;
  options.write_audit_row = false;

  std::vector<std::pair<uint32_t, uint64_t>> insert_order;
  engine_.set_insert_observer([&](uint32_t table, uint64_t row_id) {
    insert_order.emplace_back(table, row_id);
  });

  BulkLoader loader(session, schema_, options);
  const auto report =
      loader.load_text("example1", example1_text(5, 200, std::nullopt));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->total_skipped(), 0) << report->summary();
  EXPECT_EQ(count("ccd_frames"), 5);
  EXPECT_EQ(count("objects"), 1000);

  // Parent-before-child: within the observed insert stream, every frames
  // insert precedes every objects insert of its flush cycle; globally the
  // first objects insert comes after the first frames insert.
  const uint32_t frames_id = engine_.table_id("ccd_frames").value();
  const uint32_t objects_id = engine_.table_id("objects").value();
  ptrdiff_t first_frame = -1, first_object = -1;
  for (size_t i = 0; i < insert_order.size(); ++i) {
    if (insert_order[i].first == frames_id && first_frame < 0) {
      first_frame = static_cast<ptrdiff_t>(i);
    }
    if (insert_order[i].first == objects_id && first_object < 0) {
      first_object = static_cast<ptrdiff_t>(i);
    }
  }
  ASSERT_GE(first_frame, 0);
  ASSERT_GE(first_object, 0);
  EXPECT_LT(first_frame, first_object);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(BulkLoaderTest, Example1ErrorAtRow45SkipsExactlyThatRow) {
  // Paper walk-through: with batch-size 40, an error at (0-based) row 44 of
  // the objects array inserts rows 1-40, then 41-44, skips row 45, and
  // resumes with 46-85 and so on. We inject a duplicate PK at object #44.
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.batch_size = 40;
  options.array_config.default_rows = 1000;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report =
      loader.load_text("example1-error", example1_text(5, 200, 44));
  ASSERT_TRUE(report.is_ok());
  // Exactly one object skipped; its four fingers dangle and are skipped too.
  EXPECT_EQ(count("objects"), 999);
  EXPECT_EQ(report->rows_skipped_server, 1 + 4);
  ASSERT_GE(report->errors.size(), 1u);
  EXPECT_EQ(report->errors[0].table, "objects");
  EXPECT_EQ(report->errors[0].status.code(),
            ErrorCode::kConstraintPrimaryKey);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

// ------------------------------------------------- call-count analysis ---

TEST_F(BulkLoaderTest, BestCaseCallCountIsRowsOverBatchSize) {
  // Section 4.2: error-free loading makes ceil(rows/batch) calls per array
  // per cycle (plus the commit). Single table, one cycle.
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.batch_size = 40;
  options.array_config.default_rows = 10000;  // one flush cycle at EOF
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report =
      loader.load_text("callcount", example1_text(4, 100, std::nullopt));
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report->total_skipped(), 0);
  // Expected: per-table ceil(rows/40) calls in one cycle.
  int64_t expected_calls = 0;
  for (const auto& [table, rows] : report->loaded_per_table) {
    expected_calls += (rows + 39) / 40;
  }
  EXPECT_EQ(report->db_calls, expected_calls);
  EXPECT_EQ(report->flush_cycles, 1);
}

TEST_F(BulkLoaderTest, WorstCaseDegeneratesTowardSingletons) {
  // Load the same text twice: on the second pass every row is a duplicate
  // PK, so every batch break-up yields one extra call per row region —
  // approaching one call per row (the paper's worst-case analysis).
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.batch_size = 40;
  options.array_config.default_rows = 10000;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const std::string text = example1_text(2, 100, std::nullopt);
  const auto first = loader.load_text("pass1", text);
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first->total_skipped(), 0);

  const auto second = loader.load_text("pass2", text);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->rows_loaded, 0);
  EXPECT_EQ(second->rows_skipped_server, second->rows_parsed);
  // Every row produced (at least) one database call.
  EXPECT_GE(second->db_calls, second->rows_parsed);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

// -------------------------------------------------------- commit policy ---

TEST_F(BulkLoaderTest, CommitPolicyPerCycles) {
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.batch_size = 40;
  options.array_config.default_rows = 100;  // many cycles
  options.commit.every_cycles = 2;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report =
      loader.load_text("commits", example1_text(4, 200, std::nullopt));
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report->flush_cycles, 4);
  // Mid-file commits plus the end-of-file commit.
  EXPECT_GE(report->commits, report->flush_cycles / 2);
  EXPECT_GT(engine_.stats().wal.flushes, 2);
}

TEST_F(BulkLoaderTest, AuditRowWrittenPerFile) {
  client::DirectSession session(engine_);
  BulkLoaderOptions options;  // audit on by default
  BulkLoader loader(session, schema_, options);
  const auto report =
      loader.load_text("audited.cat", example1_text(1, 10, std::nullopt));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(count("load_audit"), 1);
  const auto audits = engine_.live_view().scan_collect(
      engine_.table_id("load_audit").value(),
      [](const db::Row&) { return true; });
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_EQ(audits[0][1].as_str(), "audited.cat");
  EXPECT_EQ(audits[0][2].as_i64(), report->rows_loaded);
}

// -------------------------------------------- generated-catalog loading ---

TEST_F(BulkLoaderTest, CleanGeneratedFileLoadsCompletely) {
  catalog::FileSpec spec;
  spec.seed = 41;
  spec.unit_id = 11;
  spec.target_bytes = 128 * 1024;
  const auto file = catalog::CatalogGenerator::generate(spec);

  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report = loader.load_text("clean.cat", file.text);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->total_skipped(), 0) << report->summary();
  EXPECT_EQ(report->rows_loaded, file.data_lines);
  // Every table's loaded count matches the generator's clean count.
  for (const auto& [table, clean_rows] : file.clean_rows_per_table) {
    EXPECT_EQ(report->loaded_per_table.at(table), clean_rows) << table;
  }
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

struct ErrorRateParams {
  uint64_t seed;
  double error_rate;
  int64_t batch_size;
  int64_t array_size;
};

class LoaderCompleteness : public ::testing::TestWithParam<ErrorRateParams> {};

// The central property: every parsed row either lands in the database or is
// reported as exactly one error; the repository's integrity invariants hold
// regardless of error rate, batch size, or array size.
TEST_P(LoaderCompleteness, EveryRowLoadedOrReported) {
  const auto& params = GetParam();
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  client::DirectSession ref_session(engine);
  {
    BulkLoaderOptions ref_options;
    ref_options.write_audit_row = false;
    BulkLoader ref_loader(ref_session, schema, ref_options);
    ASSERT_TRUE(ref_loader
                    .load_text("reference",
                               catalog::CatalogGenerator::reference_file().text)
                    .is_ok());
  }

  catalog::FileSpec spec;
  spec.seed = params.seed;
  spec.unit_id = 21;
  spec.target_bytes = 96 * 1024;
  spec.error_rate = params.error_rate;
  const auto file = catalog::CatalogGenerator::generate(spec);

  client::DirectSession session(engine);
  BulkLoaderOptions options;
  options.batch_size = params.batch_size;
  options.array_config.default_rows = params.array_size;
  options.write_audit_row = false;
  options.max_error_details = 1 << 20;
  BulkLoader loader(session, schema, options);
  const auto report = loader.load_text("errors.cat", file.text);
  ASSERT_TRUE(report.is_ok());

  // Conservation: parsed rows = loaded + server-skipped; data lines =
  // parsed + parse errors.
  EXPECT_EQ(report->rows_parsed + report->parse_errors, file.data_lines);
  EXPECT_EQ(report->rows_loaded + report->rows_skipped_server,
            report->rows_parsed);
  // Each skip has a detail record (no cap hit in this test).
  EXPECT_EQ(static_cast<int64_t>(report->errors.size()),
            report->total_skipped());
  if (params.error_rate == 0.0) {
    EXPECT_EQ(report->total_skipped(), 0);
  } else {
    EXPECT_GE(report->total_skipped(), file.injected_errors);
  }
  // The repository never contains a constraint-violating row.
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Rates, LoaderCompleteness,
    ::testing::Values(ErrorRateParams{50, 0.0, 40, 1000},
                      ErrorRateParams{51, 0.01, 40, 1000},
                      ErrorRateParams{52, 0.05, 40, 250},
                      ErrorRateParams{53, 0.10, 10, 100},
                      ErrorRateParams{54, 0.25, 7, 333},
                      ErrorRateParams{55, 0.05, 1, 50},
                      ErrorRateParams{56, 0.05, 200, 4000}));

// The same completeness property, in simulation mode: virtual-time
// execution must not change which rows load or how errors are reported.
class SimLoaderCompleteness
    : public ::testing::TestWithParam<ErrorRateParams> {};

TEST_P(SimLoaderCompleteness, SimModeConservesRows) {
  const auto& params = GetParam();
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  sim::Environment env;
  client::SimServer server(env, engine, client::ServerConfig{});

  catalog::FileSpec spec;
  spec.seed = params.seed;
  spec.unit_id = 61;
  spec.target_bytes = 64 * 1024;
  spec.error_rate = params.error_rate;
  const auto file = catalog::CatalogGenerator::generate(spec);

  FileLoadReport report;
  env.spawn("loader", [&] {
    client::SimSession session(server);
    BulkLoaderOptions reference_options;
    reference_options.write_audit_row = false;
    BulkLoader reference_loader(session, schema, reference_options);
    ASSERT_TRUE(reference_loader
                    .load_text("reference",
                               catalog::CatalogGenerator::reference_file().text)
                    .is_ok());
    BulkLoaderOptions options;
    options.batch_size = params.batch_size;
    options.array_config.default_rows = params.array_size;
    options.write_audit_row = false;
    options.max_error_details = 1 << 20;
    BulkLoader loader(session, schema, options);
    auto result = loader.load_text("sim.cat", file.text);
    ASSERT_TRUE(result.is_ok());
    report = std::move(*result);
  });
  env.run();

  EXPECT_EQ(report.rows_parsed + report.parse_errors, file.data_lines);
  EXPECT_EQ(report.rows_loaded + report.rows_skipped_server,
            report.rows_parsed);
  EXPECT_EQ(static_cast<int64_t>(report.errors.size()),
            report.total_skipped());
  EXPECT_GT(report.elapsed, 0);  // virtual time moved
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Rates, SimLoaderCompleteness,
    ::testing::Values(ErrorRateParams{80, 0.0, 40, 1000},
                      ErrorRateParams{81, 0.05, 40, 1000},
                      ErrorRateParams{82, 0.15, 13, 500},
                      ErrorRateParams{83, 0.05, 80, 2500}));

// NonBulkLoader is the reference implementation: the line parser and one
// database call per row, in file order. The bulk pipeline (block parse,
// per-table column buffers, parent-first batches, skip-and-repack) at the
// production sizes must leave a byte-identical repository on the same
// corrupted input (extent/page/slot and encoded bytes per table), with the
// same report counters, the same error messages and the same parser line
// and row counts.
void expect_bulk_matches_non_bulk(const std::string& text) {
  const db::Schema schema = catalog::make_pq_schema();
  const std::string reference =
      catalog::CatalogGenerator::reference_file().text;

  struct Snapshot {
    FileLoadReport report;
    catalog::ParserStats stats;
    // Per table: (extent, page, slot, encoded row bytes) in physical order.
    std::map<std::string,
             std::vector<std::tuple<uint32_t, uint32_t, uint32_t, std::string>>>
        heap;
    // (stage, table, line, message) of every skipped row, sorted: the
    // non-bulk loader reports in file order, the bulk loader per batch, and
    // only parse errors carry a line number in both.
    std::vector<std::tuple<int, std::string, int64_t, std::string>> errors;
  };
  auto load_with = [&](bool bulk) {
    db::Engine engine(schema);
    client::DirectSession session(engine);
    BulkLoaderOptions ref_options;
    ref_options.write_audit_row = false;
    BulkLoader ref_loader(session, schema, ref_options);
    EXPECT_TRUE(ref_loader.load_text("reference", reference).is_ok());

    Snapshot snap;
    if (bulk) {
      BulkLoaderOptions options = TuningProfile::production().bulk_options();
      options.write_audit_row = false;
      options.max_error_details = 1 << 20;
      BulkLoader loader(session, schema, options);
      const auto report = loader.load_text("diff.cat", text);
      EXPECT_TRUE(report.is_ok());
      snap.report = *report;
      snap.stats = loader.parser_stats();
    } else {
      NonBulkLoaderOptions options;
      options.max_error_details = 1 << 20;
      NonBulkLoader loader(session, schema, options);
      const auto report = loader.load_text("diff.cat", text);
      EXPECT_TRUE(report.is_ok());
      snap.report = *report;
      snap.stats = loader.parser_stats();
    }
    EXPECT_TRUE(engine.verify_integrity().is_ok());
    for (const auto& table : schema.tables()) {
      const uint32_t table_id = engine.table_id(table.name).value();
      auto& rows = snap.heap[table.name];
      EXPECT_TRUE(engine.live_view()
                      .scan_heap(table_id,
                                 [&](storage::SlotId slot,
                                     std::string_view bytes) {
                                   rows.emplace_back(slot.extent, slot.page,
                                                     slot.slot,
                                                     std::string(bytes));
                                 })
                      .is_ok());
    }
    for (const LoadError& error : snap.report.errors) {
      snap.errors.emplace_back(
          static_cast<int>(error.stage), error.table,
          error.stage == LoadError::Stage::kParse ? error.line_number : 0,
          error.status.to_string());
    }
    std::sort(snap.errors.begin(), snap.errors.end());
    return snap;
  };

  const Snapshot reference_load = load_with(/*bulk=*/false);
  const Snapshot bulk = load_with(/*bulk=*/true);

  // Same rows loaded, same rows rejected, at both stages.
  EXPECT_EQ(bulk.report.rows_parsed, reference_load.report.rows_parsed);
  EXPECT_EQ(bulk.report.parse_errors, reference_load.report.parse_errors);
  EXPECT_EQ(bulk.report.rows_loaded, reference_load.report.rows_loaded);
  EXPECT_EQ(bulk.report.rows_skipped_server,
            reference_load.report.rows_skipped_server);
  EXPECT_EQ(bulk.report.loaded_per_table,
            reference_load.report.loaded_per_table);
  EXPECT_GT(bulk.report.rows_skipped_server, 0);  // errors exercised
  EXPECT_GT(bulk.report.parse_errors, 0);
  EXPECT_EQ(bulk.errors, reference_load.errors);

  // The block parser saw the same file the line parser did.
  EXPECT_EQ(bulk.stats.lines, reference_load.stats.lines);
  EXPECT_EQ(bulk.stats.data_rows, reference_load.stats.data_rows);
  EXPECT_EQ(bulk.stats.comment_lines, reference_load.stats.comment_lines);
  EXPECT_EQ(bulk.stats.parse_errors, reference_load.stats.parse_errors);
  EXPECT_EQ(bulk.stats.htmids_computed, reference_load.stats.htmids_computed);

  // Physically identical heaps: same extent, page, slot, and bytes.
  for (const auto& [table, expected] : reference_load.heap) {
    EXPECT_EQ(bulk.heap.at(table), expected) << table;
  }
}

TEST(LoaderEquivalenceTest, BulkMatchesNonBulkExactly) {
  catalog::FileSpec spec;
  spec.seed = 71;
  spec.unit_id = 33;
  spec.target_bytes = 96 * 1024;
  spec.error_rate = 0.05;
  {
    SCOPED_TRACE("generated detail-row errors");
    expect_bulk_matches_non_bulk(catalog::CatalogGenerator::generate(spec).text);
  }

  // Dirtier: every generator error kind on every table (structural rows
  // too), scrambled object ids, so each object batch holds many descending
  // runs, and each 40th OBJ line repeated, once on the next line (an
  // adjacent in-batch duplicate key) and once 300 lines on (a far one).
  spec.seed = 72;
  spec.error_rate = 0.08;
  spec.restrict_errors_to_detail_rows = false;
  spec.shuffle_object_ids = true;
  const std::string generated = catalog::CatalogGenerator::generate(spec).text;
  std::vector<std::string> lines;
  for (const std::string_view line : split_view(generated, '\n')) {
    lines.emplace_back(line);
  }
  std::multimap<size_t, std::string> repeats;  // insert before line index
  size_t objects = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("OBJ|", 0) != 0 || objects++ % 40 != 0) continue;
    repeats.emplace(i + 1, lines[i]);
    repeats.emplace(i + 300, lines[i]);
  }
  std::string dirty;
  for (size_t i = 0; i <= lines.size(); ++i) {
    for (auto [it, end] = repeats.equal_range(i); it != end; ++it) {
      dirty += it->second;
      dirty += '\n';
    }
    if (i < lines.size() && !lines[i].empty()) {
      dirty += lines[i];
      dirty += '\n';
    }
  }
  {
    SCOPED_TRACE("every error kind, scrambled ids, repeated keys");
    expect_bulk_matches_non_bulk(dirty);
  }
}

}  // namespace
}  // namespace sky::core
