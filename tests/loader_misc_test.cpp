// Coverage for the remaining loader-adjacent surfaces: file-based loading,
// non-bulk commit policy, report merging and rendering, tuning profile
// plumbing, row-id packing, and config file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "core/bulk_loader.h"
#include "core/non_bulk_loader.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/table.h"

namespace sky::core {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("skyloader_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::filesystem::path path(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

TEST(LoadPathTest, LoadsFromDisk) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  client::DirectSession session(engine);
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema, options);

  TempDir dir;
  const auto ref_path = dir.path("reference.cat");
  {
    std::ofstream out(ref_path, std::ios::binary);
    out << catalog::CatalogGenerator::reference_file().text;
  }
  const auto report = loader.load_path(ref_path.string());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report->rows_loaded, 0);
  EXPECT_EQ(report->total_skipped(), 0);
}

TEST(LoadPathTest, MissingFileIsIoError) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  client::DirectSession session(engine);
  BulkLoader loader(session, schema, BulkLoaderOptions{});
  EXPECT_EQ(loader.load_path("/nonexistent/file.cat").status().code(),
            ErrorCode::kIoError);
}

TEST(NonBulkLoaderTest, CommitEveryRows) {
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  client::DirectSession session(engine);
  {
    BulkLoaderOptions ref_options;
    ref_options.write_audit_row = false;
    BulkLoader ref(session, schema, ref_options);
    ASSERT_TRUE(ref.load_text("reference",
                              catalog::CatalogGenerator::reference_file().text)
                    .is_ok());
  }
  catalog::FileSpec spec;
  spec.seed = 71;
  spec.unit_id = 71;
  spec.target_bytes = 32 * 1024;
  const auto file = catalog::CatalogGenerator::generate(spec);
  NonBulkLoaderOptions options;
  options.commit.every_rows = 100;
  NonBulkLoader loader(session, schema, options);
  const auto report = loader.load_text("f.cat", file.text);
  ASSERT_TRUE(report.is_ok());
  EXPECT_GE(report->commits, report->rows_loaded / 100);
  EXPECT_EQ(report->rows_loaded, file.data_lines);
  EXPECT_GT(engine.stats().wal.flushes, 3);
}

TEST(LoadReportTest, MergeCountsAndSummary) {
  FileLoadReport a;
  a.file_name = "a";
  a.bytes = 100;
  a.rows_parsed = 10;
  a.rows_loaded = 8;
  a.rows_skipped_server = 2;
  a.loaded_per_table["objects"] = 8;
  a.db_calls = 3;
  FileLoadReport b;
  b.bytes = 200;
  b.rows_parsed = 20;
  b.parse_errors = 1;
  b.rows_loaded = 20;
  b.loaded_per_table["objects"] = 15;
  b.loaded_per_table["fingers"] = 5;
  a.merge_counts(b);
  EXPECT_EQ(a.bytes, 300);
  EXPECT_EQ(a.rows_loaded, 28);
  EXPECT_EQ(a.total_skipped(), 3);
  EXPECT_EQ(a.loaded_per_table["objects"], 23);
  EXPECT_EQ(a.loaded_per_table["fingers"], 5);
  const std::string summary = a.summary();
  EXPECT_NE(summary.find("28 rows loaded"), std::string::npos);
  EXPECT_NE(summary.find("3 skipped"), std::string::npos);
}

TEST(LoadReportTest, MarkdownRendering) {
  ParallelLoadReport report;
  report.workers = 2;
  report.makespan = 2 * kSecond;
  report.total_bytes = 4'000'000;
  report.total_rows_loaded = 1234;
  report.worker_busy = {kSecond, 2 * kSecond};
  report.files_per_worker = {1, 2};
  FileLoadReport file;
  file.file_name = "x.cat";
  file.loaded_per_table["objects"] = 1234;
  file.errors.push_back(LoadError{LoadError::Stage::kServer, "objects", 5,
                                  "(1, 2)",
                                  Status(ErrorCode::kConstraintPrimaryKey,
                                         "dup")});
  report.files.push_back(file);
  const std::string markdown = render_markdown_report(report);
  EXPECT_NE(markdown.find("# Load report"), std::string::npos);
  EXPECT_NE(markdown.find("| objects | 1234 |"), std::string::npos);
  EXPECT_NE(markdown.find("## Worker balance"), std::string::npos);
  EXPECT_NE(markdown.find("PRIMARY_KEY_VIOLATION"), std::string::npos);
  EXPECT_NE(markdown.find("2.00 MB/s"), std::string::npos);
}

TEST(TuningProfileTest, OptionMappings) {
  const TuningProfile production = TuningProfile::production();
  const auto server_config = production.server_config();
  EXPECT_EQ(server_config.cache_pages, production.server_cache_pages);
  EXPECT_EQ(server_config.device_layout.physical_devices, 3);
  const auto bulk = production.bulk_options();
  EXPECT_EQ(bulk.batch_size, 4000);
  EXPECT_EQ(bulk.array_config.default_rows, 4000);
  EXPECT_EQ(bulk.array_config.memory_high_water_bytes, 600 * 1024);
  EXPECT_EQ(bulk.commit.every_cycles, 0);

  // The paper's section 4.5 sizes, with no high-water mark.
  const auto paper = TuningProfile::paper_2005().bulk_options();
  EXPECT_EQ(paper.batch_size, 40);
  EXPECT_EQ(paper.array_config.default_rows, 1000);
  EXPECT_FALSE(paper.array_config.memory_high_water_bytes.has_value());

  const TuningProfile untuned = TuningProfile::untuned_2004();
  EXPECT_EQ(untuned.bulk_options().batch_size, 1);  // non-bulk => batch 1
  EXPECT_EQ(untuned.server_config().device_layout.physical_devices, 1);
}

TEST(RowIdTest, PackingRoundTrips) {
  using db::make_row_id;
  using db::row_id_slot;
  using db::row_id_table;
  const storage::SlotId slot{13, 123456, 789};
  const uint64_t row_id = make_row_id(42, slot);
  EXPECT_EQ(row_id_table(row_id), 42u);
  EXPECT_EQ(row_id_slot(row_id).extent, 13u);
  EXPECT_EQ(row_id_slot(row_id).page, 123456u);
  EXPECT_EQ(row_id_slot(row_id).slot, 789u);
  // Extremes: 12 table | 8 extent | 24 page | 20 slot bits.
  const storage::SlotId big{0xFFu, 0xFFFFFFu, 0xFFFFFu};
  const uint64_t max_id = make_row_id(0xFFF, big);
  EXPECT_EQ(max_id, ~0ull);
  EXPECT_EQ(row_id_table(max_id), 0xFFFu);
  EXPECT_EQ(row_id_slot(max_id).extent, 0xFFu);
  EXPECT_EQ(row_id_slot(max_id).page, 0xFFFFFFu);
  EXPECT_EQ(row_id_slot(max_id).slot, 0xFFFFFu);
}

TEST(ConfigFileTest, LoadFromDisk) {
  TempDir dir;
  const auto path = dir.path("skyloader.ini");
  {
    std::ofstream out(path);
    out << "[array_set]\ndefault_rows = 123\n";
  }
  const auto config = Config::load_file(path.string());
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config->get_int("array_set", "default_rows", -1), 123);
  EXPECT_EQ(Config::load_file("/no/such/file.ini").status().code(),
            ErrorCode::kIoError);
}

TEST(GeneratorTest, ReferenceFileIsDeterministic) {
  EXPECT_EQ(catalog::CatalogGenerator::reference_file().text,
            catalog::CatalogGenerator::reference_file().text);
}

}  // namespace
}  // namespace sky::core
