// Fault injection at the session layer: infrastructure failures (I/O,
// connection loss) must abort the file load rather than being silently
// "skipped" like data errors, and a rolled-back retry must succeed.
#include <gtest/gtest.h>

#include <optional>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "core/bulk_loader.h"
#include "db/engine.h"

namespace sky::core {
namespace {

// Decorates a session: the Nth batch call (execute_batch or
// execute_column_batch) reports a given error.
class FaultySession final : public client::Session {
 public:
  FaultySession(client::Session& inner, int64_t fail_on_call, Status failure)
      : inner_(inner), fail_on_call_(fail_on_call),
        failure_(std::move(failure)) {}

  Result<uint32_t> prepare_insert(std::string_view table_name) override {
    return inner_.prepare_insert(table_name);
  }
  client::BatchOutcome execute_batch(
      uint32_t table, std::span<const db::Row> rows) override {
    if (auto fault = next_call_fault()) return *fault;
    return inner_.execute_batch(table, rows);
  }
  client::BatchOutcome execute_column_batch(uint32_t table,
                                            const db::ColumnBatch& batch,
                                            size_t first,
                                            size_t count) override {
    if (auto fault = next_call_fault()) return *fault;
    return inner_.execute_column_batch(table, batch, first, count);
  }
  Status execute_single(uint32_t table, const db::Row& row) override {
    return inner_.execute_single(table, row);
  }
  Status commit() override { return inner_.commit(); }
  void client_compute(Nanos duration) override {
    inner_.client_compute(duration);
  }
  void note_buffered_rows(int64_t rows, int64_t bytes,
                          bool columnar) override {
    inner_.note_buffered_rows(rows, bytes, columnar);
  }
  Nanos now() const override { return inner_.now(); }
  const client::SessionStats& stats() const override {
    return inner_.stats();
  }
  int64_t calls() const { return calls_; }

 private:
  // Count one batch call; the injected outcome when it is the Nth.
  std::optional<client::BatchOutcome> next_call_fault() {
    if (++calls_ != fail_on_call_) return std::nullopt;
    // Connection dropped mid-call: nothing applied, error reported.
    return client::BatchOutcome{0, db::BatchError{0, failure_}};
  }

  client::Session& inner_;
  int64_t calls_ = 0;
  int64_t fail_on_call_;
  Status failure_;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : schema_(catalog::make_pq_schema()), engine_(schema_) {
    client::DirectSession session(engine_);
    BulkLoaderOptions options;
    options.write_audit_row = false;
    BulkLoader loader(session, schema_, options);
    const auto report = loader.load_text(
        "reference", catalog::CatalogGenerator::reference_file().text);
    EXPECT_TRUE(report.is_ok());
    catalog::FileSpec spec;
    spec.seed = 90;
    spec.unit_id = 90;
    spec.target_bytes = 48 * 1024;
    file_ = catalog::CatalogGenerator::generate(spec);
  }

  db::Schema schema_;
  db::Engine engine_;
  catalog::GeneratedFile file_;
};

TEST_F(FaultInjectionTest, IoErrorAbortsTheFileLoad) {
  {
    client::DirectSession real(engine_);
    FaultySession session(real, /*fail_on_call=*/7,
                          Status(ErrorCode::kIoError, "connection reset"));
    BulkLoaderOptions options;
    options.write_audit_row = false;
    BulkLoader loader(session, schema_, options);
    const auto report = loader.load_text("net.cat", file_.text);
    ASSERT_FALSE(report.is_ok());
    EXPECT_EQ(report.status().code(), ErrorCode::kIoError);
    // The failed session's open transaction rolls back on close.
  }
  EXPECT_EQ(engine_.live_view().row_count(engine_.table_id("objects").value()), 0);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(FaultInjectionTest, RetryAfterRollbackLoadsEverything) {
  {
    client::DirectSession real(engine_);
    FaultySession session(real, 5,
                          Status(ErrorCode::kAborted, "server restarted"));
    BulkLoaderOptions options;
    options.write_audit_row = false;
    BulkLoader loader(session, schema_, options);
    ASSERT_FALSE(loader.load_text("retry.cat", file_.text).is_ok());
  }
  // Fresh session, same file: loads cleanly end to end.
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report = loader.load_text("retry.cat", file_.text);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->rows_loaded, file_.data_lines);
  EXPECT_EQ(report->total_skipped(), 0);
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(FaultInjectionTest, ResourceExhaustedAlsoAborts) {
  client::DirectSession real(engine_);
  FaultySession session(real, 2,
                        Status(ErrorCode::kResourceExhausted,
                               "too many connections"));
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  const auto report = loader.load_text("exhausted.cat", file_.text);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, ConstraintErrorsStillSkipNotAbort) {
  // Sanity contrast: data errors keep being skipped row by row.
  client::DirectSession session(engine_);
  BulkLoaderOptions options;
  options.write_audit_row = false;
  BulkLoader loader(session, schema_, options);
  catalog::FileSpec dirty;
  dirty.seed = 91;
  dirty.unit_id = 91;
  dirty.target_bytes = 48 * 1024;
  dirty.error_rate = 0.05;
  const auto generated = catalog::CatalogGenerator::generate(dirty);
  const auto report = loader.load_text("dirty.cat", generated.text);
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report->rows_skipped_server, 0);
  EXPECT_GT(report->rows_loaded, 0);
}

}  // namespace
}  // namespace sky::core
