// TimedSession: a client::Session decorator for the traced benchmark run.
//
// It forwards every call to a DirectSession over the shared engine and times
// the database calls a loader makes: execute_batch / execute_column_batch
// (the insert path) and commit. The traced run injects it through
// core::SessionFactory; untraced runs hand the coordinator plain
// DirectSessions, so the decorator costs them nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "client/session.h"

namespace sky::perfbench {

// One loader session's call timings. Written only by the session's own
// worker thread; read after LoadCoordinator::run_threads has joined it.
struct CallLog {
  std::vector<int64_t> insert_call_ns;  // per execute_batch/_column_batch
  std::vector<int64_t> commit_ns;       // per commit
  int64_t session_ns = 0;               // all time inside the calls above
  client::SessionStats stats;           // the inner session's, at close
};

class TimedSession final : public client::Session {
 public:
  TimedSession(db::Engine& engine, CallLog& log) : inner_(engine), log_(log) {}
  ~TimedSession() override { log_.stats = inner_.stats(); }
  TimedSession(const TimedSession&) = delete;
  TimedSession& operator=(const TimedSession&) = delete;

  Result<uint32_t> prepare_insert(std::string_view table_name) override {
    return inner_.prepare_insert(table_name);
  }
  client::BatchOutcome execute_batch(uint32_t table,
                                     std::span<const db::Row> rows) override {
    const auto start = Clock::now();
    client::BatchOutcome outcome = inner_.execute_batch(table, rows);
    record(log_.insert_call_ns, start);
    return outcome;
  }
  client::BatchOutcome execute_column_batch(uint32_t table,
                                            const db::ColumnBatch& batch,
                                            size_t first,
                                            size_t count) override {
    const auto start = Clock::now();
    client::BatchOutcome outcome =
        inner_.execute_column_batch(table, batch, first, count);
    record(log_.insert_call_ns, start);
    return outcome;
  }
  Status execute_single(uint32_t table, const db::Row& row) override {
    return inner_.execute_single(table, row);
  }
  Status commit() override {
    const auto start = Clock::now();
    Status status = inner_.commit();
    record(log_.commit_ns, start);
    return status;
  }
  void client_compute(Nanos duration) override {
    inner_.client_compute(duration);
  }
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override {
    inner_.note_buffered_rows(rows, footprint_bytes, columnar);
  }
  Nanos now() const override { return inner_.now(); }
  const client::SessionStats& stats() const override { return inner_.stats(); }

 private:
  using Clock = std::chrono::steady_clock;

  void record(std::vector<int64_t>& into, Clock::time_point start) {
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count();
    into.push_back(ns);
    log_.session_ns += ns;
  }

  client::DirectSession inner_;
  CallLog& log_;
};

}  // namespace sky::perfbench
