// SimSession: a loader's connection to the SimServer, in virtual time.
//
// Must be used from within a sim::Environment process. Each database call
// walks the full path: client marshalling -> wire -> transaction/ITL slots
// -> server CPU -> real engine work -> priced server time -> device I/O ->
// reply. The loader code on top is identical to real mode.
#pragma once

#include <functional>

#include "client/session.h"
#include "client/sim_server.h"

namespace sky::client {

class SimSession final : public Session {
 public:
  explicit SimSession(SimServer& server);
  ~SimSession() override;

  Result<uint32_t> prepare_insert(std::string_view table_name) override;
  BatchOutcome execute_batch(uint32_t table,
                             std::span<const db::Row> rows) override;
  // Column batches walk the same server path and are priced like a row
  // batch of the same size.
  BatchOutcome execute_column_batch(uint32_t table,
                                    const db::ColumnBatch& batch, size_t first,
                                    size_t count) override;
  Status execute_single(uint32_t table, const db::Row& row) override;
  Status commit() override;
  void client_compute(Nanos duration) override;
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override;
  Nanos now() const override;
  const SessionStats& stats() const override { return stats_; }

 private:
  uint64_t ensure_transaction();
  // Charge device time for the call's I/O tally (queues on each involved
  // physical device in turn).
  void charge_io(const storage::IoTally& io);
  // Charge a commit's redo flush through the server's log-device group
  // model (lead a flush — window wait included — or ride one in flight).
  void charge_log_flush(int64_t bytes);
  // One server visit for a call carrying `rows` rows: charges the client
  // marshalling, walks the gates, runs `engine_call` on a node CPU, prices
  // its OpCosts, then I/O and the reply.
  db::BatchResult server_visit(
      uint32_t table, int64_t rows,
      const std::function<db::BatchResult(uint64_t)>& engine_call);

  SimServer& server_;
  int node_ = 0;  // cluster node this session is attached to
  std::optional<uint64_t> txn_;
  SessionStats stats_;
  Nanos start_time_ = 0;
};

}  // namespace sky::client
