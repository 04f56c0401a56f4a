#include "db/recovery.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace sky::db {

Result<std::unique_ptr<Engine>> recover_from_wal(
    const Schema& schema, const std::vector<storage::WalRecord>& records,
    EngineOptions options, RecoveryStats* stats) {
  RecoveryStats local;
  // Pass 1: which transactions committed? (A rollback record stream undoes
  // inserts; a transaction with rollback records and no commit is simply
  // not replayed.)
  std::set<uint64_t> committed;
  std::set<uint64_t> seen;
  uint32_t max_extent = 0;
  for (const storage::WalRecord& record : records) {
    ++local.records_scanned;
    seen.insert(record.txn_id);
    if (record.type == storage::WalRecordType::kCommit) {
      committed.insert(record.txn_id);
    }
    max_extent = std::max(max_extent, record.extent);
  }
  // The recovered engine must own every extent the log references so each
  // row can be replayed into its original extent (extent-faithful redo).
  options.heap_extents = std::max(options.heap_extents, max_extent + 1);
  local.transactions_committed = static_cast<int64_t>(committed.size());
  local.transactions_discarded =
      static_cast<int64_t>(seen.size() - committed.size());

  // Pass 2: replay committed inserts in log order (which preserves the
  // original parent-before-child order). Rollback records cancel the most
  // recent pending insert of their transaction, so replay tracks a pending
  // stack per transaction... — in this engine rollback always undoes the
  // *entire* transaction (Engine::rollback), and such a transaction has no
  // commit record, so it is already excluded by pass 1.
  auto engine = std::make_unique<Engine>(schema, options);
  const uint64_t txn = engine->begin_transaction();
  std::vector<Row> rows;
  for (const storage::WalRecord& record : records) {
    // A kInsertBatch record is one column run's rows, all in record.extent;
    // kInsert (one row) is the record older logs hold. The whole record is
    // decoded before anything is replayed.
    rows.clear();
    if (record.type == storage::WalRecordType::kInsert) {
      SKY_ASSIGN_OR_RETURN(Row row, decode_row(record.payload));
      rows.push_back(std::move(row));
    } else if (record.type == storage::WalRecordType::kInsertBatch) {
      SKY_RETURN_IF_ERROR(storage::for_each_insert_batch_row(
          record.payload, [&](std::string_view bytes) -> Status {
            SKY_ASSIGN_OR_RETURN(Row row, decode_row(bytes));
            rows.push_back(std::move(row));
            return ok_status();
          }));
    } else {
      continue;
    }
    if (committed.count(record.txn_id) == 0) {
      local.rows_discarded += static_cast<int64_t>(rows.size());
      continue;
    }
    if (record.table_id >= static_cast<uint32_t>(schema.table_count())) {
      return Status(ErrorCode::kInternal,
                    "WAL replay: record references unknown table");
    }
    // One insert call per record, into the record's extent: the same
    // rows in one run reproduce the page/slot layout the load produced.
    const BatchResult replayed =
        engine->insert_batch(txn, record.table_id, rows, record.extent);
    if (replayed.error.has_value()) {
      return Status(ErrorCode::kInternal,
                    "WAL replay: committed insert failed to re-apply: " +
                        replayed.error->status.to_string());
    }
    local.rows_replayed += replayed.rows_applied;
  }
  SKY_RETURN_IF_ERROR(engine->commit(txn).status());
  if (stats != nullptr) *stats = local;
  return engine;
}

Status engines_equivalent(const Engine& a, const Engine& b) {
  if (a.schema().table_count() != b.schema().table_count()) {
    return Status(ErrorCode::kFailedPrecondition, "schema table counts differ");
  }
  const ReadView view_a = a.live_view();
  const ReadView view_b = b.live_view();
  for (uint32_t tid = 0; tid < static_cast<uint32_t>(a.schema().table_count());
       ++tid) {
    const TableDef& def = a.schema().table(tid);
    if (view_a.row_count(tid) != view_b.row_count(tid)) {
      return Status(ErrorCode::kInternal,
                    str_format("%s: row counts differ (%lld vs %lld)",
                               def.name.c_str(),
                               static_cast<long long>(view_a.row_count(tid)),
                               static_cast<long long>(view_b.row_count(tid))));
    }
    // Every row of a must exist identically in b (counts equal => bijection
    // because primary keys are unique).
    const std::vector<int> pk_columns = column_indices(def, def.primary_key);
    const std::vector<Row> rows_a =
        view_a.scan_collect(tid, [](const Row&) { return true; });
    for (const Row& row : rows_a) {
      Row pk_values;
      for (const int idx : pk_columns) {
        pk_values.push_back(row[static_cast<size_t>(idx)]);
      }
      const auto row_b = view_b.pk_lookup(tid, pk_values);
      if (!row_b.is_ok()) {
        return Status(ErrorCode::kInternal,
                      def.name + ": row missing in second engine: " +
                          row_to_display(row));
      }
      if (row_b->size() != row.size()) {
        return Status(ErrorCode::kInternal, def.name + ": row arity differs");
      }
      for (size_t c = 0; c < row.size(); ++c) {
        if (row[c].compare((*row_b)[c]) != 0) {
          return Status(ErrorCode::kInternal,
                        def.name + ": row content differs at column " +
                            def.columns[c].name);
        }
      }
    }
  }
  return ok_status();
}

}  // namespace sky::db
