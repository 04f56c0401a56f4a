// ReadView: the one read handle over the engine.
//
// A ReadView is constructed live or over a pinned snapshot:
//
//   db::ReadView live = engine.live_view();        // latch-shared, freshest
//   db::Snapshot snap = engine.pin_snapshot();
//   db::ReadView pinned = engine.view_at(snap);    // latch-free, committed
//                                                  // prefix at pin time
//
// Operators written against ReadView (spatial::cone_search,
// spatial::xmatch, the query planner) serve both modes for free, and
// QueryScheduler::Admission::view() hands an admitted query its pinned
// snapshot.
//
// Inside, each range read is a resolver over one range primitive. The
// resolver checks the table id, finds the secondary index by name and
// encodes the bounds; it reads only immutable schema and key layout, so it
// takes no lock in either mode. The primitive has a live half (engine
// rwlock shared, the index's enabled flag, index latch shared, tree range)
// and a snapshot half (the pinned chunks' key runs, latch-free). The heap
// scans share one heap-order visit with the same two halves.
//
// A ReadView is a non-owning handle: it must not outlive the engine, and a
// snapshot view must not outlive the Snapshot it was constructed from (the
// typical shape — pin, build the view, query, drop both — makes this
// natural). Copying a view is free; it carries no state beyond the two
// pointers.
//
// Error contract: argument errors (bad table id, unknown index, PK arity)
// carry the same code and message in both modes. Reads over an unavailable
// secondary index fail closed with the same canonical code in both modes —
// kFailedPrecondition — but each mode judges availability its own way: live
// when the index is disabled right now, snapshot when a visible chunk was
// committed while it was disabled. See index_unavailable_error in engine.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "db/op_costs.h"
#include "db/row.h"
#include "storage/sharded_heap.h"

namespace sky::db {

class Engine;
class Snapshot;
class Table;

class ReadView {
 public:
  // An empty view; every query on it fails with kFailedPrecondition.
  ReadView() = default;

  bool valid() const { return engine_ != nullptr; }

  // Rows of the table visible to this view.
  int64_t row_count(uint32_t table_id) const;
  // Look up one row by full primary key.
  Result<Row> pk_lookup(uint32_t table_id, const Row& pk_values) const;
  // All rows whose PK is in [lo, hi) — keys built from value tuples; an
  // empty `hi` tuple means unbounded.
  Result<std::vector<Row>> pk_range(uint32_t table_id, const Row& lo,
                                    const Row& hi) const;
  // Range over a secondary index: [lo, hi) on the indexed columns. On an
  // HTM-keyed index (IndexDef::htm) the tuples are single int64 trixel ids,
  // not (ra, dec) pairs. An empty `hi` tuple means unbounded.
  Result<std::vector<Row>> index_range(uint32_t table_id,
                                       std::string_view index_name,
                                       const Row& lo, const Row& hi) const;
  // Encoded-key ranges for the query planner: [lo, hi) over pre-encoded
  // keys (index::KeyEncoder order); empty `hi` means unbounded.
  Result<std::vector<Row>> pk_encoded_range(uint32_t table_id,
                                            const std::string& lo,
                                            const std::string& hi) const;
  Result<std::vector<Row>> index_encoded_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const std::string& lo,
                                               const std::string& hi) const;
  // Full scan with predicate, in heap order. `costs` (optional) tallies
  // rows visited (rows_applied) and heap bytes decoded.
  std::vector<Row> scan_collect(uint32_t table_id,
                                const std::function<bool(const Row&)>& pred,
                                OpCosts* costs = nullptr) const;
  // Physical visit in heap order (extent, page, slot ascending).
  Status scan_heap(
      uint32_t table_id,
      const std::function<void(storage::SlotId, std::string_view)>& fn) const;

 private:
  friend class Engine;
  ReadView(const Engine* engine, const Snapshot* snap)
      : engine_(engine), snap_(snap) {}

  // The table behind `table_id`; fails on an empty view or a bad id.
  Result<const Table*> resolve_table(uint32_t table_id) const;
  // The range primitive: rows with encoded key in [lo, hi) (empty `hi` =
  // unbounded) over the PK (secondary < 0) or the table's secondary index
  // at that position, in key order.
  Result<std::vector<Row>> range(const Table& table, int secondary,
                                 const std::string& lo,
                                 const std::string& hi) const;
  // The heap-order visit behind scan_heap and scan_collect (defined and
  // instantiated in read_view.cpp only).
  template <typename Fn>  // Fn(storage::SlotId, std::string_view)
  Status visit_heap(uint32_t table_id, Fn&& fn) const;

  const Engine* engine_ = nullptr;
  const Snapshot* snap_ = nullptr;
};

}  // namespace sky::db
