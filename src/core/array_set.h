// array-set: the buffering data structure at the heart of SkyLoader
// (paper section 4.3).
//
// A dynamically maintained set of two-dimensional arrays — one per
// destination table, rows by attributes, stored column-wise in arena-backed
// db::ColumnBatch buffers — created on demand as interleaved catalog rows
// are parsed, and emptied at the end of each bulk-loading cycle (the
// buffers keep their capacity for the next cycle). Buffering rows per table
// is what lets the loader
// issue bulk inserts in parent-before-child order despite the interleaved
// input, and random access into the source array is what makes skip-one-row
// error recovery possible.
//
// Extensions the paper lists as future work, implemented here:
//   * per-table row capacities from a configuration file ([array_set]
//     section: default_rows plus <table> = <rows> overrides),
//   * an aggregate "memory high water mark" that triggers bulk loading when
//     the cached arrays' total footprint reaches a byte budget.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "db/column_batch.h"
#include "db/schema.h"

namespace sky::core {

class ArraySet {
 public:
  struct Config {
    int64_t default_rows = 1000;  // the paper's array-size constant
    std::map<std::string, int64_t> per_table_rows;
    // If set, a flush also triggers when the aggregate buffered footprint
    // reaches this many bytes.
    std::optional<int64_t> memory_high_water_bytes;

    // Overlay settings from a config file's [array_set] section:
    //   default_rows = 1000
    //   memory_high_water_bytes = 2000000
    //   objects = 4000            # per-table override
    static Result<Config> from_config(const sky::Config& file,
                                      const db::Schema& schema);
  };

  ArraySet(const db::Schema& schema, Config config);

  // Merge a parser block's batch for `table_id` into that table's column
  // buffer, creating the buffer if these are the first rows seen for the
  // table this cycle. Returns true if the append filled any buffer to
  // capacity (or hit the high-water mark): time to bulk load.
  bool append_batch(uint32_t table_id, const db::ColumnBatch& batch);

  bool should_flush() const { return flush_needed_; }

  // Column buffers in parent-before-child order; fn(table_id, batch).
  template <typename Fn>
  void for_each_batch_in_topo_order(Fn&& fn) const {
    for (uint32_t table_id = 0;
         table_id < static_cast<uint32_t>(batches_.size()); ++table_id) {
      const auto& batch = batches_[table_id];
      if (batch.has_value() && !batch->empty()) fn(table_id, *batch);
    }
  }

  // Destroy all buffers and release their memory.
  void clear();

  // End-of-cycle reset: drop every buffered row but keep each column
  // buffer's layout and capacity (arena reuse across cycles). The buffers
  // are bounded by the array capacities and the high-water budget, so
  // retaining them does not grow the client footprint.
  void clear_keep_buffers();

  int64_t buffered_rows() const { return buffered_rows_; }
  int64_t footprint_bytes() const { return footprint_bytes_; }
  // Buffers holding rows this cycle (depends on how interleaved the input
  // is).
  int active_arrays() const;
  int64_t capacity_for(uint32_t table_id) const {
    return capacities_[table_id];
  }

 private:
  // Column buffers, by table id.
  std::vector<std::optional<db::ColumnBatch>> batches_;
  std::vector<const db::TableDef*> table_defs_;  // batch construction
  std::vector<int64_t> capacities_;                          // by table id
  std::optional<int64_t> high_water_bytes_;
  int64_t buffered_rows_ = 0;
  int64_t footprint_bytes_ = 0;
  bool flush_needed_ = false;
};

}  // namespace sky::core
