#include "core/array_set.h"

namespace sky::core {

Result<ArraySet::Config> ArraySet::Config::from_config(
    const sky::Config& file, const db::Schema& schema) {
  Config config;
  config.default_rows = file.get_int("array_set", "default_rows", 1000);
  if (config.default_rows <= 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "array_set.default_rows must be positive");
  }
  if (file.has("array_set", "memory_high_water_bytes")) {
    config.memory_high_water_bytes =
        file.get_int("array_set", "memory_high_water_bytes", 0);
    if (*config.memory_high_water_bytes <= 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "array_set.memory_high_water_bytes must be positive");
    }
  }
  for (const std::string& key : file.keys("array_set")) {
    if (key == "default_rows" || key == "memory_high_water_bytes") continue;
    if (!schema.has_table(key)) {
      return Status(ErrorCode::kInvalidArgument,
                    "array_set config references unknown table: " + key);
    }
    const int64_t rows = file.get_int("array_set", key, 0);
    if (rows <= 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "array_set." + key + " must be positive");
    }
    config.per_table_rows[key] = rows;
  }
  return config;
}

ArraySet::ArraySet(const db::Schema& schema, Config config)
    : high_water_bytes_(config.memory_high_water_bytes) {
  const auto table_count = static_cast<size_t>(schema.table_count());
  batches_.resize(table_count);
  table_defs_.reserve(table_count);
  for (uint32_t id = 0; id < static_cast<uint32_t>(table_count); ++id) {
    table_defs_.push_back(&schema.table(id));
  }
  capacities_.resize(table_count, config.default_rows);
  for (const auto& [table_name, rows] : config.per_table_rows) {
    const auto table_id = schema.table_id(table_name);
    if (table_id.is_ok()) capacities_[*table_id] = rows;
  }
}

bool ArraySet::append_batch(uint32_t table_id, const db::ColumnBatch& batch) {
  if (batch.empty()) return flush_needed_;
  auto& buffer = batches_[table_id];
  if (!buffer.has_value()) {
    // First rows for this table in the current cycle: create its buffer.
    buffer.emplace(*table_defs_[table_id]);
    buffer->reserve(static_cast<size_t>(capacities_[table_id]));
  }
  // Footprint counts written bytes, not reserved capacity: the paging model
  // (client memory high-water) only cares about pages actually touched, and
  // the arena layout has no per-row allocation overhead to account for.
  const int64_t before = static_cast<int64_t>(buffer->data_bytes());
  buffer->append_from(batch);
  footprint_bytes_ += static_cast<int64_t>(buffer->data_bytes()) - before;
  buffered_rows_ += static_cast<int64_t>(batch.size());
  if (static_cast<int64_t>(buffer->size()) >= capacities_[table_id]) {
    flush_needed_ = true;
  }
  if (high_water_bytes_.has_value() &&
      footprint_bytes_ >= *high_water_bytes_) {
    flush_needed_ = true;
  }
  return flush_needed_;
}

void ArraySet::clear() {
  for (auto& batch : batches_) batch.reset();  // release, don't just empty
  buffered_rows_ = 0;
  footprint_bytes_ = 0;
  flush_needed_ = false;
}

void ArraySet::clear_keep_buffers() {
  for (auto& batch : batches_) {
    if (batch.has_value()) batch->clear();  // keep layout and capacity
  }
  buffered_rows_ = 0;
  footprint_bytes_ = 0;
  flush_needed_ = false;
}

int ArraySet::active_arrays() const {
  // Buffers retained empty across cycles (clear_keep_buffers) are not
  // active until rows land in them.
  int count = 0;
  for (const auto& batch : batches_) {
    if (batch.has_value() && !batch->empty()) ++count;
  }
  return count;
}

}  // namespace sky::core
