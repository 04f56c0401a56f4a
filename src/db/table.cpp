#include "db/table.h"

#include <cassert>

#include "index/key_codec.h"

namespace sky::db {

void append_value_to_key(index::KeyEncoder& encoder, const Value& value,
                         ColumnType type) {
  if (value.is_null()) {
    encoder.append_null();
    return;
  }
  switch (type) {
    case ColumnType::kInt32:
      encoder.append_int32(value.as_i32());
      return;
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      encoder.append_int64(value.as_i64());
      return;
    case ColumnType::kDouble:
      encoder.append_double(value.as_f64());
      return;
    case ColumnType::kString:
      encoder.append_string(value.as_str());
      return;
  }
  assert(false && "unknown column type");
}

std::vector<int> column_indices(const TableDef& def,
                                const std::vector<std::string>& names) {
  std::vector<int> columns;
  columns.reserve(names.size());
  for (const std::string& name : names) {
    columns.push_back(def.column_index(name));
    assert(columns.back() >= 0);
  }
  return columns;
}

Table::Table(uint32_t table_id, TableDef table_def, uint32_t heap_extents,
             Nanos heap_append_latency)
    : id_(table_id),
      def_(std::move(table_def)),
      pk_column_indices_(column_indices(def_, def_.primary_key)),
      heap_(heap_extents, heap_append_latency) {
  secondaries_.reserve(def_.indexes.size());
  for (const IndexDef& index_def : def_.indexes) {
    SecondaryIndex secondary;
    secondary.def = index_def;
    secondary.column_indices = column_indices(def_, index_def.columns);
    secondaries_.push_back(std::move(secondary));
  }
  fk_columns.reserve(def_.foreign_keys.size());
  for (const ForeignKey& fk : def_.foreign_keys) {
    fk_columns.push_back(column_indices(def_, fk.columns));
  }
}

}  // namespace sky::db
