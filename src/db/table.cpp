#include "db/table.h"

#include <cassert>

#include "htm/htm.h"
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

Table::Table(uint32_t table_id, TableDef table_def, uint32_t heap_extents,
             Nanos heap_append_latency)
    : id_(table_id),
      def_(std::move(table_def)),
      heap_(heap_extents, heap_append_latency) {
  pk_column_indices_.reserve(def_.primary_key.size());
  for (const std::string& pk_col : def_.primary_key) {
    pk_column_indices_.push_back(def_.column_index(pk_col));
  }
  secondaries_.reserve(def_.indexes.size());
  for (const IndexDef& index_def : def_.indexes) {
    SecondaryIndex secondary;
    secondary.def = index_def;
    for (const std::string& col : index_def.columns) {
      secondary.column_indices.push_back(def_.column_index(col));
    }
    secondaries_.push_back(std::move(secondary));
  }
  fk_columns.reserve(def_.foreign_keys.size());
  for (const ForeignKey& fk : def_.foreign_keys) {
    fk_columns.push_back(fk_column_indices(def_, fk));
  }
}

std::string Table::encode_pk_key(const Row& row) const {
  index::KeyEncoder encoder;
  for (const int idx : pk_column_indices_) {
    append_value_to_key(encoder, row[static_cast<size_t>(idx)],
                        def_.columns[static_cast<size_t>(idx)].type);
  }
  return encoder.take();
}

std::string Table::encode_index_key(
    const SecondaryIndex& index, const Row& row,
    std::optional<uint64_t> row_id_suffix) const {
  index::KeyEncoder encoder;
  if (index.def.htm.has_value()) {
    // HTM index: the key is the trixel id containing (ra, dec), not the raw
    // column values. column_indices is {ra, dec} (schema.cpp auto-fill);
    // both are NOT NULL by validation.
    const double ra = row[static_cast<size_t>(index.column_indices[0])].as_f64();
    const double dec =
        row[static_cast<size_t>(index.column_indices[1])].as_f64();
    encoder.append_int64(
        static_cast<int64_t>(htm::htm_id_radec(ra, dec, index.def.htm->depth)));
  } else {
    for (const int idx : index.column_indices) {
      append_value_to_key(encoder, row[static_cast<size_t>(idx)],
                          def_.columns[static_cast<size_t>(idx)].type);
    }
  }
  if (!index.def.unique && row_id_suffix.has_value()) {
    encoder.append_int64(static_cast<int64_t>(*row_id_suffix));
  }
  return encoder.take();
}

std::vector<int> fk_column_indices(const TableDef& child_def,
                                   const ForeignKey& fk) {
  std::vector<int> columns;
  columns.reserve(fk.columns.size());
  for (const std::string& name : fk.columns) {
    columns.push_back(child_def.column_index(name));
    assert(columns.back() >= 0);
  }
  return columns;
}

std::optional<std::string> encode_fk_probe(const TableDef& child_def,
                                           const std::vector<int>& fk_columns,
                                           const Row& child_row) {
  index::KeyEncoder encoder;
  for (const int idx : fk_columns) {
    const Value& value = child_row[static_cast<size_t>(idx)];
    if (value.is_null()) return std::nullopt;  // MATCH SIMPLE semantics
    append_value_to_key(encoder, value,
                        child_def.columns[static_cast<size_t>(idx)].type);
  }
  return encoder.take();
}

}  // namespace sky::db
