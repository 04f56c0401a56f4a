#include "db/schema.h"

#include <set>

#include "common/strings.h"
#include "htm/htm.h"

namespace sky::db {

namespace {

// An HTM index keys rows by trixel id computed from two position columns.
// Requirements: both columns declared kDouble NOT NULL (a row without a
// position cannot be placed on the mesh), depth within the id space
// htm/htm.h supports. On success the IndexDef's column list is auto-filled
// to {ra, dec} so the rest of the engine (column resolution, the row-key
// encoder) treats it like any other secondary index.
Status validate_htm_index(const TableDef& table, IndexDef& index) {
  const HtmIndexSpec& spec = *index.htm;
  if (spec.depth < 0 || spec.depth > htm::kMaxDepth) {
    return Status(ErrorCode::kInvalidArgument,
                  str_format("HTM index %s depth %d out of range [0, %d]",
                             index.name.c_str(), spec.depth, htm::kMaxDepth));
  }
  for (const std::string* column : {&spec.ra_column, &spec.dec_column}) {
    const int idx = table.column_index(*column);
    if (idx < 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "HTM index column " + *column + " missing in " +
                        table.name);
    }
    const ColumnDef& def = table.columns[static_cast<size_t>(idx)];
    if (def.type != ColumnType::kDouble) {
      return Status(ErrorCode::kInvalidArgument,
                    "HTM index column " + *column + " must be DOUBLE");
    }
    if (def.nullable) {
      return Status(ErrorCode::kInvalidArgument,
                    "HTM index column " + *column + " must be NOT NULL");
    }
  }
  if (index.columns.empty()) {
    index.columns = {spec.ra_column, spec.dec_column};
  } else if (index.columns !=
             std::vector<std::string>{spec.ra_column, spec.dec_column}) {
    return Status(ErrorCode::kInvalidArgument,
                  "HTM index " + index.name +
                      " columns must be empty or {ra, dec}");
  }
  return ok_status();
}

}  // namespace

int TableDef::column_index(std::string_view column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::add_table(TableDef def) {
  if (def.name.empty()) {
    return Status(ErrorCode::kInvalidArgument, "table name empty");
  }
  if (by_name_.count(def.name) > 0) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate table name: " + def.name);
  }
  if (def.columns.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "table has no columns: " + def.name);
  }
  std::set<std::string_view> column_names;
  for (const ColumnDef& column : def.columns) {
    if (!column_names.insert(column.name).second) {
      return Status(ErrorCode::kInvalidArgument,
                    "duplicate column " + column.name + " in " + def.name);
    }
  }
  if (def.primary_key.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "table " + def.name + " has no primary key");
  }
  for (const std::string& pk_col : def.primary_key) {
    const int idx = def.column_index(pk_col);
    if (idx < 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "PK column " + pk_col + " missing in " + def.name);
    }
    // PK columns are implicitly NOT NULL.
    def.columns[static_cast<size_t>(idx)].nullable = false;
  }
  for (const ForeignKey& fk : def.foreign_keys) {
    const auto parent_it = by_name_.find(fk.parent_table);
    if (parent_it == by_name_.end()) {
      return Status(
          ErrorCode::kInvalidArgument,
          str_format("FK in %s references %s, which is not declared yet "
                     "(declare parents first)",
                     def.name.c_str(), fk.parent_table.c_str()));
    }
    const TableDef& parent = tables_[parent_it->second];
    if (fk.columns.size() != parent.primary_key.size()) {
      return Status(ErrorCode::kInvalidArgument,
                    "FK column count mismatch in " + def.name);
    }
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      const int child_idx = def.column_index(fk.columns[i]);
      if (child_idx < 0) {
        return Status(ErrorCode::kInvalidArgument,
                      "FK column " + fk.columns[i] + " missing in " + def.name);
      }
      const int parent_idx = parent.column_index(parent.primary_key[i]);
      const ColumnType child_type =
          def.columns[static_cast<size_t>(child_idx)].type;
      const ColumnType parent_type =
          parent.columns[static_cast<size_t>(parent_idx)].type;
      if (child_type != parent_type) {
        return Status(ErrorCode::kInvalidArgument,
                      "FK column type mismatch: " + def.name + "." +
                          fk.columns[i] + " vs " + parent.name + "." +
                          parent.primary_key[i]);
      }
    }
  }
  std::set<std::string_view> index_names;
  for (IndexDef& index : def.indexes) {
    if (index.name.empty() || !index_names.insert(index.name).second) {
      return Status(ErrorCode::kInvalidArgument,
                    "bad or duplicate index name in " + def.name);
    }
    if (index.htm.has_value()) {
      SKY_RETURN_IF_ERROR(validate_htm_index(def, index));
    }
    if (index.columns.empty()) {
      return Status(ErrorCode::kInvalidArgument,
                    "index " + index.name + " has no columns");
    }
    for (const std::string& col : index.columns) {
      if (def.column_index(col) < 0) {
        return Status(ErrorCode::kInvalidArgument,
                      "index column " + col + " missing in " + def.name);
      }
    }
  }
  for (const CheckConstraint& check : def.checks) {
    const int idx = def.column_index(check.column);
    if (idx < 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "check column " + check.column + " missing in " + def.name);
    }
    const ColumnType type = def.columns[static_cast<size_t>(idx)].type;
    if (type == ColumnType::kString) {
      return Status(ErrorCode::kInvalidArgument,
                    "range check on string column " + check.column);
    }
  }
  const auto id = static_cast<uint32_t>(tables_.size());
  by_name_[def.name] = id;
  tables_.push_back(std::move(def));
  return ok_status();
}

bool Schema::has_table(std::string_view name) const {
  return by_name_.find(name) != by_name_.end();
}

Result<uint32_t> Schema::table_id(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status(ErrorCode::kNotFound,
                  "no such table: " + std::string(name));
  }
  return it->second;
}

std::vector<uint32_t> Schema::topological_order() const {
  // add_table enforces parents-declared-first, so declaration order is
  // already topological.
  std::vector<uint32_t> order(tables_.size());
  for (uint32_t i = 0; i < tables_.size(); ++i) order[i] = i;
  return order;
}

std::vector<std::pair<uint32_t, uint32_t>> Schema::fk_edges() const {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t child = 0; child < tables_.size(); ++child) {
    for (const ForeignKey& fk : tables_[child].foreign_keys) {
      edges.emplace_back(child, by_name_.at(fk.parent_table));
    }
  }
  return edges;
}

}  // namespace sky::db
