// Schema: table definitions, constraints, indexes, and the FK dependency
// order that drives the bulk loader's parent-before-child insert sequence.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "db/value.h"

namespace sky::db {

struct ColumnDef {
  std::string name;
  ColumnType type;
  bool nullable = true;
};

// Numeric range check ("stringent data checking ... by the database";
// section 4.3). NaN always violates.
struct CheckConstraint {
  std::string column;
  std::optional<double> min;
  std::optional<double> max;
};

// References the parent table's primary key (column-count and types must
// match).
struct ForeignKey {
  std::vector<std::string> columns;
  std::string parent_table;
};

// Declares a secondary index keyed by HTM trixel id: each row's (ra, dec)
// position — degrees, J2000 — is mapped to the id of the depth-`depth`
// Hierarchical Triangular Mesh trixel containing it (htm/htm.h), and the
// index stores that single int64 id. Because every trixel's descendants
// occupy one contiguous id range, a cone search becomes a handful of index
// range probes (htm::cone_cover). The spec's columns must be NOT NULL
// doubles.
struct HtmIndexSpec {
  std::string ra_column;
  std::string dec_column;
  int depth = 14;  // ~20 arcsec trixels; validated against htm::kMaxDepth
};

struct IndexDef {
  std::string name;
  std::vector<std::string> columns;
  // When set, this is an HTM spatial index: `columns` is auto-filled to
  // {ra_column, dec_column} by Schema::add_table and keys are trixel ids
  // computed from those columns, not their raw values.
  std::optional<HtmIndexSpec> htm;
};

struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> primary_key;
  std::vector<ForeignKey> foreign_keys;
  std::vector<IndexDef> indexes;  // secondary indexes
  std::vector<CheckConstraint> checks;

  // Index of a column by name, -1 if absent.
  int column_index(std::string_view column_name) const;

  // Average encoded row size estimate is derived at runtime; here we only
  // offer a convenience for declaring columns fluently.
  TableDef& col(std::string name_, ColumnType type_, bool nullable_ = true) {
    columns.push_back(ColumnDef{std::move(name_), type_, nullable_});
    return *this;
  }
};

// A validated collection of tables with a parent-first topological order.
class Schema {
 public:
  // Validates the definition against the tables already added: unique table
  // name, unique column names, PK columns exist and are NOT NULL-able
  // implicitly, FK parents already added (so declaration order is a valid
  // topological order and no table references itself), FK column types
  // match the parent PK, index and check columns exist.
  Status add_table(TableDef def);

  int table_count() const { return static_cast<int>(tables_.size()); }
  bool has_table(std::string_view name) const;
  // Id is the position in declaration (= topological) order.
  Result<uint32_t> table_id(std::string_view name) const;
  const TableDef& table(uint32_t id) const { return tables_[id]; }
  const std::vector<TableDef>& tables() const { return tables_; }

  // Table ids in parent-before-child order (declaration order, validated).
  std::vector<uint32_t> topological_order() const;

  // All (child, parent) id pairs.
  std::vector<std::pair<uint32_t, uint32_t>> fk_edges() const;

 private:
  std::vector<TableDef> tables_;
  std::map<std::string, uint32_t, std::less<>> by_name_;
};

}  // namespace sky::db
