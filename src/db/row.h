// Rows and the row codec.
//
// A Row is a positional tuple matching a table's column list. The codec
// serializes rows for heap storage and WAL records — real bytes, so page
// occupancy and redo volume come from actual data sizes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "db/value.h"

namespace sky::db {

using Row = std::vector<Value>;

// Serialize: per value, a kind byte then a fixed or length-prefixed payload.
std::string encode_row(const Row& row);

Result<Row> decode_row(std::string_view bytes);

std::string row_to_display(const Row& row);

}  // namespace sky::db
