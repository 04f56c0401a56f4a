#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace sky::storage {

HeapFile::AppendResult HeapFile::append_pending(std::string_view row) {
  assert(row.size() <= std::numeric_limits<uint32_t>::max());
  const auto row_size = static_cast<uint32_t>(row.size());
  bool opened_new_page = false;
  if (pages_.empty() ||
      pages_.back().bytes_used() + int64_t{row_size} > kPageSize) {
    Page& page = pages_.emplace_back();
    page.bytes = std::make_unique_for_overwrite<char[]>(
        std::max<size_t>(static_cast<size_t>(kPageSize), row_size));
    opened_new_page = true;
  }
  Page& page = pages_.back();
  const uint32_t begin = page.bytes_used();
  if (row_size > 0) std::memcpy(page.bytes.get() + begin, row.data(), row_size);
  page.row_ends.push_back(begin + row_size);
  page.states.push_back(RowState::kPending);
  const auto slot_index = static_cast<uint32_t>(page.states.size() - 1);
  const SlotId slot{extent_id_, static_cast<uint32_t>(pages_.size() - 1),
                    slot_index};
  return AppendResult{slot, opened_new_page, page.row(slot_index)};
}

Result<HeapFile::Page*> HeapFile::page_for(SlotId slot) {
  if (slot.extent != extent_id_) {
    return Status(ErrorCode::kNotFound, "heap extent mismatch");
  }
  if (slot.page >= pages_.size()) {
    return Status(ErrorCode::kNotFound, "heap page out of range");
  }
  Page& page = pages_[slot.page];
  if (slot.slot >= page.states.size()) {
    return Status(ErrorCode::kNotFound, "heap slot out of range");
  }
  return &page;
}

Result<const HeapFile::Page*> HeapFile::page_for(SlotId slot) const {
  SKY_ASSIGN_OR_RETURN(Page * page,
                       const_cast<HeapFile*>(this)->page_for(slot));
  return static_cast<const Page*>(page);
}

Result<std::string_view> HeapFile::read(SlotId slot) const {
  SKY_ASSIGN_OR_RETURN(const Page* page, page_for(slot));
  if (page->states[slot.slot] == RowState::kPending) {
    return Status(ErrorCode::kNotFound, "heap slot not yet published");
  }
  if (page->states[slot.slot] == RowState::kDead) {
    return Status(ErrorCode::kNotFound, "heap slot tombstoned");
  }
  return page->row(slot.slot);
}

Status HeapFile::publish(SlotId slot) {
  SKY_ASSIGN_OR_RETURN(Page * page, page_for(slot));
  if (page->states[slot.slot] != RowState::kPending) {
    return Status(ErrorCode::kFailedPrecondition, "heap slot not pending");
  }
  page->states[slot.slot] = RowState::kLive;
  ++live_rows_;
  total_bytes_ += static_cast<int64_t>(page->row(slot.slot).size());
  return ok_status();
}

Status HeapFile::discard(SlotId slot) {
  SKY_ASSIGN_OR_RETURN(Page * page, page_for(slot));
  if (page->states[slot.slot] != RowState::kPending) {
    return Status(ErrorCode::kFailedPrecondition, "heap slot not pending");
  }
  page->states[slot.slot] = RowState::kDead;
  return ok_status();
}

Status HeapFile::mark_deleted(SlotId slot) {
  SKY_ASSIGN_OR_RETURN(Page * page, page_for(slot));
  if (page->states[slot.slot] != RowState::kLive) {
    return Status(ErrorCode::kNotFound, "heap slot already tombstoned");
  }
  page->states[slot.slot] = RowState::kDead;
  --live_rows_;
  total_bytes_ -= static_cast<int64_t>(page->row(slot.slot).size());
  return ok_status();
}

}  // namespace sky::storage
