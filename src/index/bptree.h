// In-memory B+tree over memcomparable byte-string keys.
//
// Backs every index in the engine: primary keys (unique), the single-integer
// secondary index and the three-float composite index from the paper's
// Fig. 8 study. Secondary (non-unique) indexes are made unique by the table
// layer appending the 8-byte row id to the encoded key, as real systems do.
//
// Keys enter a tree only as a sorted run: bulk_build() constructs a whole
// tree from sorted input without per-key descent (index rebuilds and the
// Fig. 9 preload), and insert_sorted_run() merges a sorted run into a live
// tree in one descent (every insert call). erase() is the rollback path.
// Leaves are chained for range scans (cone searches over htmid ranges).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sky::index {

class BPlusTree {
 public:
  // `fanout` = max entries per node (leaf and internal alike). 64 keeps
  // height realistic without tuning; must be >= 4.
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  bool contains(std::string_view key) const;
  std::optional<uint64_t> lookup(std::string_view key) const;

  // Remove a key (transaction rollback path). Returns true if removed.
  // Underflowed nodes are not rebalanced — deletions here only occur when a
  // failed batch is rolled back, which is rare and small; validate() accepts
  // sparse nodes.
  bool erase(std::string_view key);

  // Forward iterator positioned by seek(); valid() goes false at the end.
  class Iterator {
   public:
    bool valid() const;
    std::string_view key() const;
    uint64_t value() const;
    // Stable id of the leaf holding the current entry (the page a read of
    // this entry touches).
    uint32_t leaf_page_id() const;
    void next();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;  // LeafNode*
    size_t pos_ = 0;
  };

  // First entry with key >= `key`.
  Iterator seek(std::string_view key) const;
  Iterator begin() const;

  // Values of the entries with first_key <= key < last_key (half-open); an
  // empty `last_key` means no upper bound, as in ReadView's ranges.
  std::vector<uint64_t> range_lookup(std::string_view first_key,
                                     std::string_view last_key) const;

  size_t size() const { return size_; }
  int height() const { return height_; }
  size_t node_count() const { return node_count_; }
  int fanout() const { return fanout_; }
  // Approximate bytes held by keys + values (cost-model hook).
  size_t approx_bytes() const { return approx_bytes_; }

  // Build from strictly-increasing sorted (key, value) pairs. Replaces the
  // current contents. Returns kInvalidArgument if input is not strictly
  // sorted.
  Status bulk_build(std::vector<std::pair<std::string, uint64_t>> sorted);

  // Page-level touch summary for one sorted-run insert, consumed by the
  // buffer-cache and cost models: presorted keys keep hitting the same
  // (rightmost) leaf while random keys scatter across leaves — the
  // mechanism behind the paper's presort guideline (section 4.5.4).
  struct RunTouch {
    int nodes_visited = 0;  // distinct nodes walked by the merge descent
    int leaf_splits = 0;    // new leaf pages created
    // Leaves that absorbed at least one key (new leaves included), in tree
    // order — each is one dirty index page.
    std::vector<uint32_t> touched_leaf_ids;
  };

  // Incremental batch insert of a strictly-increasing sorted run: one merge
  // descent partitions the run across the tree and each touched leaf absorbs
  // its slice in a single merge (multi-way splitting as needed), replacing N
  // root-to-leaf descents with ~O(touched nodes + N) work. The incremental
  // extension of bulk_build() — the tree may be non-empty and keeps its
  // existing contents.
  //
  // Preconditions: `run` strictly sorted and disjoint from the current
  // contents (the engine verifies both under the exclusive index latch).
  // Violations return kInvalidArgument (unsorted: tree unmodified) or
  // kAlreadyExists (duplicate: leaves merged before the offending key keep
  // their slices, and the tree and its size stay valid; a one-key run
  // leaves the tree unchanged. Callers treat it as a logic error, not a
  // recovery point).
  Status insert_sorted_run(std::vector<std::pair<std::string, uint64_t>> run,
                           RunTouch* touch = nullptr);

  // Structural invariant check for tests: key ordering within and across
  // nodes, separator correctness, leaf chain completeness, size agreement.
  Status validate() const;

 private:
  struct LeafNode;
  struct InternalNode;
  struct Node;

  struct SplitResult;

  // Merge run[begin, end) into the subtree at `node`; new right siblings
  // (with their separators) are appended to `pieces` for the parent to
  // splice in after this child.
  Status insert_run_recursive(Node* node,
                              std::vector<std::pair<std::string, uint64_t>>& run,
                              size_t begin, size_t end,
                              std::vector<SplitResult>& pieces,
                              RunTouch* touch);
  // Split an over-full internal node into <= fanout chunks; the first chunk
  // stays in `node`, the rest are emitted as (promoted key, node) pieces.
  void multi_split_internal(InternalNode* node,
                            std::vector<SplitResult>& pieces);
  const LeafNode* find_leaf(std::string_view key) const;

  int fanout_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int height_ = 1;
  size_t node_count_ = 1;
  size_t approx_bytes_ = 0;
  uint32_t next_page_id_ = 0;
};

}  // namespace sky::index
