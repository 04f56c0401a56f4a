#include "index/bptree.h"

#include <algorithm>
#include <cassert>

namespace sky::index {

struct BPlusTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
  const bool is_leaf;
  uint32_t page_id = 0;  // stable identity for the buffer-cache model
};

struct BPlusTree::LeafNode final : Node {
  LeafNode() : Node(true) {}
  std::vector<std::string> keys;
  std::vector<uint64_t> values;
  LeafNode* next = nullptr;
};

struct BPlusTree::InternalNode final : Node {
  InternalNode() : Node(false) {}
  // children.size() == keys.size() + 1; child[i] holds keys in
  // [keys[i-1], keys[i]) with the outer bounds open.
  std::vector<std::string> keys;
  std::vector<std::unique_ptr<Node>> children;
};

struct BPlusTree::SplitResult {
  std::string separator;          // first key of the new right node
  std::unique_ptr<Node> right;
};

namespace {
// Bookkeeping constant: per-entry overhead added to key bytes when tracking
// the approximate index footprint (value + tags + node slack).
constexpr size_t kEntryOverhead = 16;
}  // namespace

BPlusTree::BPlusTree(int fanout)
    : fanout_(fanout), root_(std::make_unique<LeafNode>()) {
  assert(fanout_ >= 4);
}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

const BPlusTree::LeafNode* BPlusTree::find_leaf(std::string_view key) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* internal = static_cast<const InternalNode*>(node);
    const auto it =
        std::upper_bound(internal->keys.begin(), internal->keys.end(), key);
    const auto child_idx = static_cast<size_t>(it - internal->keys.begin());
    node = internal->children[child_idx].get();
  }
  return static_cast<const LeafNode*>(node);
}

bool BPlusTree::contains(std::string_view key) const {
  return lookup(key).has_value();
}

std::optional<uint64_t> BPlusTree::lookup(std::string_view key) const {
  const LeafNode* leaf = find_leaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key) {
    return leaf->values[static_cast<size_t>(it - leaf->keys.begin())];
  }
  return std::nullopt;
}

bool BPlusTree::erase(std::string_view key) {
  // find_leaf is const; we own the tree, so the cast below is safe.
  auto* leaf = const_cast<LeafNode*>(find_leaf(key));
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return false;
  const auto pos = static_cast<size_t>(it - leaf->keys.begin());
  leaf->keys.erase(it);
  leaf->values.erase(leaf->values.begin() + static_cast<ptrdiff_t>(pos));
  --size_;
  approx_bytes_ -= std::min(approx_bytes_, key.size() + kEntryOverhead);
  return true;
}

bool BPlusTree::Iterator::valid() const { return leaf_ != nullptr; }

std::string_view BPlusTree::Iterator::key() const {
  return static_cast<const LeafNode*>(leaf_)->keys[pos_];
}

uint64_t BPlusTree::Iterator::value() const {
  return static_cast<const LeafNode*>(leaf_)->values[pos_];
}

uint32_t BPlusTree::Iterator::leaf_page_id() const {
  return static_cast<const LeafNode*>(leaf_)->page_id;
}

void BPlusTree::Iterator::next() {
  const auto* leaf = static_cast<const LeafNode*>(leaf_);
  ++pos_;
  while (leaf != nullptr && pos_ >= leaf->keys.size()) {
    leaf = leaf->next;
    pos_ = 0;
  }
  leaf_ = leaf;
}

BPlusTree::Iterator BPlusTree::seek(std::string_view key) const {
  const LeafNode* leaf = find_leaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  Iterator iter;
  iter.leaf_ = leaf;
  iter.pos_ = static_cast<size_t>(it - leaf->keys.begin());
  // Skip trailing position / empty leaves (possible after erases).
  while (iter.leaf_ != nullptr &&
         iter.pos_ >= static_cast<const LeafNode*>(iter.leaf_)->keys.size()) {
    iter.leaf_ = static_cast<const LeafNode*>(iter.leaf_)->next;
    iter.pos_ = 0;
  }
  return iter;
}

BPlusTree::Iterator BPlusTree::begin() const {
  return seek(std::string_view("", 0));
}

std::vector<uint64_t> BPlusTree::range_lookup(std::string_view first_key,
                                              std::string_view last_key) const {
  std::vector<uint64_t> out;
  for (Iterator it = seek(first_key);
       it.valid() && (last_key.empty() || it.key() < last_key); it.next()) {
    out.push_back(it.value());
  }
  return out;
}

Status BPlusTree::bulk_build(
    std::vector<std::pair<std::string, uint64_t>> sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (!(sorted[i - 1].first < sorted[i].first)) {
      return Status(ErrorCode::kInvalidArgument,
                    "bulk_build input not strictly sorted");
    }
  }
  const size_t leaf_fill = std::max<size_t>(
      2, static_cast<size_t>(fanout_) * 3 / 4);

  size_t nodes = 0;
  size_t bytes = 0;
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> level;

  // Build the leaf level.
  LeafNode* prev = nullptr;
  size_t i = 0;
  while (i < sorted.size()) {
    auto leaf = std::make_unique<LeafNode>();
    leaf->page_id = ++next_page_id_;
    const size_t end = std::min(sorted.size(), i + leaf_fill);
    for (; i < end; ++i) {
      bytes += sorted[i].first.size() + kEntryOverhead;
      leaf->keys.push_back(std::move(sorted[i].first));
      leaf->values.push_back(sorted[i].second);
    }
    if (prev != nullptr) prev->next = leaf.get();
    prev = leaf.get();
    ++nodes;
    level.emplace_back(leaf->keys.front(), std::move(leaf));
  }
  if (level.empty()) {
    root_ = std::make_unique<LeafNode>();
    root_->page_id = ++next_page_id_;
    size_ = 0;
    height_ = 1;
    node_count_ = 1;
    approx_bytes_ = 0;
    return ok_status();
  }

  // Build internal levels until a single root remains.
  int levels = 1;
  while (level.size() > 1) {
    std::vector<std::pair<std::string, std::unique_ptr<Node>>> parent_level;
    size_t j = 0;
    while (j < level.size()) {
      auto internal = std::make_unique<InternalNode>();
      internal->page_id = ++next_page_id_;
      const size_t end = std::min(level.size(), j + leaf_fill);
      std::string first_key = level[j].first;
      for (; j < end; ++j) {
        if (!internal->children.empty()) {
          internal->keys.push_back(std::move(level[j].first));
        }
        internal->children.push_back(std::move(level[j].second));
      }
      ++nodes;
      parent_level.emplace_back(std::move(first_key), std::move(internal));
    }
    level = std::move(parent_level);
    ++levels;
  }

  root_ = std::move(level.front().second);
  // Count entries from the leaf chain (also cross-checks chain integrity).
  size_t counted = 0;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children.front().get();
  }
  for (const LeafNode* leaf = static_cast<const LeafNode*>(node);
       leaf != nullptr; leaf = leaf->next) {
    counted += leaf->keys.size();
  }
  size_ = counted;
  height_ = levels;
  node_count_ = nodes;
  approx_bytes_ = bytes;
  return ok_status();
}

namespace {
// Balanced chunk sizes for multi-way splits: `total` entries into the fewest
// chunks of at most `max_per_chunk`, sizes differing by at most one.
std::vector<size_t> balanced_chunks(size_t total, size_t max_per_chunk) {
  const size_t chunks = (total + max_per_chunk - 1) / max_per_chunk;
  const size_t base = total / chunks;
  const size_t extra = total % chunks;
  std::vector<size_t> sizes(chunks, base);
  for (size_t i = 0; i < extra; ++i) ++sizes[i];
  return sizes;
}
}  // namespace

Status BPlusTree::insert_run_recursive(
    Node* node, std::vector<std::pair<std::string, uint64_t>>& run,
    size_t begin, size_t end, std::vector<SplitResult>& pieces,
    RunTouch* touch) {
  if (touch != nullptr) ++touch->nodes_visited;
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    // Compare-only duplicate pre-pass so the merge below (which moves keys
    // out of the leaf) never has to fail with the leaf half-emptied.
    {
      size_t li = 0;
      for (size_t ri = begin; ri < end; ++ri) {
        while (li < leaf->keys.size() && leaf->keys[li] < run[ri].first) ++li;
        if (li < leaf->keys.size() && leaf->keys[li] == run[ri].first) {
          return Status(ErrorCode::kAlreadyExists,
                        "sorted run collides with existing index key");
        }
      }
    }
    std::vector<std::string> merged_keys;
    std::vector<uint64_t> merged_values;
    const size_t total = leaf->keys.size() + (end - begin);
    merged_keys.reserve(total);
    merged_values.reserve(total);
    size_t li = 0;
    size_t ri = begin;
    while (li < leaf->keys.size() || ri < end) {
      const bool take_run =
          li >= leaf->keys.size() ||
          (ri < end && run[ri].first < leaf->keys[li]);
      if (take_run) {
        merged_keys.push_back(std::move(run[ri].first));
        merged_values.push_back(run[ri].second);
        ++ri;
      } else {
        merged_keys.push_back(std::move(leaf->keys[li]));
        merged_values.push_back(leaf->values[li]);
        ++li;
      }
    }
    if (total <= static_cast<size_t>(fanout_)) {
      leaf->keys = std::move(merged_keys);
      leaf->values = std::move(merged_values);
      if (touch != nullptr) touch->touched_leaf_ids.push_back(leaf->page_id);
      return ok_status();
    }
    // Multi-way split: the first chunk stays in place, the rest become new
    // right siblings spliced into the leaf chain in order.
    const std::vector<size_t> sizes =
        balanced_chunks(total, static_cast<size_t>(fanout_));
    size_t offset = sizes[0];
    leaf->keys.assign(std::make_move_iterator(merged_keys.begin()),
                      std::make_move_iterator(merged_keys.begin() +
                                              static_cast<ptrdiff_t>(offset)));
    leaf->values.assign(merged_values.begin(),
                        merged_values.begin() + static_cast<ptrdiff_t>(offset));
    if (touch != nullptr) touch->touched_leaf_ids.push_back(leaf->page_id);
    LeafNode* prev = leaf;
    LeafNode* const after = leaf->next;
    for (size_t c = 1; c < sizes.size(); ++c) {
      auto right = std::make_unique<LeafNode>();
      right->page_id = ++next_page_id_;
      right->keys.assign(
          std::make_move_iterator(merged_keys.begin() +
                                  static_cast<ptrdiff_t>(offset)),
          std::make_move_iterator(merged_keys.begin() +
                                  static_cast<ptrdiff_t>(offset + sizes[c])));
      right->values.assign(
          merged_values.begin() + static_cast<ptrdiff_t>(offset),
          merged_values.begin() + static_cast<ptrdiff_t>(offset + sizes[c]));
      offset += sizes[c];
      prev->next = right.get();
      prev = right.get();
      ++node_count_;
      if (touch != nullptr) {
        ++touch->leaf_splits;
        touch->touched_leaf_ids.push_back(right->page_id);
      }
      pieces.emplace_back(
          SplitResult{right->keys.front(), std::move(right)});
    }
    prev->next = after;
    return ok_status();
  }

  auto* internal = static_cast<InternalNode*>(node);
  // Partition the run slice across children by the separators (same
  // upper-bound rule the point descent uses: a key equal to a separator
  // belongs to the right child), splicing each child's new siblings in
  // behind it.
  std::vector<std::string> new_keys;
  std::vector<std::unique_ptr<Node>> new_children;
  new_keys.reserve(internal->keys.size());
  new_children.reserve(internal->children.size());
  size_t run_pos = begin;
  std::vector<SplitResult> child_pieces;
  // A child that fails leaves itself valid; the children after it are kept
  // as they are, so this node is rebuilt whole before the failure returns.
  Status status = ok_status();
  for (size_t i = 0; i < internal->children.size(); ++i) {
    size_t hi = end;
    if (i < internal->keys.size()) {
      const auto it = std::lower_bound(
          run.begin() + static_cast<ptrdiff_t>(run_pos),
          run.begin() + static_cast<ptrdiff_t>(end), internal->keys[i],
          [](const std::pair<std::string, uint64_t>& entry,
             const std::string& sep) { return entry.first < sep; });
      hi = static_cast<size_t>(it - run.begin());
    }
    if (i > 0) new_keys.push_back(std::move(internal->keys[i - 1]));
    Node* const child = internal->children[i].get();
    new_children.push_back(std::move(internal->children[i]));
    if (status.is_ok() && run_pos < hi) {
      child_pieces.clear();
      status = insert_run_recursive(child, run, run_pos, hi, child_pieces,
                                    touch);
      for (SplitResult& piece : child_pieces) {
        new_keys.push_back(std::move(piece.separator));
        new_children.push_back(std::move(piece.right));
      }
    }
    run_pos = hi;
  }
  internal->keys = std::move(new_keys);
  internal->children = std::move(new_children);
  if (internal->children.size() > static_cast<size_t>(fanout_)) {
    multi_split_internal(internal, pieces);
  }
  return status;
}

void BPlusTree::multi_split_internal(InternalNode* node,
                                     std::vector<SplitResult>& pieces) {
  std::vector<std::string> keys = std::move(node->keys);
  std::vector<std::unique_ptr<Node>> children = std::move(node->children);
  const std::vector<size_t> sizes =
      balanced_chunks(children.size(), static_cast<size_t>(fanout_));
  // Chunk 0 stays in `node`; between consecutive chunks one key is promoted.
  size_t child_offset = sizes[0];
  node->keys.assign(std::make_move_iterator(keys.begin()),
                    std::make_move_iterator(keys.begin() +
                                            static_cast<ptrdiff_t>(sizes[0] -
                                                                   1)));
  node->children.assign(
      std::make_move_iterator(children.begin()),
      std::make_move_iterator(children.begin() +
                              static_cast<ptrdiff_t>(sizes[0])));
  for (size_t c = 1; c < sizes.size(); ++c) {
    auto right = std::make_unique<InternalNode>();
    right->page_id = ++next_page_id_;
    // keys[child_offset - 1] separates chunk c-1 from chunk c: promote it.
    std::string promoted = std::move(keys[child_offset - 1]);
    right->keys.assign(
        std::make_move_iterator(keys.begin() +
                                static_cast<ptrdiff_t>(child_offset)),
        std::make_move_iterator(
            keys.begin() +
            static_cast<ptrdiff_t>(child_offset + sizes[c] - 1)));
    right->children.assign(
        std::make_move_iterator(children.begin() +
                                static_cast<ptrdiff_t>(child_offset)),
        std::make_move_iterator(
            children.begin() +
            static_cast<ptrdiff_t>(child_offset + sizes[c])));
    child_offset += sizes[c];
    ++node_count_;
    pieces.emplace_back(SplitResult{std::move(promoted), std::move(right)});
  }
}

Status BPlusTree::insert_sorted_run(
    std::vector<std::pair<std::string, uint64_t>> run, RunTouch* touch) {
  if (run.empty()) return ok_status();
  size_t run_bytes = run.front().first.size() + kEntryOverhead;
  for (size_t i = 1; i < run.size(); ++i) {
    if (!(run[i - 1].first < run[i].first)) {
      return Status(ErrorCode::kInvalidArgument,
                    "insert_sorted_run input not strictly sorted");
    }
    run_bytes += run[i].first.size() + kEntryOverhead;
  }
  const size_t count = run.size();
  std::vector<SplitResult> pieces;
  const Status status =
      insert_run_recursive(root_.get(), run, 0, count, pieces, touch);
  // Grow upward while the root overflowed: wrap the root and its new right
  // siblings in a fresh root, re-splitting if even that is over-full.
  while (!pieces.empty()) {
    auto new_root = std::make_unique<InternalNode>();
    new_root->page_id = ++next_page_id_;
    new_root->children.push_back(std::move(root_));
    for (SplitResult& piece : pieces) {
      new_root->keys.push_back(std::move(piece.separator));
      new_root->children.push_back(std::move(piece.right));
    }
    pieces.clear();
    ++node_count_;
    ++height_;
    if (new_root->children.size() > static_cast<size_t>(fanout_)) {
      multi_split_internal(new_root.get(), pieces);
    }
    root_ = std::move(new_root);
  }
  if (!status.is_ok()) {
    // A duplicate stopped the merge after the leaves before it took their
    // slices: count what the tree now holds.
    size_ = 0;
    approx_bytes_ = 0;
    for (Iterator it = begin(); it.valid(); it.next()) {
      ++size_;
      approx_bytes_ += it.key().size() + kEntryOverhead;
    }
    return status;
  }
  size_ += count;
  approx_bytes_ += run_bytes;
  return ok_status();
}

Status BPlusTree::validate() const {
  // Recursive bound check + leaf depth, then independent chain walk.
  struct Checker {
    int fanout;
    size_t entries = 0;
    int leaf_depth = -1;
    std::vector<const LeafNode*> leaves_in_order;

    Status check(const Node* node, const std::string* lo,
                 const std::string* hi, int depth) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const LeafNode*>(node);
        if (leaf_depth == -1) leaf_depth = depth;
        if (leaf_depth != depth) {
          return Status(ErrorCode::kInternal, "leaves at unequal depth");
        }
        if (leaf->keys.size() != leaf->values.size()) {
          return Status(ErrorCode::kInternal, "leaf key/value count mismatch");
        }
        for (size_t i = 0; i < leaf->keys.size(); ++i) {
          if (i > 0 && !(leaf->keys[i - 1] < leaf->keys[i])) {
            return Status(ErrorCode::kInternal, "leaf keys out of order");
          }
          if (lo != nullptr && leaf->keys[i] < *lo) {
            return Status(ErrorCode::kInternal, "leaf key below lower bound");
          }
          if (hi != nullptr && !(leaf->keys[i] < *hi)) {
            return Status(ErrorCode::kInternal, "leaf key above upper bound");
          }
        }
        entries += leaf->keys.size();
        leaves_in_order.push_back(leaf);
        return ok_status();
      }
      const auto* internal = static_cast<const InternalNode*>(node);
      if (internal->children.size() != internal->keys.size() + 1) {
        return Status(ErrorCode::kInternal, "internal arity mismatch");
      }
      if (internal->children.size() > static_cast<size_t>(fanout) + 1) {
        return Status(ErrorCode::kInternal, "internal node over fanout");
      }
      for (size_t i = 0; i < internal->keys.size(); ++i) {
        if (i > 0 && !(internal->keys[i - 1] < internal->keys[i])) {
          return Status(ErrorCode::kInternal, "separators out of order");
        }
      }
      for (size_t i = 0; i < internal->children.size(); ++i) {
        const std::string* child_lo =
            (i == 0) ? lo : &internal->keys[i - 1];
        const std::string* child_hi =
            (i == internal->keys.size()) ? hi : &internal->keys[i];
        SKY_RETURN_IF_ERROR(check(internal->children[i].get(), child_lo,
                                  child_hi, depth + 1));
      }
      return ok_status();
    }
  };

  Checker checker{fanout_, 0, -1, {}};
  SKY_RETURN_IF_ERROR(checker.check(root_.get(), nullptr, nullptr, 1));
  if (checker.entries != size_) {
    return Status(ErrorCode::kInternal, "size counter disagrees with tree");
  }
  if (checker.leaf_depth != height_) {
    return Status(ErrorCode::kInternal, "height counter disagrees with tree");
  }
  // Leaf chain must visit exactly the in-order leaves.
  if (!checker.leaves_in_order.empty()) {
    const LeafNode* chain = checker.leaves_in_order.front();
    for (const LeafNode* expected : checker.leaves_in_order) {
      if (chain != expected) {
        return Status(ErrorCode::kInternal, "leaf chain out of order");
      }
      chain = chain->next;
    }
    if (chain != nullptr) {
      return Status(ErrorCode::kInternal, "leaf chain has extra nodes");
    }
  }
  return ok_status();
}

}  // namespace sky::index
