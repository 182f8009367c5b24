#include "workloads/pool_btree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace lmp::workloads {

std::uint32_t PoolBtree::NodeBlock::ChildIndexFor(std::uint64_t key) const {
  std::uint32_t i = 0;
  while (i < count && inner_key(i) <= key) ++i;
  return i;
}

void PoolBtree::NodeBlock::AppendRows(std::uint64_t start, std::size_t limit,
                                      Rows* rows) const {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (leaf_key(i) < start) continue;
    if (rows->size() == limit) break;
    rows->emplace_back(leaf_key(i), leaf_value(i));
  }
}

StatusOr<PoolBtree> PoolBtree::Create(core::PoolManager* manager,
                                      std::uint32_t max_nodes,
                                      cluster::ServerId home) {
  LMP_CHECK(manager != nullptr);
  if (max_nodes < 2) return InvalidArgumentError("btree arena needs >= 2 nodes");
  LMP_ASSIGN_OR_RETURN(
      core::BufferId buffer,
      manager->Allocate(static_cast<Bytes>(max_nodes) * kNodeBytes, home));
  PoolBtree tree(manager, buffer, max_nodes);
  LMP_ASSIGN_OR_RETURN(const std::uint32_t root, tree.AllocNode());
  NodeBlock leaf;
  leaf.is_leaf = 1;
  LMP_RETURN_IF_ERROR(tree.WriteNode(home, root, leaf, 0));
  tree.root_ = root;
  return tree;
}

Status PoolBtree::ReadNode(cluster::ServerId from, std::uint32_t node,
                           SimTime now, NodeBlock* block) {
  LMP_CHECK(node < used_nodes_) << "read of unallocated btree node";
  LMP_RETURN_IF_ERROR(manager_->Read(
      from, buffer_, NodeOffset(node),
      std::span<std::byte>(reinterpret_cast<std::byte*>(block),
                           sizeof(*block)),
      now));
  ++node_reads_;
  return Status::Ok();
}

Status PoolBtree::WriteNode(cluster::ServerId from, std::uint32_t node,
                            const NodeBlock& block, SimTime now) {
  LMP_CHECK(node < used_nodes_) << "write of unallocated btree node";
  LMP_RETURN_IF_ERROR(manager_->Write(
      from, buffer_, NodeOffset(node),
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(&block), sizeof(block)),
      now));
  ++node_writes_;
  return Status::Ok();
}

StatusOr<std::uint32_t> PoolBtree::AllocNode() {
  if (used_nodes_ >= max_nodes_) {
    return OutOfMemoryError("btree arena full (" +
                            std::to_string(max_nodes_) + " nodes)");
  }
  return used_nodes_++;
}

StatusOr<PoolBtree::DescendResult> PoolBtree::DescendStep(
    cluster::ServerId from, std::uint32_t node, std::uint64_t key,
    SimTime now) {
  NodeBlock block(kUnzeroed);
  LMP_RETURN_IF_ERROR(ReadNode(from, node, now, &block));
  DescendResult result;
  if (block.is_leaf == 0) {
    result.child = block.inner_child(block.ChildIndexFor(key));
    return result;
  }
  result.leaf = true;
  for (std::uint32_t i = 0; i < block.count; ++i) {
    if (block.leaf_key(i) == key) {
      result.found = true;
      result.value = block.leaf_value(i);
      break;
    }
  }
  return result;
}

StatusOr<std::uint32_t> PoolBtree::ReadLeafRows(cluster::ServerId from,
                                                std::uint32_t node,
                                                std::uint64_t start,
                                                std::size_t limit, Rows* rows,
                                                SimTime now) {
  NodeBlock block(kUnzeroed);
  LMP_RETURN_IF_ERROR(ReadNode(from, node, now, &block));
  if (block.is_leaf == 0) return InternalError("scan chain hit inner node");
  block.AppendRows(start, limit, rows);
  return block.next;
}

StatusOr<PoolBtree::ScanStep> PoolBtree::ScanDescendStep(
    cluster::ServerId from, std::uint32_t node, std::uint64_t start,
    std::size_t limit, Rows* rows, SimTime now) {
  NodeBlock block(kUnzeroed);
  LMP_RETURN_IF_ERROR(ReadNode(from, node, now, &block));
  ScanStep step;
  if (block.is_leaf == 0) {
    step.child = block.inner_child(block.ChildIndexFor(start));
    return step;
  }
  step.leaf = true;
  block.AppendRows(start, limit, rows);
  step.next = block.next;
  return step;
}

Status PoolBtree::DescendPath(cluster::ServerId from, std::uint64_t key,
                              SimTime now,
                              std::vector<std::uint32_t>* path) {
  LMP_CHECK(path != nullptr);
  path->clear();
  std::uint32_t node = root_;
  while (true) {
    path->push_back(node);
    NodeBlock block(kUnzeroed);
    LMP_RETURN_IF_ERROR(ReadNode(from, node, now, &block));
    if (block.is_leaf != 0) return Status::Ok();
    node = block.inner_child(block.ChildIndexFor(key));
    LMP_CHECK(path->size() <= static_cast<std::size_t>(height_))
        << "btree descent deeper than tree height";
  }
}

Status PoolBtree::InsertAtPath(cluster::ServerId from,
                               const std::vector<std::uint32_t>& path,
                               std::uint64_t key, std::uint64_t value,
                               SimTime now,
                               std::vector<std::uint32_t>* written) {
  if (path.empty()) return InvalidArgumentError("empty btree path");
  const std::uint32_t leaf_idx = path.back();
  NodeBlock leaf(kUnzeroed);
  LMP_RETURN_IF_ERROR(ReadNode(from, leaf_idx, now, &leaf));
  if (leaf.is_leaf == 0) return InvalidArgumentError("path ends at inner node");

  // Overwrite in place — never splits, even when the leaf is full.
  for (std::uint32_t i = 0; i < leaf.count; ++i) {
    if (leaf.leaf_key(i) == key) {
      leaf.set_leaf(i, key, value);
      LMP_RETURN_IF_ERROR(WriteNode(from, leaf_idx, leaf, now));
      if (written) written->push_back(leaf_idx);
      return Status::Ok();
    }
  }

  if (leaf.count < kLeafCap) {
    std::uint32_t pos = 0;
    while (pos < leaf.count && leaf.leaf_key(pos) < key) ++pos;
    for (std::uint32_t i = leaf.count; i > pos; --i) {
      leaf.set_leaf(i, leaf.leaf_key(i - 1), leaf.leaf_value(i - 1));
    }
    leaf.set_leaf(pos, key, value);
    ++leaf.count;
    LMP_RETURN_IF_ERROR(WriteNode(from, leaf_idx, leaf, now));
    if (written) written->push_back(leaf_idx);
    ++size_;
    return Status::Ok();
  }

  // Leaf split: gather the kLeafCap + 1 sorted pairs, keep the low half in
  // place, move the high half to a fresh sibling spliced into the chain.
  LMP_ASSIGN_OR_RETURN(const std::uint32_t right_idx, AllocNode());
  ++splits_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  pairs.reserve(kLeafCap + 1);
  for (std::uint32_t i = 0; i < leaf.count; ++i) {
    pairs.emplace_back(leaf.leaf_key(i), leaf.leaf_value(i));
  }
  pairs.emplace_back(key, value);
  std::sort(pairs.begin(), pairs.end());
  const std::uint32_t left_count =
      static_cast<std::uint32_t>(pairs.size() / 2);

  NodeBlock right;
  right.is_leaf = 1;
  right.next = leaf.next;
  right.count = static_cast<std::uint32_t>(pairs.size()) - left_count;
  for (std::uint32_t i = 0; i < right.count; ++i) {
    right.set_leaf(i, pairs[left_count + i].first,
                   pairs[left_count + i].second);
  }

  NodeBlock left;
  left.is_leaf = 1;
  left.next = right_idx;
  left.count = left_count;
  for (std::uint32_t i = 0; i < left_count; ++i) {
    left.set_leaf(i, pairs[i].first, pairs[i].second);
  }

  LMP_RETURN_IF_ERROR(WriteNode(from, right_idx, right, now));
  LMP_RETURN_IF_ERROR(WriteNode(from, leaf_idx, left, now));
  if (written) {
    written->push_back(right_idx);
    written->push_back(leaf_idx);
  }
  ++size_;

  // Promote the separator (the right sibling's smallest key — equal keys
  // descend right) up the recorded path, splitting full ancestors.
  std::uint64_t sep = right.leaf_key(0);
  std::uint32_t new_child = right_idx;
  for (int level = static_cast<int>(path.size()) - 2; level >= 0; --level) {
    const std::uint32_t inner_idx = path[level];
    NodeBlock inner(kUnzeroed);
    LMP_RETURN_IF_ERROR(ReadNode(from, inner_idx, now, &inner));
    if (inner.is_leaf != 0) return InvalidArgumentError("leaf on inner path");

    std::uint32_t pos = 0;
    while (pos < inner.count && inner.inner_key(pos) <= sep) ++pos;
    if (inner.count < kInnerKeyCap) {
      for (std::uint32_t i = inner.count; i > pos; --i) {
        inner.set_inner_key(i, inner.inner_key(i - 1));
        inner.set_inner_child(i + 1, inner.inner_child(i));
      }
      inner.set_inner_key(pos, sep);
      inner.set_inner_child(pos + 1, new_child);
      ++inner.count;
      LMP_RETURN_IF_ERROR(WriteNode(from, inner_idx, inner, now));
      if (written) written->push_back(inner_idx);
      return Status::Ok();
    }

    // Inner split: kInnerKeyCap + 1 keys, +2 children; the median key
    // promotes (it does not stay in either half).
    LMP_ASSIGN_OR_RETURN(const std::uint32_t split_idx, AllocNode());
    ++splits_;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> children;
    keys.reserve(inner.count + 1);
    children.reserve(inner.count + 2);
    for (std::uint32_t i = 0; i < inner.count; ++i) keys.push_back(inner.inner_key(i));
    for (std::uint32_t i = 0; i <= inner.count; ++i) {
      children.push_back(inner.inner_child(i));
    }
    keys.insert(keys.begin() + pos, sep);
    children.insert(children.begin() + pos + 1, new_child);

    const std::uint32_t mid = static_cast<std::uint32_t>(keys.size() / 2);
    NodeBlock left_inner;
    left_inner.count = mid;
    for (std::uint32_t i = 0; i < mid; ++i) {
      left_inner.set_inner_key(i, keys[i]);
    }
    for (std::uint32_t i = 0; i <= mid; ++i) {
      left_inner.set_inner_child(i, children[i]);
    }
    NodeBlock right_inner;
    right_inner.count = static_cast<std::uint32_t>(keys.size()) - mid - 1;
    for (std::uint32_t i = 0; i < right_inner.count; ++i) {
      right_inner.set_inner_key(i, keys[mid + 1 + i]);
    }
    for (std::uint32_t i = 0; i <= right_inner.count; ++i) {
      right_inner.set_inner_child(i, children[mid + 1 + i]);
    }

    LMP_RETURN_IF_ERROR(WriteNode(from, split_idx, right_inner, now));
    LMP_RETURN_IF_ERROR(WriteNode(from, inner_idx, left_inner, now));
    if (written) {
      written->push_back(split_idx);
      written->push_back(inner_idx);
    }
    sep = keys[mid];
    new_child = split_idx;
  }

  // The split reached the root: grow the tree by one level.
  LMP_ASSIGN_OR_RETURN(const std::uint32_t new_root, AllocNode());
  NodeBlock root;
  root.count = 1;
  root.set_inner_key(0, sep);
  root.set_inner_child(0, path[0]);
  root.set_inner_child(1, new_child);
  LMP_RETURN_IF_ERROR(WriteNode(from, new_root, root, now));
  if (written) written->push_back(new_root);
  root_ = new_root;
  ++height_;
  return Status::Ok();
}

Status PoolBtree::Insert(cluster::ServerId from, std::uint64_t key,
                         std::uint64_t value, SimTime now) {
  LMP_RETURN_IF_ERROR(DescendPath(from, key, now, &path_));
  return InsertAtPath(from, path_, key, value, now, nullptr);
}

StatusOr<std::uint64_t> PoolBtree::Lookup(cluster::ServerId from,
                                          std::uint64_t key, SimTime now) {
  std::uint32_t node = root_;
  while (true) {
    LMP_ASSIGN_OR_RETURN(const DescendResult step,
                         DescendStep(from, node, key, now));
    if (!step.leaf) {
      node = step.child;
      continue;
    }
    if (step.found) return step.value;
    return NotFoundError("key " + std::to_string(key));
  }
}

Status PoolBtree::Erase(cluster::ServerId from, std::uint64_t key,
                        SimTime now) {
  LMP_RETURN_IF_ERROR(DescendPath(from, key, now, &path_));
  const std::uint32_t leaf_idx = path_.back();
  NodeBlock leaf(kUnzeroed);
  LMP_RETURN_IF_ERROR(ReadNode(from, leaf_idx, now, &leaf));
  for (std::uint32_t i = 0; i < leaf.count; ++i) {
    if (leaf.leaf_key(i) != key) continue;
    for (std::uint32_t j = i; j + 1 < leaf.count; ++j) {
      leaf.set_leaf(j, leaf.leaf_key(j + 1), leaf.leaf_value(j + 1));
    }
    --leaf.count;
    leaf.set_leaf(leaf.count, 0, 0);
    LMP_RETURN_IF_ERROR(WriteNode(from, leaf_idx, leaf, now));
    --size_;
    return Status::Ok();
  }
  return NotFoundError("key " + std::to_string(key));
}

StatusOr<PoolBtree::Rows> PoolBtree::Scan(cluster::ServerId from,
                                          std::uint64_t start,
                                          std::size_t limit, SimTime now) {
  Rows out;
  if (limit == 0) return out;
  LMP_RETURN_IF_ERROR(DescendPath(from, start, now, &path_));
  std::uint32_t node = path_.back();
  while (node != kNilNode && out.size() < limit) {
    LMP_ASSIGN_OR_RETURN(node, ReadLeafRows(from, node, start, limit, &out,
                                            now));
  }
  return out;
}

Status PoolBtree::Release() { return manager_->Free(buffer_); }

}  // namespace lmp::workloads
