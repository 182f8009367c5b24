// PoolBtree: a distributed ordered index whose nodes live in the pool.
//
// The second application §6 inherits from the RDMA stack (after the KV
// store): a B+tree over disaggregated memory, in the shape of the
// sst-elements async B+tree — fixed-size nodes in a remote-memory arena,
// every access a priced pointer chase.  Nodes are 512-byte blocks inside
// one pool buffer, so node placement is segment placement: migration
// re-homes subtrees, drains compact them, crashes lose or fail them over,
// and the hotness profile sees every root→leaf walk.
//
// Two surfaces:
//  * Synchronous functional ops (Insert/Lookup/Erase/Scan) — every node
//    touched goes through PoolManager::Read/Write, so the fuzz tests can
//    interleave structural churn (migrate/compact/crash) with a std::map
//    reference model.
//  * A step API for the request-level engine (src/ops):  DescendStep reads
//    ONE node and names the next hop, ReadLeafRows reads one leaf of a
//    scan chain, and InsertAtPath applies a mutation to a previously
//    descended path while reporting which nodes it wrote — so the async
//    driver can price each hop and each write as separate simulator
//    transfers, never advancing on cached nodes.
//
// Deletion is lazy (tombstone-free): keys are removed from leaves, but
// empty leaves stay chained and separators are not rebalanced — standard
// for RDMA-resident trees, where rebalancing costs remote round trips and
// range queries tolerate sparse leaves.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pool_manager.h"

namespace lmp::workloads {

class PoolBtree {
 public:
  static constexpr Bytes kNodeBytes = 512;
  static constexpr std::uint32_t kNilNode = 0xFFFFFFFFu;
  // 31 key/value pairs per leaf; 30 separators / 31 children per inner.
  static constexpr std::uint32_t kLeafCap = 31;
  static constexpr std::uint32_t kInnerKeyCap = 30;

  // Key/value pairs in key order (scan results).
  using Rows = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  // Allocates an arena of `max_nodes` nodes from the pool, preferring
  // `home`, and writes an empty root leaf.  The manager must outlive the
  // tree.
  static StatusOr<PoolBtree> Create(core::PoolManager* manager,
                                    std::uint32_t max_nodes,
                                    cluster::ServerId home);

  // Functional surface ------------------------------------------------------

  // Inserts or overwrites.  kOutOfMemory when a split needs a node and the
  // arena is exhausted.
  Status Insert(cluster::ServerId from, std::uint64_t key,
                std::uint64_t value, SimTime now = 0);

  // kNotFound when absent.
  StatusOr<std::uint64_t> Lookup(cluster::ServerId from, std::uint64_t key,
                                 SimTime now = 0);

  Status Erase(cluster::ServerId from, std::uint64_t key, SimTime now = 0);

  // Up to `limit` key/value pairs with key >= start, in key order.
  StatusOr<Rows> Scan(cluster::ServerId from, std::uint64_t start,
                      std::size_t limit, SimTime now = 0);

  // Step surface (request/op engine) ---------------------------------------

  struct DescendResult {
    bool leaf = false;           // `node` itself is a leaf
    std::uint32_t child = kNilNode;  // next hop when !leaf
    bool found = false;          // when leaf: key present?
    std::uint64_t value = 0;     // when leaf && found
  };
  // Reads exactly one node and resolves the next hop of a key descent.
  StatusOr<DescendResult> DescendStep(cluster::ServerId from,
                                      std::uint32_t node, std::uint64_t key,
                                      SimTime now = 0);

  struct ScanStep {
    bool leaf = false;
    std::uint32_t child = kNilNode;  // next hop when !leaf
    std::uint32_t next = kNilNode;   // when leaf: following leaf in the chain
  };
  // One-read descent step for scans: inner nodes name the child a range
  // starting at `start` descends into; the leaf appends its entries to
  // *rows (as ReadLeafRows does), so scan drivers never pay for the same
  // node twice.
  StatusOr<ScanStep> ScanDescendStep(cluster::ServerId from,
                                     std::uint32_t node, std::uint64_t start,
                                     std::size_t limit, Rows* rows,
                                     SimTime now = 0);

  // Reads exactly one leaf node of the scan chain and appends its entries
  // with key >= start to *rows, in key order, while *rows holds fewer than
  // `limit`.  Returns the following leaf (kNilNode at the chain's end).
  StatusOr<std::uint32_t> ReadLeafRows(cluster::ServerId from,
                                       std::uint32_t node,
                                       std::uint64_t start, std::size_t limit,
                                       Rows* rows, SimTime now = 0);

  // The root→leaf node path a descent for `key` takes right now.
  Status DescendPath(cluster::ServerId from, std::uint64_t key, SimTime now,
                     std::vector<std::uint32_t>* path);

  // Applies an insert/overwrite at a path previously returned by
  // DescendPath (the caller holds whatever lock keeps it valid).  Appends
  // the index of every node written — leaf, split siblings, touched
  // ancestors, a new root — to `written` (when non-null), so callers can
  // price the write traffic hop by hop.
  Status InsertAtPath(cluster::ServerId from,
                      const std::vector<std::uint32_t>& path,
                      std::uint64_t key, std::uint64_t value, SimTime now,
                      std::vector<std::uint32_t>* written);

  // Introspection -----------------------------------------------------------

  std::uint64_t size() const { return size_; }
  std::uint32_t root() const { return root_; }
  int height() const { return height_; }
  std::uint32_t node_count() const { return used_nodes_; }
  std::uint32_t max_nodes() const { return max_nodes_; }
  core::BufferId buffer() const { return buffer_; }
  Bytes NodeOffset(std::uint32_t node) const { return node * kNodeBytes; }
  std::uint64_t node_reads() const { return node_reads_; }
  std::uint64_t node_writes() const { return node_writes_; }
  std::uint64_t splits() const { return splits_; }

  Status Release();

 private:
  // On-pool node image.  One 512-byte block per node:
  //   header: is_leaf, count, next (leaf chain), pad — 16 bytes
  //   slots:  62 u64 —
  //     leaf:  key(i) = slot[2i], value(i) = slot[2i+1]   (31 pairs)
  //     inner: key(i) = slot[i] (i < 30), child(i) = slot[30+i] (i < 31)
  //
  // A default NodeBlock is an empty inner node, zeroed, for blocks that are
  // built and then written.  The read paths use NodeBlock(kUnzeroed):
  // ReadNode overwrites all 512 bytes before any field is read, so zeroing
  // them first would be wasted work.
  struct Unzeroed {};
  static constexpr Unzeroed kUnzeroed{};
  struct NodeBlock {
    NodeBlock() : is_leaf(0), count(0), next(kNilNode), pad(0), slot{} {}
    explicit NodeBlock(Unzeroed) {}

    std::uint32_t is_leaf;
    std::uint32_t count;
    std::uint32_t next;
    std::uint32_t pad;
    std::uint64_t slot[62];

    std::uint64_t leaf_key(std::uint32_t i) const { return slot[2 * i]; }
    std::uint64_t leaf_value(std::uint32_t i) const { return slot[2 * i + 1]; }
    void set_leaf(std::uint32_t i, std::uint64_t k, std::uint64_t v) {
      slot[2 * i] = k;
      slot[2 * i + 1] = v;
    }
    std::uint64_t inner_key(std::uint32_t i) const { return slot[i]; }
    std::uint32_t inner_child(std::uint32_t i) const {
      return static_cast<std::uint32_t>(slot[kInnerKeyCap + i]);
    }
    void set_inner_key(std::uint32_t i, std::uint64_t k) { slot[i] = k; }
    void set_inner_child(std::uint32_t i, std::uint32_t c) {
      slot[kInnerKeyCap + i] = c;
    }
    // Child position a key descent takes: number of separators <= key
    // (split promotes the right sibling's smallest key, so equal keys go
    // right).
    std::uint32_t ChildIndexFor(std::uint64_t key) const;
    // Appends this leaf's entries with key >= start to *rows while it
    // holds fewer than `limit`.
    void AppendRows(std::uint64_t start, std::size_t limit, Rows* rows) const;
  };
  static_assert(sizeof(NodeBlock) == kNodeBytes);

  PoolBtree(core::PoolManager* manager, core::BufferId buffer,
            std::uint32_t max_nodes)
      : manager_(manager), buffer_(buffer), max_nodes_(max_nodes) {}

  // Reads `node` into *block (in place: a hop copies no node image).
  Status ReadNode(cluster::ServerId from, std::uint32_t node, SimTime now,
                  NodeBlock* block);
  Status WriteNode(cluster::ServerId from, std::uint32_t node,
                   const NodeBlock& block, SimTime now);
  StatusOr<std::uint32_t> AllocNode();

  core::PoolManager* manager_ = nullptr;
  core::BufferId buffer_ = core::kInvalidBuffer;
  std::uint32_t max_nodes_ = 0;
  std::uint32_t used_nodes_ = 0;
  std::uint32_t root_ = 0;
  int height_ = 1;
  std::uint64_t size_ = 0;
  std::uint64_t node_reads_ = 0;
  std::uint64_t node_writes_ = 0;
  std::uint64_t splits_ = 0;
  // The descent path Insert, Erase and Scan walk; reused, so it keeps its
  // capacity.
  std::vector<std::uint32_t> path_;
};

}  // namespace lmp::workloads
