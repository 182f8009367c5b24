// BtreeOpDriver: the PoolBtree tenant expressed as OpEngine state machines.
//
// Each get is a root→leaf pointer chase where every hop is a separate
// priced 512-byte read — the op cannot advance past a node until the
// simulator delivers that node's transfer, and the node's home is resolved
// at hop time (migration mid-descent changes what later hops cost, exactly
// like a real RDMA tree walk with no client-side node cache).  Each put
// acquires a striped writer lock (priced round trips, FIFO hand-off),
// re-descends under the lock, applies the mutation, then prices every node
// the insert wrote — leaf, split siblings, ancestors — as a dependent write
// chain before releasing.  A put that fails under the lock hands it on as
// it finishes.  Each scan descends to the start leaf and pays one priced
// read per chained leaf it consumes.
//
// The functional tree operation happens at completion time (when the priced
// transfer lands), so PoolManager's hotness profile sees each node access
// at the simulated instant it occurs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/coherent_region.h"
#include "ops/op_engine.h"
#include "workloads/pool_btree.h"

namespace lmp::ops {

class BtreeOpDriver {
 public:
  struct Options {
    // Writer locks, striped by key hash.  1 = one global writer lock.
    int lock_stripes = 16;
  };

  // Engine and tree must outlive the driver.  The driver owns a private
  // coherent region holding the lock stripes (one cell each), sized for the
  // engine's cluster hosts.
  BtreeOpDriver(OpEngine* engine, workloads::PoolBtree* tree, int num_hosts,
                Options options);
  BtreeOpDriver(OpEngine* engine, workloads::PoolBtree* tree, int num_hosts)
      : BtreeOpDriver(engine, tree, num_hosts, Options()) {}

  // Submit one async op from (server, core).  Results arrive through the
  // engine's completion hook; get/scan deliver their payload to `on_value`
  // / `on_rows` (optional, run just before the op finishes).
  OpId SubmitGet(cluster::ServerId server, int core, std::uint64_t key,
                 std::function<void(StatusOr<std::uint64_t>)> on_value = {});
  OpId SubmitPut(cluster::ServerId server, int core, std::uint64_t key,
                 std::uint64_t value);
  OpId SubmitScan(
      cluster::ServerId server, int core, std::uint64_t start,
      std::size_t limit,
      std::function<void(
          const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>
          on_rows = {});

  workloads::PoolBtree* tree() { return tree_; }
  core::DistributedLock* lock_for(std::uint64_t key) {
    return locks_[key % locks_.size()].get();
  }

 private:
  using RowsPtr = std::shared_ptr<
      std::vector<std::pair<std::uint64_t, std::uint64_t>>>;
  using PathPtr = std::shared_ptr<std::vector<std::uint32_t>>;
  using WritesPtr = std::shared_ptr<std::vector<std::uint32_t>>;

  // Each helper prices one 512-byte node access and, at completion, takes
  // the functional step and issues the next hop (or finishes the op).
  void GetHop(OpEngine::Op& op, std::uint32_t node, std::uint64_t key,
              const std::function<void(StatusOr<std::uint64_t>)>& cb);
  void ScanHop(OpEngine::Op& op, std::uint32_t node, std::uint64_t start,
               std::size_t limit, RowsPtr rows,
               const std::function<void(const std::vector<
                   std::pair<std::uint64_t, std::uint64_t>>&)>& cb);
  void ConsumeLeaf(OpEngine::Op& op, std::uint32_t node, std::uint64_t start,
                   std::size_t limit, RowsPtr rows,
                   const std::function<void(const std::vector<
                       std::pair<std::uint64_t, std::uint64_t>>&)>& cb);
  void PutHop(OpEngine::Op& op, std::uint32_t node, std::uint64_t key,
              std::uint64_t value, core::DistributedLock* lock, PathPtr path);
  void PriceWrites(OpEngine::Op& op, WritesPtr written, std::size_t index,
                   core::DistributedLock* lock);

  OpEngine* engine_;
  workloads::PoolBtree* tree_;
  Options options_;
  std::unique_ptr<core::CoherentRegion> lock_region_;
  std::vector<std::unique_ptr<core::DistributedLock>> locks_;
};

}  // namespace lmp::ops
