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
//
// Each in-flight op's state (node, key, value, lock, callbacks, and the
// scan's rows, the put's path and written nodes) is one OpEngine::OpState
// record, recycled through a driver-owned free list: its vectors keep
// their capacity from op to op, and every step captures only the driver
// and the record, so a hop allocates nothing once the lists are warm.  The
// engine releases the record when the op ends, however it ends, before the
// completion hook runs; no step touches its record after Finish.
#pragma once

#include <cstddef>
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
  // Writer locks, striped by key: key k takes stripe k % kLockStripes.
  static constexpr int kLockStripes = 16;

  // Engine and tree must outlive the driver.  The driver owns a private
  // coherent region holding the lock stripes (one cell each), sized for the
  // engine's cluster hosts.
  BtreeOpDriver(OpEngine* engine, workloads::PoolBtree* tree, int num_hosts);
  // Steps and op records hold the driver's address.
  BtreeOpDriver(const BtreeOpDriver&) = delete;
  BtreeOpDriver& operator=(const BtreeOpDriver&) = delete;

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
  // Op records held by submitted ops that have not finished yet.
  std::size_t states_in_use() const { return states_.size() - free_.size(); }

 private:
  using Rows = workloads::PoolBtree::Rows;

  // One op's state; see the header comment.
  struct State final : OpEngine::OpState {
    // Clears the record (its vectors keep their capacity), dropping the
    // callbacks, and returns it to the driver's free list.
    void Release() override;

    BtreeOpDriver* driver = nullptr;
    std::uint32_t node = 0;   // the node the next hop reads
    std::uint64_t key = 0;    // get/put key, scan start
    std::uint64_t value = 0;  // put value
    std::size_t limit = 0;    // scan row limit
    core::DistributedLock* lock = nullptr;  // put stripe
    std::function<void(StatusOr<std::uint64_t>)> on_value;
    std::function<void(const Rows&)> on_rows;
    Rows rows;                          // scan
    std::vector<std::uint32_t> path;     // put: root→leaf descent
    std::vector<std::uint32_t> written;  // put: nodes the insert wrote
    std::size_t next_write = 0;          // put: next `written` to price
  };

  // A cleared record: the free list's last, or a new one.
  State* NewState();

  // Each helper prices one 512-byte node access and, at completion, takes
  // the functional step and issues the next hop (or finishes the op).
  void GetHop(OpEngine::Op& op, State* s);
  void ScanHop(OpEngine::Op& op, State* s);
  void ConsumeLeaf(OpEngine::Op& op, State* s);
  // Ends a scan after a leaf: follows the chain to `next` while rows are
  // short, else delivers them and finishes.
  void ScanOn(OpEngine::Op& op, State* s, std::uint32_t next);
  void PutHop(OpEngine::Op& op, State* s);
  void PriceWrites(OpEngine::Op& op, State* s);

  OpEngine* engine_;
  workloads::PoolBtree* tree_;
  std::unique_ptr<core::CoherentRegion> lock_region_;
  std::vector<std::unique_ptr<core::DistributedLock>> locks_;
  // Every record ever made, and the ones no op holds.
  std::vector<std::unique_ptr<State>> states_;
  std::vector<State*> free_;
};

}  // namespace lmp::ops
