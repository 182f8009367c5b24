#include "core/compute_ship.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::core {

ComputeShipper::ComputeShipper(PoolManager* manager) : manager_(manager) {
  LMP_CHECK(manager != nullptr);
}

StatusOr<ShipPlan> ComputeShipper::Plan(BufferId buffer, Bytes offset,
                                        Bytes len,
                                        cluster::ServerId requester) const {
  ShipPlan plan;
  std::unordered_map<cluster::ServerId, std::size_t> index;
  Bytes pos = offset;
  bool pool_homed = false;
  LMP_RETURN_IF_ERROR(manager_->ForEachSpan(
      buffer, offset, len, [&](const LocatedSpan& s) {
        pool_homed = pool_homed || s.location.is_pool();
        if (pool_homed) return;
        const cluster::ServerId host = s.location.server;
        const auto [it, added] = index.try_emplace(host, plan.subtasks.size());
        if (added) plan.subtasks.push_back(ShipPlan::SubTask{host, 0, {}});
        ShipPlan::SubTask& task = plan.subtasks[it->second];
        task.bytes += s.bytes;
        task.ranges.emplace_back(pos, s.bytes);
        if (host != requester) plan.remote_bytes_unshipped += s.bytes;
        pos += s.bytes;
      }));
  if (pool_homed) {
    return FailedPreconditionError(
        "compute shipping needs server-homed data (physical pools have no "
        "compute — the paper's point)");
  }
  plan.total_bytes = len;
  return plan;
}

StatusOr<double> ComputeShipper::ShipAndReduce(BufferId buffer, Bytes offset,
                                               Bytes len, const MapFn& map,
                                               SimTime now) const {
  // Plan from the perspective of each chunk's own host, so every read below
  // is local by construction.
  LMP_ASSIGN_OR_RETURN(ShipPlan plan, Plan(buffer, offset, len,
                                           /*requester=*/0));
  double acc = 0.0;
  std::vector<std::byte> scratch;
  for (const ShipPlan::SubTask& task : plan.subtasks) {
    for (const auto& [range_off, range_len] : task.ranges) {
      scratch.resize(range_len);
      LMP_RETURN_IF_ERROR(manager_->Read(task.server, buffer, range_off,
                                         std::span<std::byte>(scratch), now));
      acc += map(task.server, range_off,
                 std::span<const std::byte>(scratch));
    }
  }
  return acc;
}

}  // namespace lmp::core
