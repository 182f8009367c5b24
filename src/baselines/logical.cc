#include "baselines/logical.h"

#include <algorithm>

#include "common/logging.h"
#include "core/compute_ship.h"
#include "core/task_scheduler.h"

namespace lmp::baselines {

LogicalDeployment::LogicalDeployment(
    const fabric::LinkProfile& link, const cluster::ClusterConfig& config,
    std::unique_ptr<core::PlacementPolicy> placement)
    : link_(link) {
  fabric::MachineProfile machine;
  machine.cores_per_server = config.cores_per_server;
  topology_ = std::make_unique<fabric::Topology>(fabric::Topology::MakeLogical(
      &sim_, config.num_servers, link, machine));
  cluster_ = std::make_unique<cluster::Cluster>(config);
  manager_ = std::make_unique<core::PoolManager>(cluster_.get(),
                                                 std::move(placement));
}

Status LogicalDeployment::EnableReplication(int factor) {
  if (factor <= 0) return InvalidArgumentError("replication factor must be > 0");
  if (replication_ != nullptr) {
    if (replication_->replication_factor() != factor) {
      return FailedPreconditionError("replication already enabled at factor " +
                                     std::to_string(
                                         replication_->replication_factor()));
    }
    return Status::Ok();
  }
  if (injector_ != nullptr) {
    return FailedPreconditionError(
        "enable replication before the injector binds (its recovery traffic "
        "would not be priced)");
  }
  replication_ = std::make_unique<core::ReplicationManager>(manager_.get(),
                                                            factor);
  return Status::Ok();
}

chaos::FaultInjector& LogicalDeployment::injector() {
  if (injector_ == nullptr) {
    chaos::FaultInjector::Bindings b;
    b.sim = &sim_;
    b.topology = topology_.get();
    b.manager = manager_.get();
    b.replication = replication_.get();
    injector_ = std::make_unique<chaos::FaultInjector>(b);
  }
  return *injector_;
}

StatusOr<WorkloadResult> LogicalDeployment::RunWorkload(
    const WorkloadSpec& spec) {
  const VectorSumParams& params = spec.vector;
  LMP_RETURN_IF_ERROR(ValidateVectorSum(params, cluster_->config()));
  WorkloadResult out;

  if (spec.replication_factor > 0) {
    LMP_RETURN_IF_ERROR(EnableReplication(spec.replication_factor));
  }

  auto buffer_or = manager_->Allocate(
      params.vector_bytes, static_cast<cluster::ServerId>(params.runner));
  if (!buffer_or.ok()) {
    if (IsOutOfMemory(buffer_or.status())) {
      out.vector.feasible = false;
      out.vector.infeasible_reason = buffer_or.status().message();
      return out;
    }
    return buffer_or.status();
  }
  const core::BufferId buffer = buffer_or.value();

  if (replication_ != nullptr) {
    LMP_RETURN_IF_ERROR(replication_->ProtectBuffer(buffer));
  }
  chaos::FaultInjector& inj = injector();
  if (spec.flight_recorder != nullptr) {
    inj.set_flight_recorder(spec.flight_recorder);
  }
  LMP_RETURN_IF_ERROR(inj.WatchBuffer(buffer));
  if (!spec.faults.empty()) {
    LMP_RETURN_IF_ERROR(inj.SchedulePlan(spec.faults));
  }

  LMP_ASSIGN_OR_RETURN(
      out.vector.local_fraction,
      manager_->LocalFraction(buffer,
                              static_cast<cluster::ServerId>(params.runner)));

  const auto runner = static_cast<fabric::ServerIndex>(params.runner);
  const std::vector<CoreSlice> slices =
      SliceForCores(params.vector_bytes, params.cores);
  // Path for one located span as seen from (runner, core).
  auto path_for = [&](const core::LocatedSpan& ls, int c) {
    LMP_CHECK(!ls.location.is_pool());
    return ls.location.server == runner
               ? topology_->LocalPath(runner, c)
               : topology_->RemotePath(runner, c, ls.location.server);
  };
  auto fabric_degraded = [&] {
    for (int s = 0; s < topology_->num_servers(); ++s) {
      if (topology_->link_degraded(static_cast<fabric::ServerIndex>(s))) {
        return true;
      }
    }
    return false;
  };

  // Span lists are rebuilt EVERY repetition: a crash during rep N fails
  // segments over to new homes, and rep N+1 must read them from where they
  // live now.  Contiguous: core c walks its own 1/Nth of the vector.
  // Balanced: every core takes a proportional share of each located span,
  // so all cores see the same local/remote mix.
  auto build = [&](int) -> StatusOr<RepSpans> {
    RepSpans per_core(params.cores);
    if (!params.balanced_slices) {
      for (int c = 0; c < params.cores; ++c) {
        const CoreSlice& slice = slices[c];
        if (slice.length == 0) continue;
        LMP_RETURN_IF_ERROR(manager_->ForEachSpan(
            buffer, slice.offset, slice.length,
            [&](const core::LocatedSpan& ls) {
              per_core[c].push_back(
                  sim::Span{static_cast<double>(ls.bytes), path_for(ls, c)});
            }));
      }
    } else {
      LMP_RETURN_IF_ERROR(manager_->ForEachSpan(
          buffer, 0, params.vector_bytes, [&](const core::LocatedSpan& ls) {
            const double share = static_cast<double>(ls.bytes) / params.cores;
            for (int c = 0; c < params.cores; ++c) {
              per_core[c].push_back(sim::Span{share, path_for(ls, c)});
            }
          }));
    }
    if (fabric_degraded()) ++out.reps_degraded;
    return per_core;
  };
  LMP_RETURN_IF_ERROR(RunRepetitions(&sim_, params, build, &out));

  // Let outstanding recovery transfers (and any plan tail) finish so
  // time-to-redundancy reflects actual completion, then snapshot SLOs.
  sim_.Run();
  LMP_RETURN_IF_ERROR(inj.ApplyError());
  out.chaos = inj.report();
  LMP_RETURN_IF_ERROR(manager_->Free(buffer));
  return out;
}

StatusOr<VectorSumResult> LogicalDeployment::RunDistributedSum(
    const VectorSumParams& params) {
  LMP_RETURN_IF_ERROR(ValidateVectorSum(params, cluster_->config()));
  VectorSumResult result;

  auto buffer_or = manager_->Allocate(
      params.vector_bytes,
      static_cast<cluster::ServerId>(params.runner));
  if (!buffer_or.ok()) {
    if (IsOutOfMemory(buffer_or.status())) {
      result.feasible = false;
      result.infeasible_reason = buffer_or.status().message();
      return result;
    }
    return buffer_or.status();
  }
  const core::BufferId buffer = buffer_or.value();

  // Every server processes exactly the bytes it hosts, with its own cores:
  // computation shipping makes all accesses local (§4.4).  One task per
  // (host, core) slice, submitted in server-id order.
  LMP_ASSIGN_OR_RETURN(
      core::ShipPlan plan,
      core::ComputeShipper(manager_.get())
          .Plan(buffer, 0, params.vector_bytes,
                static_cast<cluster::ServerId>(params.runner)));
  std::sort(plan.subtasks.begin(), plan.subtasks.end(),
            [](const core::ShipPlan::SubTask& a,
               const core::ShipPlan::SubTask& b) {
              return a.server < b.server;
            });
  std::vector<core::ComputeTask> tasks;
  for (const core::ShipPlan::SubTask& sub : plan.subtasks) {
    for (const CoreSlice& slice : SliceForCores(sub.bytes, params.cores)) {
      if (slice.length == 0) continue;
      tasks.push_back(core::ComputeTask{
          sub.server, static_cast<double>(slice.length), 0});
    }
  }

  core::TaskScheduler scheduler(&sim_, topology_.get(), params.cores);
  const SimTime start = sim_.now();
  for (int rep = 0; rep < params.repetitions; ++rep) {
    for (const core::ComputeTask& task : tasks) {
      LMP_RETURN_IF_ERROR(scheduler.Submit(task));
    }
    scheduler.Drain();
  }

  const SimTime elapsed = sim_.now() - start;
  result.total_time_ns = elapsed;
  result.avg_bandwidth_gbps =
      ToGBps(static_cast<double>(params.vector_bytes) * params.repetitions,
             elapsed);
  result.local_fraction = 1.0;  // by construction
  result.first_rep_gbps = result.avg_bandwidth_gbps;
  result.steady_rep_gbps = result.avg_bandwidth_gbps;
  LMP_CHECK_OK(manager_->Free(buffer));
  return result;
}

}  // namespace lmp::baselines
