// LogicalDeployment: the paper's proposal, on the timing layer.
//
// 4 servers, 24 GB each, every byte shared (§4.1 "Logical").  The vector is
// placed local-first from the running server, so an 8/24 GB vector is fully
// local, a 64 GB vector is 3/8 local, and a 96 GB vector fills the whole
// pool (feasible, unlike the physical pool).  RunWorkload's span builder
// re-locates every core's slice each repetition (a crash may move segment
// homes mid-run): local spans ride core->local-DRAM, remote spans ride
// core->port->peer-port->peer-DRAM.
//
// RunDistributedSum implements §4.4: ComputeShipper::Plan groups the vector
// by home server and a TaskScheduler runs each server's share on its own
// cores — all traffic local.
#pragma once

#include <memory>

#include "baselines/deployment.h"
#include "chaos/fault_injector.h"
#include "cluster/cluster.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::baselines {

class LogicalDeployment : public MemoryDeployment {
 public:
  explicit LogicalDeployment(
      const fabric::LinkProfile& link,
      const cluster::ClusterConfig& config =
          cluster::ClusterConfig::PaperLogical(),
      std::unique_ptr<core::PlacementPolicy> placement = nullptr);

  std::string_view name() const override { return "Logical"; }
  const fabric::LinkProfile& link() const override { return link_; }

  // §4.4 near-memory computing: every server sums its local part.
  StatusOr<VectorSumResult> RunDistributedSum(const VectorSumParams& params);

  // Spans are recomputed every repetition (crash failover moves segment
  // homes mid-run), the fault plan replays on sim time, and the injector's
  // recovery SLOs come back in the result.  Every run, healthy or not,
  // binds the injector.
  StatusOr<WorkloadResult> RunWorkload(const WorkloadSpec& spec) override;

  // Attaches a replication layer (factor = extra copies per segment).
  // Call before the first RunWorkload: the injector binds
  // at first use and a later-attached layer would not have its recovery
  // traffic priced, so enabling it afterwards is FailedPrecondition.
  Status EnableReplication(int factor);

  // Lazily-created injector bound to this deployment's stack.
  chaos::FaultInjector& injector();

  core::PoolManager& manager() { return *manager_; }
  cluster::Cluster& cluster() { return *cluster_; }
  sim::FluidSimulator& simulator() { return sim_; }
  fabric::Topology& topology() { return *topology_; }
  core::ReplicationManager* replication() { return replication_.get(); }

 private:
  fabric::LinkProfile link_;
  sim::FluidSimulator sim_;
  std::unique_ptr<fabric::Topology> topology_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<core::PoolManager> manager_;
  std::unique_ptr<core::ReplicationManager> replication_;
  std::unique_ptr<chaos::FaultInjector> injector_;
};

}  // namespace lmp::baselines
