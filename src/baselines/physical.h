// Physical-pool baselines (§4.1): a separate 64 GB memory box behind the
// fabric switch, 8 GB of local DRAM per server.
//
// Two variants, as in the paper:
//  * PhysicalNoCache — every pool access crosses the fabric, every time.
//  * PhysicalCache   — local DRAM caches pool data ("caching incurs an
//    upfront memcpy() overhead but provides faster subsequent reads"): the
//    first min(cache, vector) bytes of the vector are copied local on the
//    first repetition and hit thereafter.  Steady-state hit rate =
//    cache/vector.
//
// Feasibility: the vector must fit the pool box's 64 GB.  A 96 GB vector
// fails allocation — Figure 5's result — because no software knob can move
// DIMMs out of the servers into the box.
#pragma once

#include <memory>

#include "baselines/deployment.h"
#include "cluster/cluster.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::baselines {

class PhysicalDeployment : public MemoryDeployment {
 public:
  // The paper's physical cluster (ClusterConfig::PaperPhysical()) with one
  // pool port.  use_cache=false gives the "Physical no-cache" baseline.
  PhysicalDeployment(const fabric::LinkProfile& link, bool use_cache);

  std::string_view name() const override {
    return use_cache_ ? "Physical cache" : "Physical no-cache";
  }
  const fabric::LinkProfile& link() const override { return link_; }

  // Chaos-aware run.  The physical pool's failure story is the paper's §5
  // contrast: a server crash loses no pooled data (it lives on the pool
  // box), but every pool access rides the runner's link, so degrading it
  // throttles the whole workload.  No replication layer exists here.
  // An infeasible run still schedules its fault plan and runs it out so
  // `chaos` reports the faults.
  StatusOr<WorkloadResult> RunWorkload(const WorkloadSpec& spec) override;

  // Lazily-created injector bound to sim/topology/cluster (no manager:
  // crashes only mark cluster state).
  chaos::FaultInjector& injector();

  sim::FluidSimulator& simulator() { return sim_; }
  fabric::Topology& topology() { return *topology_; }
  cluster::Cluster& cluster() { return *cluster_; }

 private:
  fabric::LinkProfile link_;
  bool use_cache_;
  sim::FluidSimulator sim_;
  std::unique_ptr<fabric::Topology> topology_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<chaos::FaultInjector> injector_;
};

}  // namespace lmp::baselines
