// Software memory disaggregation baseline (§2.1).
//
// Before CXL, far memory was reached by SOFTWARE: the kernel or a runtime
// pages data over RDMA (CFM, Infiniswap) or a library issues explicit IOs
// (AIFM).  Every remote access pays a software fault/IO cost — posting the
// request, handling the completion, updating page tables — that no amount
// of link bandwidth hides.  The paper's §2.1 argument for hardware
// disaggregation is exactly this gap.
//
// Model: the working set's resident portion (the server's local memory)
// runs at DRAM speed; the swapped portion moves at page granularity, and
// each core's fault path is rate-limited to page_size / fault_overhead —
// modelled as a per-core "fault handler" resource in series with the
// normal remote link path, so the fluid simulator composes it with fabric
// contention naturally.
#pragma once

#include <memory>

#include "baselines/deployment.h"
#include "cluster/cluster.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::baselines {

struct SoftwareSwapParams {
  Bytes page_size = KiB(4);
  // Per-fault software cost: trap, RDMA post, completion, map update.
  // ~microseconds for kernel swap paths in the systems the paper cites.
  SimTime fault_overhead_ns = Microseconds(4);
};

class SoftwareSwapDeployment : public MemoryDeployment {
 public:
  // Same 4-server / 96 GiB shape as the logical deployment: 24 GiB of
  // local (resident) memory on the runner, remainder in far memory.
  explicit SoftwareSwapDeployment(
      const fabric::LinkProfile& link, SoftwareSwapParams swap = {},
      const cluster::ClusterConfig& config =
          cluster::ClusterConfig::PaperLogical());

  std::string_view name() const override { return "Software swap"; }
  const fabric::LinkProfile& link() const override { return link_; }

  // Healthy runs only: a fault plan or replication is kUnimplemented.
  StatusOr<WorkloadResult> RunWorkload(const WorkloadSpec& spec) override;

  // Average latency of one 64-byte dependent read, resident vs swapped.
  SimTime ResidentReadLatency() const;
  SimTime SwappedReadLatency() const;

 private:
  fabric::LinkProfile link_;
  SoftwareSwapParams swap_;
  cluster::ClusterConfig config_;
  sim::FluidSimulator sim_;
  std::unique_ptr<fabric::Topology> topology_;
  std::vector<sim::ResourceId> fault_handlers_;  // one per runner core
};

}  // namespace lmp::baselines
