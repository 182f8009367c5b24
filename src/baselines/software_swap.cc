#include "baselines/software_swap.h"

#include "common/logging.h"

namespace lmp::baselines {

SoftwareSwapDeployment::SoftwareSwapDeployment(
    const fabric::LinkProfile& link, SoftwareSwapParams swap,
    const cluster::ClusterConfig& config)
    : link_(link), swap_(swap), config_(config) {
  fabric::MachineProfile machine;
  machine.cores_per_server = config.cores_per_server;
  topology_ = std::make_unique<fabric::Topology>(fabric::Topology::MakeLogical(
      &sim_, config.num_servers, link, machine));
  // One fault-handler resource per runner core: a core cannot retire
  // swapped bytes faster than it can process faults.
  const BytesPerSec fault_rate =
      static_cast<double>(swap_.page_size) /
      (swap_.fault_overhead_ns / kNsPerSec);
  for (int c = 0; c < config.cores_per_server; ++c) {
    fault_handlers_.push_back(sim_.AddResource(
        "fault_handler.core" + std::to_string(c), fault_rate));
  }
}

StatusOr<WorkloadResult> SoftwareSwapDeployment::RunWorkload(
    const WorkloadSpec& spec) {
  const VectorSumParams& params = spec.vector;
  LMP_RETURN_IF_ERROR(ValidateVectorSum(params, config_));
  if (!spec.faults.empty() || spec.replication_factor > 0) {
    return UnimplementedError(std::string(name()) +
                              " has no fault-injection support");
  }
  WorkloadResult out;
  // Resident set = the runner's local memory; swapped = the rest, living
  // in peers' memory (one-third on each of the other three servers).
  const Bytes resident =
      std::min<Bytes>(config_.server_total_memory, params.vector_bytes);
  const Bytes swapped = params.vector_bytes - resident;
  if (swapped >
      config_.server_total_memory * (config_.num_servers - 1)) {
    out.vector.feasible = false;
    out.vector.infeasible_reason = "far-memory hosts too small";
    return out;
  }
  out.vector.local_fraction = static_cast<double>(resident) /
                              static_cast<double>(params.vector_bytes);

  const auto runner = static_cast<fabric::ServerIndex>(params.runner);
  const std::vector<CoreSlice> slices =
      SliceForCores(params.vector_bytes, params.cores);
  auto build = [&](int) -> StatusOr<RepSpans> {
    RepSpans per_core(params.cores);
    for (int c = 0; c < params.cores; ++c) {
      const CoreSlice& slice = slices[c];
      std::vector<sim::Span>& spans = per_core[c];
      // Resident prefix of this slice.
      const Bytes res_end = std::min<Bytes>(resident, slice.offset +
                                                           slice.length);
      const Bytes res_len =
          res_end > slice.offset ? res_end - slice.offset : 0;
      if (res_len > 0) {
        spans.push_back(sim::Span{static_cast<double>(res_len),
                                  topology_->LocalPath(runner, c)});
      }
      Bytes swap_len = slice.length - res_len;
      if (swap_len > 0) {
        // Swapped bytes spread over the peer hosts; chain the fault
        // handler into each remote path.
        const int peers = config_.num_servers - 1;
        const Bytes per_peer = (swap_len + peers - 1) / peers;
        for (int p = 0; p < peers && swap_len > 0; ++p) {
          const auto host = static_cast<fabric::ServerIndex>(
              (params.runner + 1 + p) % config_.num_servers);
          const Bytes take = std::min<Bytes>(per_peer, swap_len);
          auto path = topology_->RemotePath(runner, c, host);
          path.push_back(fault_handlers_[c]);
          spans.push_back(sim::Span{static_cast<double>(take), path});
          swap_len -= take;
        }
      }
    }
    return per_core;
  };
  LMP_RETURN_IF_ERROR(RunRepetitions(&sim_, params, build, &out));
  return out;
}

SimTime SoftwareSwapDeployment::ResidentReadLatency() const {
  return topology_->machine().dram.LoadedLatency(0);
}

SimTime SoftwareSwapDeployment::SwappedReadLatency() const {
  // A dependent swapped read faults: software overhead + one page over the
  // link + the remote DRAM access.
  return swap_.fault_overhead_ns +
         static_cast<double>(swap_.page_size) / link_.bandwidth *
             kNsPerSec +
         link_.LoadedLatency(0);
}

}  // namespace lmp::baselines
