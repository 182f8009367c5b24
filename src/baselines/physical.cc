#include "baselines/physical.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::baselines {

chaos::FaultInjector& PhysicalDeployment::injector() {
  if (injector_ == nullptr) {
    chaos::FaultInjector::Bindings b;
    b.sim = &sim_;
    b.topology = topology_.get();
    b.cluster = cluster_.get();
    injector_ = std::make_unique<chaos::FaultInjector>(b);
  }
  return *injector_;
}

PhysicalDeployment::PhysicalDeployment(const fabric::LinkProfile& link,
                                       bool use_cache)
    : link_(link), use_cache_(use_cache) {
  const cluster::ClusterConfig config =
      cluster::ClusterConfig::PaperPhysical();
  fabric::MachineProfile machine;
  machine.cores_per_server = config.cores_per_server;
  topology_ = std::make_unique<fabric::Topology>(
      fabric::Topology::MakePhysical(&sim_, config.num_servers, link, machine));
  cluster_ = std::make_unique<cluster::Cluster>(config);
}

StatusOr<WorkloadResult> PhysicalDeployment::RunWorkload(
    const WorkloadSpec& spec) {
  const VectorSumParams& params = spec.vector;
  LMP_RETURN_IF_ERROR(ValidateVectorSum(params, cluster_->config()));
  if (spec.replication_factor > 0) {
    return FailedPreconditionError(
        "physical pool has no replication layer to protect buffers with");
  }
  WorkloadResult out;
  chaos::FaultInjector& inj = injector();
  if (spec.flight_recorder != nullptr) {
    inj.set_flight_recorder(spec.flight_recorder);
  }
  if (!spec.faults.empty()) {
    LMP_RETURN_IF_ERROR(inj.SchedulePlan(spec.faults));
  }

  // Feasibility gate: the vector must fit the pool box.
  auto& alloc = cluster_->pool().allocator();
  auto frames_or = alloc.Allocate(mem::AllocRequest::Of(
      mem::FramesForBytes(params.vector_bytes, cluster_->config().frame_size)));
  if (!frames_or.ok()) {
    if (!IsOutOfMemory(frames_or.status())) return frames_or.status();
    out.vector.feasible = false;
    out.vector.infeasible_reason =
        "vector does not fit the physical pool (" +
        std::to_string(cluster_->pool().capacity() / kGiB) +
        " GiB) and the local/pool ratio is fixed in hardware";
  } else {
    // The fault timers fire inside the repetitions' stream loops; pooled
    // data survives server crashes by construction, so the spans need no
    // re-locating between repetitions.  local_fraction stays 0: the data
    // is pool-homed and locality comes from the cache.
    const auto runner = static_cast<fabric::ServerIndex>(params.runner);
    const std::vector<CoreSlice> slices =
        SliceForCores(params.vector_bytes, params.cores);
    const Bytes cache_capacity =
        cluster_->config().server_total_memory;  // local DRAM acts as cache
    // Fill path: pool -> fabric -> local DRAM write, consumed by the core
    // as it copies (the paper's "upfront memcpy overhead").
    auto fill_path = [&](int c) {
      sim::Path path = topology_->PoolPath(runner, c);
      path.push_back(topology_->dram(runner));
      return path;
    };

    auto no_cache = [&](int) -> StatusOr<RepSpans> {
      RepSpans per_core(params.cores);
      for (int c = 0; c < params.cores; ++c) {
        if (slices[c].length == 0) continue;
        per_core[c].push_back(sim::Span{static_cast<double>(slices[c].length),
                                        topology_->PoolPath(runner, c)});
      }
      return per_core;
    };

    // The first min(cache, vector) bytes are copied local on the first
    // repetition and hit thereafter.
    const Bytes pinned = std::min(cache_capacity, params.vector_bytes);
    auto pinned_cache = [&](int rep) -> StatusOr<RepSpans> {
      RepSpans per_core(params.cores);
      for (int c = 0; c < params.cores; ++c) {
        const CoreSlice& slice = slices[c];
        // Overlap of this slice with the pinned prefix [0, pinned).
        const Bytes cached_end =
            std::min<Bytes>(pinned, slice.offset + slice.length);
        const Bytes cached_len =
            cached_end > slice.offset ? cached_end - slice.offset : 0;
        const Bytes uncached_len = slice.length - cached_len;
        if (cached_len > 0) {
          per_core[c].push_back(sim::Span{
              static_cast<double>(cached_len),
              rep == 0 ? fill_path(c) : topology_->LocalPath(runner, c)});
        }
        if (uncached_len > 0) {
          per_core[c].push_back(sim::Span{static_cast<double>(uncached_len),
                                          topology_->PoolPath(runner, c)});
        }
      }
      return per_core;
    };

    const Status st = RunRepetitions(
        &sim_, params,
        use_cache_ ? SpanBuilder(pinned_cache) : SpanBuilder(no_cache), &out);
    LMP_CHECK_OK(alloc.Free(frames_or.value()));
    LMP_RETURN_IF_ERROR(st);
    if (use_cache_) {
      out.vector.cache_hit_rate = static_cast<double>(pinned) /
                                  static_cast<double>(params.vector_bytes);
    }
  }

  sim_.Run();
  LMP_RETURN_IF_ERROR(inj.ApplyError());
  out.chaos = inj.report();
  return out;
}

}  // namespace lmp::baselines
