#include "baselines/physical.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::baselines {
namespace {

// Flow batching for the LRU variant: pages are classified individually but
// adjacent same-class pages coalesce into one simulator span.
constexpr Bytes kLruPage = KiB(64);

}  // namespace

chaos::FaultInjector& PhysicalDeployment::injector(
    const chaos::InjectorOptions& options) {
  if (injector_ == nullptr) {
    chaos::FaultInjector::Bindings b;
    b.sim = &sim_;
    b.topology = topology_.get();
    b.cluster = cluster_.get();
    injector_ = std::make_unique<chaos::FaultInjector>(b, options);
  }
  return *injector_;
}

Status PhysicalDeployment::ApplyFault(const chaos::FaultEvent& event) {
  return injector().Apply(event);
}

PhysicalDeployment::PhysicalDeployment(const fabric::LinkProfile& link,
                                       bool use_cache, CachePolicy policy,
                                       const cluster::ClusterConfig& config,
                                       int pool_ports)
    : link_(link), use_cache_(use_cache), policy_(policy) {
  LMP_CHECK(config.physical_pool) << "physical deployment needs a pool box";
  fabric::MachineProfile machine;
  machine.cores_per_server = config.cores_per_server;
  topology_ =
      std::make_unique<fabric::Topology>(fabric::Topology::MakePhysical(
          &sim_, config.num_servers, link, machine, pool_ports));
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
  chaos::FaultInjector& inj = injector(spec.injector);
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
      std::vector<sim::ResourceId> path = topology_->PoolPath(runner, c);
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

    mem::LruCache cache(std::max<std::uint64_t>(1, cache_capacity / kLruPage));
    // Dirty evictions flush back to the pool box by DMA: local DRAM read,
    // then the same fabric hops a fill takes, in reverse.  No core
    // constraint — a writeback engine does the copy.
    std::vector<sim::ResourceId> writeback_path =
        topology_->DmaPoolPath(runner);
    writeback_path.insert(writeback_path.begin(), topology_->dram(runner));
    auto lru_cache = [&](int) -> StatusOr<RepSpans> {
      // Classify pages core-by-core in an interleaved page order so the
      // shared cache sees roughly concurrent streams, then coalesce runs of
      // equal outcome into spans.
      RepSpans spans(params.cores);
      std::vector<Bytes> cursor(params.cores, 0);
      Bytes rep_writeback = 0;
      bool work_left = true;
      while (work_left) {
        work_left = false;
        for (int c = 0; c < params.cores; ++c) {
          const CoreSlice& slice = slices[c];
          if (cursor[c] >= slice.length) continue;
          work_left = true;
          const Bytes off = slice.offset + cursor[c];
          const Bytes take =
              std::min<Bytes>(kLruPage, slice.length - cursor[c]);
          const bool hit = cache.Access(off / kLruPage, params.write);
          for (const auto& ev : cache.TakeEvicted()) {
            if (ev.dirty) rep_writeback += kLruPage;
          }
          auto path = hit ? topology_->LocalPath(runner, c) : fill_path(c);
          if (!spans[c].empty() && spans[c].back().path == path) {
            spans[c].back().bytes += static_cast<double>(take);
          } else {
            spans[c].push_back(sim::Span{static_cast<double>(take), path});
          }
          cursor[c] += take;
        }
      }
      if (rep_writeback > 0) {
        // One coalesced writeback stream per repetition, after the cores',
        // contending with the fills for the server port, pool port, and
        // pool DRAM.
        spans.push_back(
            {sim::Span{static_cast<double>(rep_writeback), writeback_path}});
        out.vector.writeback_bytes += rep_writeback;
      }
      return spans;
    };

    const bool pinned_policy = policy_ == CachePolicy::kPinned;
    const Status st = RunRepetitions(
        &sim_, params,
        !use_cache_ ? SpanBuilder(no_cache)
                    : (pinned_policy ? SpanBuilder(pinned_cache)
                                     : SpanBuilder(lru_cache)),
        &out);
    LMP_CHECK_OK(alloc.Free(frames_or.value()));
    LMP_RETURN_IF_ERROR(st);
    if (use_cache_) {
      out.vector.cache_hit_rate =
          pinned_policy ? static_cast<double>(pinned) /
                              static_cast<double>(params.vector_bytes)
                        : cache.stats().HitRate();
    }
  }

  if (spec.drain_recovery) sim_.Run();
  LMP_RETURN_IF_ERROR(inj.ApplyError());
  out.chaos = inj.report();
  return out;
}

}  // namespace lmp::baselines
