#include "baselines/deployment.h"

#include <memory>

#include "common/logging.h"

namespace lmp::baselines {

Status ValidateVectorSum(const VectorSumParams& params,
                         const cluster::ClusterConfig& config) {
  if (params.vector_bytes == 0) {
    return InvalidArgumentError("vector_bytes must be > 0");
  }
  if (params.repetitions < 1) {
    return InvalidArgumentError("repetitions must be >= 1");
  }
  if (params.cores < 1 || params.cores > config.cores_per_server) {
    return InvalidArgumentError(
        "cores must be in [1, " + std::to_string(config.cores_per_server) +
        "], got " + std::to_string(params.cores));
  }
  if (params.runner < 0 || params.runner >= config.num_servers) {
    return InvalidArgumentError(
        "runner must be in [0, " + std::to_string(config.num_servers) +
        "), got " + std::to_string(params.runner));
  }
  return Status::Ok();
}

std::vector<CoreSlice> SliceForCores(Bytes total, int cores) {
  LMP_CHECK(cores > 0);
  std::vector<CoreSlice> slices;
  slices.reserve(cores);
  const Bytes base = total / cores;
  Bytes pos = 0;
  for (int c = 0; c < cores; ++c) {
    // Last core absorbs the remainder.
    const Bytes len = (c + 1 == cores) ? (total - pos) : base;
    slices.push_back(CoreSlice{pos, len});
    pos += len;
  }
  return slices;
}

Status RunRepetitions(sim::FluidSimulator* sim, const VectorSumParams& params,
                      const SpanBuilder& build, WorkloadResult* out) {
  const SimTime start = sim->now();
  int reps_served = 0;
  for (int rep = 0; rep < params.repetitions; ++rep) {
    StatusOr<RepSpans> spans = build(rep);
    if (IsDataLoss(spans.status())) {
      // Part of the buffer is gone and nothing can rebuild it; this
      // repetition cannot run.  Sim time does not advance, so the
      // unavailability is charged to the open window, not the workload.
      ++out->reps_unavailable;
      continue;
    }
    LMP_RETURN_IF_ERROR(spans.status());
    std::vector<std::unique_ptr<sim::SpanStream>> streams;
    for (std::vector<sim::Span>& list : *spans) {
      if (list.empty()) continue;
      streams.push_back(
          std::make_unique<sim::SpanStream>(sim, std::move(list)));
    }
    const double gbps = sim::RunStreams(sim, std::move(streams)).gbps;
    if (reps_served == 0) out->vector.first_rep_gbps = gbps;
    out->vector.steady_rep_gbps = gbps;
    ++reps_served;
  }
  const SimTime elapsed = sim->now() - start;
  out->vector.total_time_ns = elapsed;
  if (elapsed > 0) {
    out->vector.avg_bandwidth_gbps = ToGBps(
        static_cast<double>(params.vector_bytes) * reps_served, elapsed);
  }
  return Status::Ok();
}

}  // namespace lmp::baselines
