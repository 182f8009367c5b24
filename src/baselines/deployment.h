// MemoryDeployment: the experiment-facing interface over a deployment.
//
// §4.1's microbenchmark: one server sums a large vector that lives in
// disaggregated memory, using all 14 cores (each core sums a contiguous
// slice), repeated 10 times; the metric is average bandwidth.  Every
// deployment — Logical, Physical cache, Physical no-cache, software swap —
// implements RunWorkload, the one entry point, and hands RunRepetitions a
// span builder: the shared loop streams each repetition's per-core spans
// through the fluid simulator, so Figures 2–5 are produced by one harness.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "fabric/link.h"
#include "sim/fluid.h"
#include "sim/stream.h"

namespace lmp::obs {
class FlightRecorder;
}

namespace lmp::baselines {

struct VectorSumParams {
  Bytes vector_bytes = GiB(8);
  int repetitions = 10;   // the paper repeats 10x and averages
  int runner = 0;         // server executing the sum
  int cores = 14;         // cores used by the runner
  // Work assignment across cores.  false = contiguous 1/Nth slices (the
  // paper's natural reading: cores over the local prefix finish early and
  // the makespan is remote-bound).  true = every core gets a proportional
  // share of each location (balanced local/remote mix per core), which
  // makes the logical pool's advantage grow as the link slows — the
  // slicing ablation explores the difference.
  bool balanced_slices = false;
};

struct VectorSumResult {
  bool feasible = true;
  std::string infeasible_reason;
  double avg_bandwidth_gbps = 0;    // total bytes / total time
  double first_rep_gbps = 0;        // includes cold cache fills
  double steady_rep_gbps = 0;       // last repetition
  double local_fraction = 0;        // fraction of vector local to runner
  double cache_hit_rate = 0;        // physical-cache only
  SimTime total_time_ns = 0;
};

// The unified workload description: the vector-sum microbenchmark plus an
// optional fault schedule replayed (in sim time) while it runs.  This is
// the one entry point benches use for both healthy and chaos runs, so the
// logical/physical comparison is apples-to-apples.  After the last
// repetition every deployment runs the simulator to idle, so in-flight
// recovery transfers (and any plan events past the workload) complete:
// time-to-redundancy needs the recovery tail, not just the workload
// window.  total_time_ns still covers only the repetitions.
struct WorkloadSpec {
  VectorSumParams vector{};
  // Failures injected while the workload runs (empty = healthy run).
  chaos::FaultPlan faults{};
  // > 0: protect the workload buffer with this many extra replicas before
  // faults fire.  Only the logical deployment has a replication layer.
  int replication_factor = 0;
  // Optional chaos flight recorder bound to the injector for this run:
  // fault/recovery events land in its ring and each crash freezes a
  // postmortem.  Passed through the spec (rather than set on the injector
  // directly) because deployments create their injector lazily inside
  // RunWorkload, after the replication layer exists.  Must outlive the
  // deployment.
  obs::FlightRecorder* flight_recorder = nullptr;
};

struct WorkloadResult {
  VectorSumResult vector;
  // Recovery SLOs measured by the injector (all zeros for healthy runs).
  chaos::ChaosReport chaos;
  // Repetitions skipped because the buffer had unrecoverable lost
  // segments, and repetitions that started on a degraded fabric.
  int reps_unavailable = 0;
  int reps_degraded = 0;
};

class MemoryDeployment {
 public:
  virtual ~MemoryDeployment() = default;
  virtual std::string_view name() const = 0;
  virtual const fabric::LinkProfile& link() const = 0;

  // The one entry point: runs the paper's aggregation microbenchmark
  // `spec.vector` while replaying `spec.faults`.  A healthy run is
  // `RunWorkload({.vector = params})`.  An infeasible workload (vector
  // larger than the pool — Figure 5's physical case) reports
  // feasible=false rather than an error: infeasibility IS the result.
  // Bad params (see ValidateVectorSum) are InvalidArgument.  A deployment
  // without a failure model returns kUnimplemented for a fault plan or
  // replication.
  virtual StatusOr<WorkloadResult> RunWorkload(const WorkloadSpec& spec) = 0;
};

// InvalidArgument unless `params` fits a deployment of shape `config`:
// vector_bytes > 0, repetitions >= 1, cores in [1, cores_per_server] and
// runner in [0, num_servers).
Status ValidateVectorSum(const VectorSumParams& params,
                         const cluster::ClusterConfig& config);

// Contiguous per-core slices of [0, total): core i gets
// [i*total/cores, (i+1)*total/cores).
struct CoreSlice {
  Bytes offset = 0;
  Bytes length = 0;
};
std::vector<CoreSlice> SliceForCores(Bytes total, int cores);

// One repetition's work: a span list per core, in core order; empty lists
// are skipped.
using RepSpans = std::vector<std::vector<sim::Span>>;
using SpanBuilder = std::function<StatusOr<RepSpans>(int rep)>;

// The vector-sum repetition loop shared by every deployment.  For each of
// params.repetitions reps it calls build(rep), runs one SpanStream per
// non-empty list concurrently, and records the rep's bandwidth.  A
// kDataLoss from build skips the rep (counted in out->reps_unavailable);
// any other error aborts.  Fills out->vector's total_time_ns and
// avg/first/steady GB/s; the builder owns every other field.
Status RunRepetitions(sim::FluidSimulator* sim, const VectorSumParams& params,
                      const SpanBuilder& build, WorkloadResult* out);

}  // namespace lmp::baselines
