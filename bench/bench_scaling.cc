// Server-count scaling: how the logical pool's aggregate near-memory
// bandwidth and its all-remote worst case grow with deployment size
// (toward the paper's "10-100 TB of shared memory" vision, §3.2).
// Distributed (shipped) sums scale with servers x local DRAM; the
// all-remote pattern scales with servers x link — both linear, neither
// bottlenecked on a pool box.
//
// The second section exercises the parallel sharded solver: racks of 128
// servers are solver shards, waves of rack-local flows arrive in batches,
// and independent racks re-rate concurrently on --threads=N workers.
// Simulated results (this table, traces, metrics) are byte-identical for
// every thread count; only the wall-clock — reported on stderr — changes.
// The solver's work (solves, flows re-rated) is host work, not a simulated
// result, so it goes to stderr beside the wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/table.h"
#include "fabric/topology.h"
#include "obs/time_series.h"
#include "sim/stream.h"

#include "common/trace.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

double DistributedLocalSum(int servers, trace::TraceCollector* trace = nullptr) {
  sim::FluidSimulator sim;
  if (trace != nullptr) {
    trace->BeginProcess("shipped-local-" + std::to_string(servers));
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
  }
  auto topo = fabric::Topology::MakeLogical(&sim, servers,
                                            fabric::LinkProfile::Link1());
  std::vector<std::unique_ptr<sim::SpanStream>> streams;
  for (int s = 0; s < servers; ++s) {
    for (int c = 0; c < 14; ++c) {
      streams.push_back(std::make_unique<sim::SpanStream>(
          &sim,
          std::vector<sim::Span>{sim::Span{
              8e9 / 14, topo.LocalPath(static_cast<fabric::ServerIndex>(s),
                                       c)}}));
    }
  }
  return sim::RunStreams(&sim, std::move(streams)).gbps;
}

double AllRemoteRing(int servers, trace::TraceCollector* trace = nullptr) {
  sim::FluidSimulator sim;
  if (trace != nullptr) {
    trace->BeginProcess("all-remote-ring-" + std::to_string(servers));
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
  }
  auto topo = fabric::Topology::MakeLogical(&sim, servers,
                                            fabric::LinkProfile::Link1());
  std::vector<std::unique_ptr<sim::SpanStream>> streams;
  for (int s = 0; s < servers; ++s) {
    for (int c = 0; c < 14; ++c) {
      streams.push_back(std::make_unique<sim::SpanStream>(
          &sim, std::vector<sim::Span>{sim::Span{
                    8e9 / 14,
                    topo.RemotePath(static_cast<fabric::ServerIndex>(s), c,
                                    static_cast<fabric::ServerIndex>(
                                        (s + 1) % servers))}}));
    }
  }
  return sim::RunStreams(&sim, std::move(streams)).gbps;
}

struct WaveResult {
  std::uint64_t flows = 0;
  std::uint64_t solves = 0;
  std::uint64_t flows_touched = 0;
  std::uint64_t parallel_solves = 0;
  int racks = 0;
  double gbps = 0;
  double wall_ms = 0;
};

// Waves of rack-local traffic at cluster scale.  Racks are sized so each
// per-rack solve is a meaty unit of work for a pool thread (the fill cost
// grows with the square of rack size, the task count shrinks only
// linearly).  Every server streams ten equal flows per wave (two per core)
// to its successor in an in-rack ring,
// so each rack is one genuinely coupled component — every port carries its
// server's outgoing and its predecessor's incoming flows — while all racks
// stay symmetric, keeping rates uniform and completions synchronized
// cluster-wide.  Server 0 sends one cross-rack flow instead, holding racks
// 0 and 1 open so the sequential spill path stays exercised.  Waves
// overlap, so at the largest size 100k+ flows are concurrently active, and
// arrival/completion sweeps re-rate the whole cluster at once — the solves
// that partition into one task per closed rack.
// With `keep` non-null, a time-series recorder samples the solver counters
// and the live flow count every 100us of sim time — the probes read solver
// totals that are identical for every --threads= value, so the series
// sidecar doubles as a thread-count determinism check.
WaveResult RackLocalWaves(int servers, int threads,
                          trace::TraceCollector* trace = nullptr,
                          std::vector<std::unique_ptr<
                              obs::TimeSeriesRecorder>>* keep = nullptr) {
  constexpr int kServersPerRack = 128;
  constexpr int kWaves = 4;
  constexpr int kFlowsPerServer = 10;
  constexpr double kBytesPerFlow = 2e6;
  const SimTime wave_interval = Microseconds(250);

  const auto wall0 = std::chrono::steady_clock::now();
  sim::FluidSimulator sim;
  sim.set_record_retention(sim::RecordRetention::kDropCompleted);
  sim.set_threads(threads);
  if (trace != nullptr) {
    trace->BeginProcess("rack-waves-" + std::to_string(servers));
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
  }
  auto topo = fabric::Topology::MakeLogical(&sim, servers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kServersPerRack);

  std::unique_ptr<obs::TimeSeriesRecorder> recorder;
  if (keep != nullptr) {
    obs::TimeSeriesRecorder::Config rc;
    rc.interval = Microseconds(100);
    rc.horizon = Milliseconds(3);  // past the last wave's completion
    rc.prefix = "rack-waves-" + std::to_string(servers) + "/";
    recorder = std::make_unique<obs::TimeSeriesRecorder>(&sim, rc);
    recorder->AddGauge("active_flows", [&sim] {
      return static_cast<double>(sim.active_flow_count());
    });
    recorder->AddCounter("solver.recompute_calls", [&sim] {
      return sim.solver_stats().recompute_calls;
    });
    recorder->AddCounter("solver.shard_tasks", [&sim] {
      return sim.solver_stats().shard_tasks;
    });
    recorder->AddCounter("solver.flows_touched", [&sim] {
      return sim.solver_stats().flows_touched;
    });
    recorder->Start();
  }

  // The recorder's sampling horizon outlives the last completion, so with
  // series wired the workload's elapsed time is taken from the completion
  // callbacks rather than the (recorder-extended) final sim clock.
  SimTime last_done = 0;
  std::uint64_t flows = 0;
  for (int w = 0; w < kWaves; ++w) {
    sim.ScheduleAt(w * wave_interval, [&](SimTime) {
      sim.BeginBatch();
      for (int s = 0; s < servers; ++s) {
        const auto src = static_cast<fabric::ServerIndex>(s);
        const int rack_base = (s / kServersPerRack) * kServersPerRack;
        const int rack_size =
            std::min(kServersPerRack, servers - rack_base);
        const auto ring_next = static_cast<fabric::ServerIndex>(
            rack_base + (s - rack_base + 1) % rack_size);
        for (int i = 0; i < kFlowsPerServer; ++i) {
          const int core = i / 2;
          const bool cross_rack =
              i == 0 && s == 0 && kServersPerRack < servers;
          const auto dst =
              cross_rack
                  ? static_cast<fabric::ServerIndex>(kServersPerRack)
                  : ring_next;
          if (recorder != nullptr) {
            sim.StartFlow(kBytesPerFlow, topo.RemotePath(src, core, dst),
                          [&last_done](sim::FlowId, SimTime t) {
                            last_done = t;
                          });
          } else {
            sim.StartFlow(kBytesPerFlow, topo.RemotePath(src, core, dst));
          }
          ++flows;
        }
      }
      sim.EndBatch();
    });
  }
  sim.Run();

  WaveResult out;
  out.flows = flows;
  out.racks = topo.num_racks();
  const sim::SolverStats& st = sim.solver_stats();
  out.solves = st.recompute_calls;
  out.flows_touched = st.flows_touched;
  out.parallel_solves = st.parallel_solves;
  const SimTime elapsed = recorder != nullptr ? last_done : sim.now();
  out.gbps =
      static_cast<double>(flows) * kBytesPerFlow / (elapsed / kNsPerSec) /
      1e9;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  sim.ExportSolverMetrics(MetricsRegistry::Global());
  if (recorder != nullptr) keep->push_back(std::move(recorder));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const lmp::bench::Args args = lmp::bench::Args::Parse(argc, argv);
  lmp::bench::TraceSidecar sidecar(args);
  std::printf(
      "== Scaling: aggregate bandwidth vs server count (Link1) ==\n");
  TablePrinter table({"Servers", "Pooled memory", "Shipped-local GB/s",
                      "All-remote ring GB/s"});
  for (const int servers : {2, 4, 8, 16}) {
    table.AddRow({std::to_string(servers),
                  std::to_string(servers * 24) + " GiB",
                  TablePrinter::Num(DistributedLocalSum(servers, sidecar.collector())),
                  TablePrinter::Num(AllRemoteRing(servers, sidecar.collector()))});
  }
  table.Print();
  std::printf(
      "\nBoth patterns scale linearly with servers — there is no central\n"
      "pool box to saturate.  A physical pool's aggregate is pinned at its\n"
      "port provisioning regardless of server count (cf. bench_incast).\n");

  std::printf(
      "\n== Parallel sharded solver: rack-local waves (racks of 128) ==\n");
  TablePrinter ptable({"Servers", "Racks", "Flows", "GB/s"});
  std::vector<std::unique_ptr<lmp::obs::TimeSeriesRecorder>> recorders;
  for (const int servers : {1000, 2000, 5000, 10000}) {
    // Tracing and series sampling are wired only at the smallest size: they
    // prove thread-count determinism of the emitted sidecars without
    // buffering millions of per-flow events at the 10k-server point.
    const bool wired = servers == 1000;
    const WaveResult r = RackLocalWaves(
        servers, args.threads, wired ? sidecar.collector() : nullptr,
        wired && sidecar.wants_series() ? &recorders : nullptr);
    ptable.AddRow({std::to_string(servers), std::to_string(r.racks),
                   std::to_string(r.flows), TablePrinter::Num(r.gbps)});
    std::fprintf(stderr,
                 "rack-waves: %d servers, threads=%d: %.1f ms, %llu solves, "
                 "%llu flows touched\n",
                 servers, args.threads, r.wall_ms,
                 static_cast<unsigned long long>(r.solves),
                 static_cast<unsigned long long>(r.flows_touched));
  }
  for (const auto& rec : recorders) sidecar.AddSeriesRecorder(rec.get());
  ptable.Print();
  std::printf(
      "\nEach rack is a solver shard: cluster-wide arrival and completion\n"
      "sweeps re-rate closed racks as independent tasks on the worker pool\n"
      "(--threads=N), while cross-rack flows pin their racks to the\n"
      "sequential spill path.  Simulated output is byte-identical for any\n"
      "thread count; wall-clock and solver work per size are reported on\n"
      "stderr.\n");
  sidecar.Flush();
  return 0;
}
