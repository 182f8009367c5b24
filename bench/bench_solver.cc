// Solver microbenchmark: incremental (component-scoped) rate recomputation
// vs the full progressive-filling pass, under flow churn at 1k-10k
// concurrent flows over the paper's 4-server topology (14 cores + DRAM +
// fabric port per server).
//
// Every arrival and completion triggers a re-solve.  The full pass re-rates
// every active flow each time (O(flows x resources), fresh allocations);
// the incremental solver re-rates only the flows the change reaches through
// saturated resources, reusing persistent scratch.  Both modes are
// bit-identical in simulated results — checked here — so the speedup is
// pure solver wall-clock.
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/units.h"
#include "sim/fluid.h"
#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

constexpr int kServers = 4;
constexpr int kCoresPerServer = 14;

struct Topology {
  std::vector<sim::ResourceId> cores;  // kServers * kCoresPerServer
  std::vector<sim::ResourceId> dram;   // per server
  std::vector<sim::ResourceId> port;   // per server
};

Topology BuildTopology(sim::FluidSimulator& sim) {
  Topology topo;
  for (int s = 0; s < kServers; ++s) {
    for (int c = 0; c < kCoresPerServer; ++c) {
      topo.cores.push_back(
          sim.AddResource("core" + std::to_string(s * kCoresPerServer + c),
                          GBps(12)));
    }
    topo.dram.push_back(sim.AddResource("dram" + std::to_string(s),
                                        GBps(97)));
    topo.port.push_back(sim.AddResource("port" + std::to_string(s),
                                        GBps(34.5)));
  }
  return topo;
}

struct ChurnResult {
  double wall_ms = 0;
  SimTime sim_end = 0;
  double bytes_served = 0;  // cross-mode determinism checksum
  sim::SolverStats stats;
};

// Keeps `concurrency` flows in flight: each completion starts a replacement
// until `total` flows have been issued.  The Rng draw sequence is identical
// across modes because completions fire in the same (deterministic) order.
ChurnResult RunChurn(bool incremental, double remote_fraction,
                     int concurrency, int total, std::uint64_t seed,
                     trace::TraceCollector* trace = nullptr) {
  sim::FluidSimulator sim;
  sim.set_incremental(incremental);
  sim.set_solver_timing(true);
  sim.set_record_retention(sim::RecordRetention::kDropCompleted);
  if (trace != nullptr) {
    trace->BeginProcess(std::string(incremental ? "inc" : "full") +
                        "/remote" + std::to_string(remote_fraction) +
                        "/c" + std::to_string(concurrency));
    sim.set_trace(trace);
  }
  Topology topo = BuildTopology(sim);

  Rng rng(seed);
  int issued = 0;
  std::function<void()> launch = [&] {
    ++issued;
    const int s = static_cast<int>(rng.NextBounded(kServers));
    const int c = static_cast<int>(rng.NextBounded(kCoresPerServer));
    const double bytes =
        static_cast<double>(rng.NextInRange(1, 100)) * 1e6;
    sim::Path path;
    if (remote_fraction > 0 && rng.NextBernoulli(remote_fraction)) {
      const int d = static_cast<int>(rng.NextBounded(kServers));
      path = {topo.cores[s * kCoresPerServer + c], topo.port[s],
              topo.port[d], topo.dram[d]};
    } else {
      path = {topo.cores[s * kCoresPerServer + c], topo.dram[s]};
    }
    sim.StartFlow(bytes, path, [&](sim::FlowId, SimTime) {
      if (issued < total) launch();
    });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < concurrency; ++i) launch();
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  ChurnResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.sim_end = sim.now();
  for (int s = 0; s < kServers; ++s) {
    r.bytes_served += sim.BytesServed(topo.dram[s]);
  }
  r.stats = sim.solver_stats();
  sim.ExportSolverMetrics(MetricsRegistry::Global());
  return r;
}

}  // namespace

void RunSweep(double remote_fraction,
              lmp::trace::TraceCollector* trace = nullptr) {
  std::printf(
      "== Solver: incremental vs full recompute (%d-server topology, "
      "%.0f%% remote flows) ==\n",
      kServers, remote_fraction * 100);
  TablePrinter table({"Concurrent flows", "Full solver ms", "Inc solver ms",
                      "Solver speedup", "Run speedup",
                      "Touched/solve (full)", "Touched/solve (inc)"});
  for (const int concurrency : {1000, 4000, 10000}) {
    const int total = concurrency + 4000;  // 4000 churn events after fill
    const ChurnResult full = RunChurn(/*incremental=*/false, remote_fraction,
                                      concurrency, total, 42, trace);
    const ChurnResult inc = RunChurn(/*incremental=*/true, remote_fraction,
                                     concurrency, total, 42, trace);
    LMP_CHECK(full.sim_end == inc.sim_end)
        << "modes diverged: " << full.sim_end << " vs " << inc.sim_end;
    LMP_CHECK(full.bytes_served == inc.bytes_served)
        << "modes diverged on bytes served";
    const double full_solver_ms =
        static_cast<double>(full.stats.solve_ns) / 1e6;
    const double inc_solver_ms =
        static_cast<double>(inc.stats.solve_ns) / 1e6;
    table.AddRow(
        {std::to_string(concurrency), TablePrinter::Num(full_solver_ms),
         TablePrinter::Num(inc_solver_ms),
         TablePrinter::Num(full_solver_ms / inc_solver_ms, 2) + "x",
         TablePrinter::Num(full.wall_ms / inc.wall_ms, 2) + "x",
         TablePrinter::Num(
             static_cast<double>(full.stats.flows_touched) /
             static_cast<double>(full.stats.recompute_calls), 1),
         TablePrinter::Num(
             static_cast<double>(inc.stats.flows_touched) /
             static_cast<double>(inc.stats.recompute_calls), 1)});
  }
  table.Print();
  std::printf("\n");
}

int main(int argc, char** argv) {
  const lmp::bench::Args args = lmp::bench::Args::Parse(argc, argv);
  lmp::bench::TraceSidecar sidecar(args);
  // Local-dominant churn (the paper's shipped/local pattern): flows cluster
  // per server, so the incremental solver re-rates ~1/4 of the flows.
  RunSweep(/*remote_fraction=*/0.0, sidecar.collector());
  // Bridged churn: 5% remote flows keep all servers in one connected
  // component, but they cross only unsaturated cores and link ports, so a
  // solve still re-rates about the flows of the DRAMs the event touches.
  RunSweep(/*remote_fraction=*/0.05, sidecar.collector());
  std::printf(
      "Simulated results are bit-identical in both modes (checked); the\n"
      "speedup is solver wall-clock only.  Solver counters:\n%s",
      MetricsRegistry::Global().Report().c_str());
  sidecar.Flush();
  return 0;
}
