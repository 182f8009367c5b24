// Colocation capstone: the §3.2 background tasks under a multi-tenant,
// phase-shifting workload — sizing (§5), migration (§5), and priority
// weights (§5's "high-value applications") acting together.
//
// Phases (each with its own demand declarations and traffic):
//   1. day    — interactive service on every server (private-heavy),
//               small shared pool;
//   2. night  — a batch analytics job on server 0 wants a pool bigger
//               than any single server; the sizer flexes everyone's
//               shared region and placement spills across peers;
//   3. shift  — the analytics consumer moves to server 2; the migrator
//               chases the data.
// After each phase we report the private/shared split, the analytics
// job's locality, and its effective bandwidth on Link1.
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "core/migration.h"
#include "core/sizing.h"
#include "fabric/topology.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

double EffectiveGbps(double local_fraction,
                     const fabric::LinkProfile& link) {
  const double local = 97.0;
  const double remote = link.bandwidth / 1e9;
  if (local_fraction >= 1.0) return local;
  // Harmonic mix: time-weighted over local and remote portions.
  return 1.0 /
         (local_fraction / local + (1.0 - local_fraction) / remote);
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.cores_per_server = 14;
  config.server_total_memory = GiB(24);
  config.server_shared_memory = 0;  // the sizer decides
  config.frame_size = MiB(64);
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Seconds(50));
  core::MigrationConfig migration;
  migration.max_migrations_per_round = 16;
  core::MigrationEngine migrator(&manager, migration);
  // Declared demand per server, held in server-id order: Solve serves
  // equal-priority servers in input order.
  std::vector<core::ServerDemand> demands(4);
  // Both background tasks, balancing first: one migration round, then one
  // sizing solve applied (shrinks blocked by live frames are deferred).
  auto run_tasks = [&](SimTime now) {
    (void)migrator.RunOnce(now);
    (void)core::SizingOptimizer::Apply(
        cluster, core::SizingOptimizer::Solve(cluster, demands));
  };
  const auto link = fabric::LinkProfile::Link1();

  TablePrinter table({"Phase", "Server0 priv/shared (GiB)",
                      "Analytics local%", "Analytics GB/s"});
  auto report = [&](const char* phase, double local_fraction) {
    const auto& s0 = cluster.server(0);
    table.AddRow(
        {phase,
         std::to_string(s0.private_bytes() / kGiB) + " / " +
             std::to_string(s0.shared_bytes() / kGiB),
         local_fraction < 0
             ? "-"
             : TablePrinter::Num(100 * local_fraction, 0) + "%",
         local_fraction < 0
             ? "-"
             : TablePrinter::Num(EffectiveGbps(local_fraction, link))});
  };

  // --- Phase 1: daytime ----------------------------------------------------
  for (int s = 0; s < 4; ++s) {
    demands[s] = core::ServerDemand{static_cast<cluster::ServerId>(s),
                                    GiB(20), GiB(2), 1.0};
  }
  run_tasks(Seconds(1));
  report("day (interactive)", -1);

  // --- Phase 2: night analytics on server 0 -------------------------------
  demands[0] = core::ServerDemand{0, GiB(2), GiB(40), 2.0};
  for (int s = 1; s < 4; ++s) {
    demands[s] = core::ServerDemand{static_cast<cluster::ServerId>(s),
                                    GiB(2), 0, 1.0};
  }
  run_tasks(Seconds(2));
  auto dataset = manager.Allocate(GiB(40), 0);
  LMP_CHECK(dataset.ok());
  // Split into 4 GiB migration units: without this, the 22 GiB placement
  // chunks are bigger than any peer's headroom and the balancer is stuck
  // (the reason PoolManager::SplitSegmentAt exists).
  for (Bytes off = GiB(4); off < GiB(40); off += GiB(4)) {
    LMP_CHECK_OK(manager.SplitSegmentAt(*dataset, off));
  }
  double local = manager.LocalFraction(*dataset, 0).value_or(0);
  report("night (analytics @0)", local);

  // --- Phase 3: consumer shifts to server 2 -------------------------------
  // The demand declaration follows the consumer (otherwise the sizer
  // reclaims server 2's shared region and the balancer has nowhere to
  // put the data); server 2's traffic then dominates and balancing
  // rounds chase it.
  demands[0] = core::ServerDemand{0, GiB(2), 0, 1.0};
  demands[2] = core::ServerDemand{2, GiB(2), GiB(40), 2.0};
  for (int round = 0; round < 12; ++round) {
    LMP_CHECK_OK(manager.Touch(2, *dataset, 0, GiB(40),
                               Seconds(3) + round * Milliseconds(100)));
    run_tasks(Seconds(3) + round * Milliseconds(100) + 1);
  }
  local = manager.LocalFraction(*dataset, 2).value_or(0);
  report("shift (analytics @2)", local);

  table.Print();
  std::printf("\nRuntime totals:\n%s",
              manager.metrics().Report().c_str());
  std::printf(
      "\nOne deployment, three regimes: the private/shared knob and the\n"
      "balancer absorb workload shifts that would each require re-racking\n"
      "DIMMs in a physical-pool design (Sections 4.5, 5).\n");
  sidecar.Flush();
  return 0;
}
