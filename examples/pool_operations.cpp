// pool_operations: the operator's view of a running LMP.
//
// Shows the observability and control surface a deployment team would
// actually use: pool snapshots (capacity, balancer backlog), the metrics
// registry, buffer grow/shrink, segment splitting for finer migration
// units, and draining a server's shared region before taking it down for
// maintenance (through the sizing controller, which prices the moves as DMA
// flows on the fabric and lands the shrink when the last one completes).
//
//   $ ./pool_operations
#include <cstdio>

#include "core/lmp.h"
#include "ctrl/controller.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace {

void PrintSnapshot(const lmp::core::PoolManager::PoolSnapshot& snap,
                   const char* label) {
  std::printf("%s\n", label);
  for (const auto& s : snap.servers) {
    std::printf(
        "  server %u: %3llu/%3llu MiB used%s%s\n", s.server,
        static_cast<unsigned long long>(s.used / lmp::kMiB),
        static_cast<unsigned long long>(s.shared / lmp::kMiB),
        s.remote_hot > 0 ? "  [balancer backlog]" : "",
        s.crashed ? "  [CRASHED]" : "");
  }
}

}  // namespace

int main() {
  auto pool_or = lmp::Pool::Create(lmp::PoolOptions::Small());
  LMP_CHECK(pool_or.ok());
  lmp::Pool& pool = **pool_or;
  auto& manager = pool.manager();
  lmp::MetricsRegistry metrics;
  manager.set_metrics(&metrics);

  // A dataset that grows over time (log ingestion, say).
  auto dataset = pool.Allocate(lmp::MiB(8), 0);
  LMP_CHECK(dataset.ok());
  for (int day = 0; day < 3; ++day) {
    LMP_CHECK_OK(manager.Grow(*dataset, lmp::MiB(8), 0));
  }
  std::printf("dataset grown to %llu MiB\n",
              static_cast<unsigned long long>(
                  manager.Describe(*dataset)->size / lmp::kMiB));

  // Finer migration units, then retention-expire the oldest quarter.
  LMP_CHECK_OK(manager.SplitSegmentAt(*dataset, lmp::MiB(8)));
  LMP_CHECK_OK(manager.Shrink(*dataset, lmp::MiB(24)));
  std::printf("retention shrink to %llu MiB\n",
              static_cast<unsigned long long>(
                  manager.Describe(*dataset)->size / lmp::kMiB));

  PrintSnapshot(manager.Snapshot(0), "\npool before maintenance:");

  // Maintenance: drain server 0's shared region before taking it down.
  lmp::sim::FluidSimulator sim;
  auto topology = lmp::fabric::Topology::MakeLogical(
      &sim, pool.cluster().num_servers(), lmp::fabric::LinkProfile::Link1());
  lmp::ctrl::SizingController controller(
      {.sim = &sim, .manager = &manager, .topology = &topology});
  controller.set_metrics(&metrics);
  LMP_CHECK_OK(controller.Drain(0, lmp::MiB(4)));
  sim.Run();
  LMP_CHECK(pool.cluster().server(0).shared_bytes() == lmp::MiB(4));
  std::printf("\ndrained server 0: %llu MiB relocated in %.0f us\n",
              static_cast<unsigned long long>(
                  controller.stats().drain_bytes / lmp::kMiB),
              sim.now() / lmp::Microseconds(1));
  PrintSnapshot(manager.Snapshot(sim.now()),
                "pool after drain (server 0 down to 4 MiB shared):");

  // Everything still readable.
  std::vector<std::byte> probe(lmp::KiB(4));
  LMP_CHECK_OK(manager.Read(1, *dataset, lmp::MiB(12), probe));
  std::printf("\npost-drain read OK\n");

  std::printf("\noperational metrics:\n%s", metrics.Report().c_str());
  return 0;
}
