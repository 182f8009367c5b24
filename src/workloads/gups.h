// GUPS-style random-access workload (giga-updates per second).
//
// The vector sum is bandwidth-bound; pointer-chasing workloads are
// LATENCY-bound — each core has one dependent access in flight, so
// throughput is cores / average-access-latency.  This is where §4.3's
// loaded-latency ratios (2.8x/3.6x) turn directly into application
// throughput, and where software paging (µs faults) collapses.
//
// GupsThroughputModel composes the deployment's locality mix with the
// loaded-latency curves.
#pragma once

#include "common/units.h"
#include "fabric/link.h"

namespace lmp::workloads {

// Timing model for dependent random access: one outstanding access per
// core (no MLP — the pessimistic bound the paper's latency discussion
// implies).  Throughput in updates/s for a table with `local_fraction`
// resolving locally and the rest over `link`, under full load.
struct GupsThroughputModel {
  int cores = 14;
  double local_fraction = 0;
  fabric::LinkProfile local = fabric::LinkProfile::LocalDram();
  fabric::LinkProfile link = fabric::LinkProfile::Link0();
  // Extra per-access software cost (0 for CXL; ~fault cost for paging).
  SimTime software_overhead_ns = 0;

  double AvgLatencyNs() const {
    const double local_ns = local.LoadedLatency(1.0);
    const double remote_ns =
        link.LoadedLatency(1.0) + software_overhead_ns;
    return local_fraction * local_ns +
           (1.0 - local_fraction) * remote_ns;
  }
  // Million updates per second across all cores.
  double Mups() const { return cores * 1e3 / AvgLatencyNs(); }
};

}  // namespace lmp::workloads
