// Fabric link profiles and the load-latency model.
//
// The paper emulates a CXL fabric with UPI links and characterises them in
// Table 2; Table 1 adds published CXL numbers from Pond and an FPGA
// prototype.  A LinkProfile captures (min latency, max loaded latency,
// bandwidth); LoadedLatency interpolates between the extremes with a convex
// queueing-style curve so latency rises slowly at low load and sharply near
// saturation — the shape of every measured loaded-latency curve in the
// papers the authors cite.
#pragma once

#include <string>

#include "common/units.h"

namespace lmp::fabric {

struct LinkProfile {
  std::string name;
  SimTime min_latency_ns = 0;   // unloaded round-trip read latency
  SimTime max_latency_ns = 0;   // latency at (near) full load
  BytesPerSec bandwidth = 0;    // per-direction capacity

  // Latency at the given utilization in [0, 1].  Convex: u^2 / (2 - u)
  // normalised so f(0)=0, f(1)=1 (documented in DESIGN.md §2).
  SimTime LoadedLatency(double utilization) const;

  // --- Calibrated profiles (DESIGN.md §5) -------------------------------

  // Table 2, Link0: default UPI. 163–418 ns, 34.5 GB/s.
  static LinkProfile Link0();
  // Table 2, Link1: slowed UPI (0.7 GHz remote uncore). 261–527 ns, 21 GB/s.
  static LinkProfile Link1();
  // Table 1, Pond: CXL via switch, 280 ns, 31 GB/s (PCIe5 x8).
  static LinkProfile PondCxl();
  // Table 1, FPGA: DDR4-behind-PCIe5 x16, 303 ns, 20 GB/s.
  static LinkProfile FpgaCxl();
  // Local DRAM treated as a "link" for uniform latency queries:
  // 82 ns unloaded (Table 1), ~148 ns max loaded (derived from the §4.3
  // claim that max loaded remote is 2.8x / 3.6x max loaded local).
  static LinkProfile LocalDram();
};

}  // namespace lmp::fabric
