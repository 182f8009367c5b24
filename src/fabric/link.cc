#include "fabric/link.h"

#include <algorithm>

namespace lmp::fabric {

SimTime LinkProfile::LoadedLatency(double utilization) const {
  const double u = std::clamp(utilization, 0.0, 1.0);
  // Convex interpolation: f(u) = u^2 / (2 - u); f(0)=0, f(0.5)~0.17, f(1)=1.
  const double f = (u * u) / (2.0 - u);
  return min_latency_ns + (max_latency_ns - min_latency_ns) * f;
}

LinkProfile LinkProfile::Link0() {
  return LinkProfile{"Link0", 163.0, 418.0, GBps(34.5)};
}

LinkProfile LinkProfile::Link1() {
  return LinkProfile{"Link1", 261.0, 527.0, GBps(21.0)};
}

LinkProfile LinkProfile::PondCxl() {
  // Pond reports 280 ns (switch-estimated) and PCIe5 x8 peak of 31 GB/s.
  // Max loaded latency is not published; scale by Link0's loaded/unloaded
  // ratio (418/163 ~ 2.56).
  return LinkProfile{"PondCXL", 280.0, 280.0 * (418.0 / 163.0), GBps(31.0)};
}

LinkProfile LinkProfile::FpgaCxl() {
  return LinkProfile{"FpgaCXL", 303.0, 303.0 * (418.0 / 163.0), GBps(20.0)};
}

LinkProfile LinkProfile::LocalDram() {
  return LinkProfile{"LocalDRAM", 82.0, 148.0, GBps(97.0)};
}

}  // namespace lmp::fabric
