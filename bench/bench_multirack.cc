// Rack-scale extension: a logical pool spanning two racks joined by the
// topology's spine (§2.2's Global FAM / Port Based Routing scales FAMs to
// a rack; a spine switch joins racks).  Compares pulling a working set
// from same-rack peers vs cross-rack peers at two rack-uplink provisioning
// levels — the locality hierarchy an at-scale LMP would have to manage
// (and one more reason placement/migration matter).
#include <cstdio>

#include "common/table.h"
#include "common/trace.h"
#include "fabric/topology.h"
#include "sim/stream.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

constexpr int kServersPerRack = 8;
constexpr int kPullers = 4;

double PullBandwidth(BytesPerSec trunk, bool cross_rack,
                     trace::TraceCollector* trace = nullptr) {
  sim::FluidSimulator sim;
  if (trace != nullptr) {
    trace->BeginProcess(std::string(cross_rack ? "cross-rack" : "same-rack") +
                        "-trunk" + std::to_string(static_cast<int>(trunk)));
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
  }
  auto topo = fabric::Topology::MakeLogical(&sim, 2 * kServersPerRack,
                                            fabric::LinkProfile::Link0());
  topo.AssignRackShards(kServersPerRack);
  topo.ProvisionSpine(trunk);
  // Rack-0 servers 0-3 each pull 8 GB from a distinct peer: rack 0's
  // servers 4-7, or rack 1's servers 0-3.  A server's port carries both
  // directions, so pullers and sources stay disjoint.
  std::vector<std::unique_ptr<sim::SpanStream>> streams;
  for (int s = 0; s < kPullers; ++s) {
    const int src = cross_rack ? kServersPerRack + s : kPullers + s;
    streams.push_back(std::make_unique<sim::SpanStream>(
        &sim, std::vector<sim::Span>{
                  sim::Span{8e9, topo.DmaRemotePath(s, src)}}));
  }
  return sim::RunStreams(&sim, std::move(streams)).gbps;
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  std::printf(
      "== Dual-rack logical pool: 4 pullers per rack, PBR fabric ==\n");
  TablePrinter table({"Traffic pattern", "Trunk", "Aggregate GB/s"});
  for (const double trunk_gbps : {34.5, 138.0}) {
    table.AddRow({"same-rack peers", TablePrinter::Num(trunk_gbps) + " GB/s",
                  TablePrinter::Num(
                      PullBandwidth(GBps(trunk_gbps), false,
                                    sidecar.collector()))});
    table.AddRow({"cross-rack peers",
                  TablePrinter::Num(trunk_gbps) + " GB/s",
                  TablePrinter::Num(
                      PullBandwidth(GBps(trunk_gbps), true,
                                    sidecar.collector()))});
  }
  table.Print();
  std::printf(
      "\nSame-rack traffic scales with per-server ports; cross-rack traffic\n"
      "funnels through the trunk unless it is provisioned ~Nx — so a\n"
      "rack-scale LMP's sizing/migration policies should treat rack\n"
      "locality as a second tier (Sections 2.2, 5).\n");
  sidecar.Flush();
  return 0;
}
