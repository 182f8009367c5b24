// §2.1: software vs hardware memory disaggregation.  The same vector-sum
// workload on (a) kernel-swap-over-RDMA-style software far memory and
// (b) the CXL logical pool, plus the dependent-read latency gap.
#include <cstdio>

#include "baselines/logical.h"
#include "baselines/software_swap.h"
#include "common/table.h"

#include "args.h"
#include "trace_sidecar.h"

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  using namespace lmp;
  std::printf(
      "== Software (paging) vs hardware (CXL load/store) disaggregation "
      "==\n");
  TablePrinter table({"Vector", "Link", "Software GB/s", "Logical GB/s",
                      "Hardware gain"});
  for (const auto& link :
       {fabric::LinkProfile::Link0(), fabric::LinkProfile::Link1()}) {
    for (const Bytes gib : {24ull, 64ull, 96ull}) {
      baselines::VectorSumParams params;
      params.vector_bytes = GiB(gib);
      params.repetitions = 5;
      baselines::SoftwareSwapDeployment swap(link);
      baselines::LogicalDeployment logical(link);
      auto sw = swap.RunWorkload({.vector = params});
      auto hw = logical.RunWorkload({.vector = params});
      LMP_CHECK(sw.ok() && hw.ok());
      table.AddRow({std::to_string(gib) + " GiB", link.name,
                    TablePrinter::Num(sw->vector.avg_bandwidth_gbps),
                    TablePrinter::Num(hw->vector.avg_bandwidth_gbps),
                    TablePrinter::Num(hw->vector.avg_bandwidth_gbps /
                                          sw->vector.avg_bandwidth_gbps,
                                      2) +
                        "x"});
    }
  }
  table.Print();

  baselines::SoftwareSwapDeployment swap(fabric::LinkProfile::Link0());
  std::printf(
      "\nDependent 64B read latency: resident %.0f ns, swapped %.0f ns "
      "(%.0fx)\n"
      "CXL turns the fault path into a load: remote reads cost %.0f ns\n"
      "instead — the paper's case for hardware disaggregation (Section "
      "2.1).\n",
      swap.ResidentReadLatency(), swap.SwappedReadLatency(),
      swap.SwappedReadLatency() / swap.ResidentReadLatency(),
      fabric::LinkProfile::Link0().LoadedLatency(0));
  sidecar.Flush();
  return 0;
}
