// Placement ablation: how the allocation policy affects single-server
// vector-sum bandwidth.  Local-first (the paper's implicit choice) keeps
// the runner's share maximal; round-robin and capacity-weighted trade the
// runner's locality for balance.
#include <cstdio>

#include "baselines/logical.h"
#include "common/table.h"

#include "args.h"
#include "trace_sidecar.h"

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  using namespace lmp;
  std::printf(
      "== Placement policy ablation: 24 and 64 GiB vector sums, Link1 ==\n");
  TablePrinter table(
      {"Policy", "Vector", "Local fraction", "Avg GB/s"});
  for (const char* policy :
       {"local-first", "round-robin", "capacity-weighted"}) {
    for (const Bytes gib : {24ull, 64ull}) {
      baselines::LogicalDeployment deployment(
          fabric::LinkProfile::Link1(),
          cluster::ClusterConfig::PaperLogical(),
          core::MakePlacementPolicy(policy));
      baselines::VectorSumParams params;
      params.vector_bytes = GiB(gib);
      params.repetitions = 5;
      auto r = deployment.RunWorkload({.vector = params});
      LMP_CHECK(r.ok());
      table.AddRow({policy, std::to_string(gib) + " GiB",
                    TablePrinter::Num(r->vector.local_fraction, 3),
                    TablePrinter::Num(r->vector.avg_bandwidth_gbps)});
    }
  }
  table.Print();
  std::printf(
      "\nLocal-first wins for a single consumer because locality is the\n"
      "whole advantage (Section 4.3); spreading policies only pay off when\n"
      "many servers consume the data (see bench_nearmem_shipping).\n");
  sidecar.Flush();
  return 0;
}
