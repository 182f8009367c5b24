// GUPS (random dependent access) across deployments — the latency-bound
// complement to the paper's bandwidth figures (§4.3's "a similar analysis
// applies for latency").  One outstanding access per core; throughput is
// cores / average loaded latency, with locality mixes measured from the
// actual placements.
#include <cstdio>

#include "baselines/logical.h"
#include "common/table.h"
#include "workloads/gups.h"

#include "args.h"
#include "trace_sidecar.h"

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  using namespace lmp;
  using workloads::GupsThroughputModel;

  std::printf(
      "== GUPS: dependent 64B random updates, 14 cores, loaded latencies "
      "==\n");
  TablePrinter table({"Table size", "Link", "Logical MUPS",
                      "Physical pool MUPS", "Software swap MUPS",
                      "Logical advantage"});
  for (const auto& link :
       {fabric::LinkProfile::Link0(), fabric::LinkProfile::Link1()}) {
    for (const Bytes gib : {8ull, 24ull, 64ull}) {
      // Locality mix from the actual local-first placement.
      baselines::LogicalDeployment logical(link);
      baselines::VectorSumParams params;
      params.vector_bytes = GiB(gib);
      params.repetitions = 1;
      auto w = logical.RunWorkload({.vector = params});
      LMP_CHECK(w.ok());
      const baselines::VectorSumResult& r = w->vector;

      GupsThroughputModel lmp_model{
          .cores = 14, .local_fraction = r.local_fraction, .link = link};
      GupsThroughputModel pool_model{
          .cores = 14, .local_fraction = 0.0, .link = link};
      GupsThroughputModel swap_model{.cores = 14,
                                     .local_fraction = r.local_fraction,
                                     .link = link,
                                     .software_overhead_ns =
                                         Microseconds(4)};
      table.AddRow(
          {std::to_string(gib) + " GiB", link.name,
           TablePrinter::Num(lmp_model.Mups()),
           TablePrinter::Num(pool_model.Mups()),
           TablePrinter::Num(swap_model.Mups()),
           TablePrinter::Num(lmp_model.Mups() / pool_model.Mups(), 2) +
               "x"});
    }
  }
  table.Print();
  std::printf(
      "\nLatency-bound workloads amplify the locality advantage: at full\n"
      "locality the gap equals the loaded-latency ratio itself (2.8x /\n"
      "3.6x), and software paging is an order of magnitude behind both\n"
      "(Sections 2.1, 4.3).\n");
  sidecar.Flush();
  return 0;
}
