// §4.4 "Near-memory Computing": the distributed (shipped) sum vs the
// single-server pull, across vector sizes and links.  The paper states the
// shipped result is "an even larger performance improvement than reported
// above (not shown)" — this bench shows it.
#include <cstdio>

#include "baselines/logical.h"
#include "common/table.h"

#include "args.h"
#include "trace_sidecar.h"

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  using namespace lmp;
  std::printf(
      "== Section 4.4: computation shipping on the logical pool ==\n");
  TablePrinter table({"Vector", "Link", "Pull GB/s", "Shipped GB/s",
                      "Speedup"});
  for (const auto& link :
       {fabric::LinkProfile::Link0(), fabric::LinkProfile::Link1()}) {
    for (const Bytes gib : {24ull, 64ull, 96ull}) {
      baselines::VectorSumParams params;
      params.vector_bytes = GiB(gib);
      params.repetitions = 5;

      baselines::LogicalDeployment pull(link);
      baselines::LogicalDeployment ship(link);
      auto pulled = pull.RunWorkload({.vector = params});
      auto shipped = ship.RunDistributedSum(params);
      LMP_CHECK(pulled.ok() && shipped.ok());
      table.AddRow({std::to_string(gib) + " GiB", link.name,
                    TablePrinter::Num(pulled->vector.avg_bandwidth_gbps),
                    TablePrinter::Num(shipped->avg_bandwidth_gbps),
                    TablePrinter::Num(shipped->avg_bandwidth_gbps /
                                          pulled->vector.avg_bandwidth_gbps,
                                      2) +
                        "x"});
    }
  }
  table.Print();
  std::printf(
      "\nShipping turns every access local: the aggregate approaches\n"
      "num_servers x 97 GB/s regardless of link speed, while the pull is\n"
      "bottlenecked by the runner's fabric port. Physical pools cannot do\n"
      "this without adding compute hardware to the pool box (Section 4.4).\n");
  sidecar.Flush();
  return 0;
}
