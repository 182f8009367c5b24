// §4.3's latency analysis ("a similar analysis applies for latency, where
// LMPs would outperform the physical pool").  Reports the loaded read
// latency mix each deployment sees for the paper's vector sizes: accesses
// that resolve locally cost loaded-local latency, remote/pool accesses
// cost loaded-link latency; the average is weighted by the locality
// fraction the placement actually achieved.
#include <cstdio>

#include "baselines/logical.h"
#include "baselines/physical.h"
#include "common/table.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

// Loaded latencies at saturation (the paper quotes max-loaded numbers).
double MixedLatency(double local_fraction, const fabric::LinkProfile& link) {
  const double local = fabric::LinkProfile::LocalDram().LoadedLatency(1.0);
  const double remote = link.LoadedLatency(1.0);
  return local_fraction * local + (1.0 - local_fraction) * remote;
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  std::printf(
      "== Average loaded read latency by deployment (weighted by measured "
      "locality) ==\n");
  TablePrinter table({"Vector", "Link", "Logical ns", "Phys cache ns",
                      "Phys no-cache ns", "Logical advantage"});
  for (const auto& link :
       {fabric::LinkProfile::Link0(), fabric::LinkProfile::Link1()}) {
    for (const Bytes gib : {8ull, 24ull, 64ull}) {
      baselines::VectorSumParams params;
      params.vector_bytes = GiB(gib);
      params.repetitions = 3;

      baselines::LogicalDeployment logical(link);
      baselines::PhysicalDeployment cache(link, true);
      auto rl = logical.RunWorkload({.vector = params});
      auto rc = cache.RunWorkload({.vector = params});
      LMP_CHECK(rl.ok() && rc.ok());

      const double logical_ns = MixedLatency(rl->vector.local_fraction, link);
      // The cache baseline's "local" accesses are its hits.
      const double cache_ns = MixedLatency(rc->vector.cache_hit_rate, link);
      const double nocache_ns = MixedLatency(0.0, link);
      table.AddRow({std::to_string(gib) + " GiB", link.name,
                    TablePrinter::Num(logical_ns, 0),
                    TablePrinter::Num(cache_ns, 0),
                    TablePrinter::Num(nocache_ns, 0),
                    TablePrinter::Num(nocache_ns / logical_ns, 2) + "x"});
    }
  }
  table.Print();
  std::printf(
      "\nAt full locality the gap equals the paper's loaded-latency ratios\n"
      "(2.8x on Link0, 3.6x on Link1, Section 4.3); it narrows as the\n"
      "working set outgrows the runner's shared region.\n");
  sidecar.Flush();
  return 0;
}
