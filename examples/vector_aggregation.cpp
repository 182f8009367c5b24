// The paper's §4 microbenchmark, end to end, in both layers:
//
//   1. Functional: a real vector in a real (small) pool, summed from one
//      server and via compute shipping — results must agree with the
//      closed form.
//   2. Timing: the same aggregation at paper scale (8/24/64/96 GiB) on the
//      calibrated fluid simulator, printing the Figure 2–5 bandwidth rows.
//
//   $ ./vector_aggregation
#include <cstdio>

#include "baselines/logical.h"
#include "baselines/physical.h"
#include "common/table.h"
#include "workloads/vector_sum.h"

namespace {

void FunctionalDemo() {
  std::printf("--- functional layer (real bytes, small pool) ---\n");
  auto pool_or = lmp::Pool::Create(lmp::PoolOptions::Small());
  LMP_CHECK(pool_or.ok());
  lmp::Pool& pool = **pool_or;

  // 10M doubles (80 MB) spans multiple servers' shared regions.
  const std::uint64_t count = 10'000'000;
  auto vs = lmp::workloads::VectorSum::Create(&pool, count, 0);
  LMP_CHECK(vs.ok());
  LMP_CHECK_OK(vs->FillLinear(0));

  auto pulled = vs->SumFrom(/*runner=*/0);
  auto shipped = vs->SumShipped();
  LMP_CHECK(pulled.ok() && shipped.ok());
  std::printf("pulled sum  = %.6g\n", *pulled);
  std::printf("shipped sum = %.6g\n", *shipped);
  std::printf("expected    = %.6g\n", vs->ExpectedLinearSum());
  LMP_CHECK(*pulled == *shipped);
  LMP_CHECK_OK(vs->Release());
}

void TimingDemo() {
  std::printf("\n--- timing layer (paper-scale, Link1) ---\n");
  lmp::TablePrinter table(
      {"Vector", "Logical GB/s", "Phys cache GB/s", "Phys no-cache GB/s"});
  for (const lmp::Bytes gib : {8ull, 24ull, 64ull, 96ull}) {
    lmp::baselines::VectorSumParams params;
    params.vector_bytes = lmp::GiB(gib);

    auto run = [&](lmp::baselines::MemoryDeployment& d) -> std::string {
      auto r = d.RunWorkload({.vector = params});
      LMP_CHECK(r.ok());
      return r->vector.feasible
                 ? lmp::TablePrinter::Num(r->vector.avg_bandwidth_gbps)
                 : "infeasible";
    };
    lmp::baselines::LogicalDeployment logical(
        lmp::fabric::LinkProfile::Link1());
    lmp::baselines::PhysicalDeployment cache(
        lmp::fabric::LinkProfile::Link1(), true);
    lmp::baselines::PhysicalDeployment nocache(
        lmp::fabric::LinkProfile::Link1(), false);
    table.AddRow({std::to_string(gib) + " GiB", run(logical), run(cache),
                  run(nocache)});
  }
  table.Print();
}

}  // namespace

int main() {
  FunctionalDemo();
  TimingDemo();
  return 0;
}
