// Shared harness for the Figure 2–5 reproductions.
//
// Each figure is one vector size run across the three §4.1 deployments
// (Logical, Physical cache, Physical no-cache) and the two emulated links
// (Link0, Link1).  The harness prints the bandwidth series the paper plots
// plus the headline ratios quoted in §4.3/§4.5.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/deployment.h"
#include "baselines/logical.h"
#include "baselines/physical.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/units.h"
#include "fabric/link.h"

namespace lmp::bench {

struct FigureRow {
  std::string deployment;
  std::string link;
  baselines::VectorSumResult result;
};

// With a collector, each deployment/link run becomes its own trace process
// (its simulator restarts at t=0) carrying flow spans and a harness marker.
inline std::vector<FigureRow> RunFigure(
    Bytes vector_bytes, int repetitions = 10,
    trace::TraceCollector* trace = nullptr) {
  std::vector<FigureRow> rows;
  for (const auto& link :
       {fabric::LinkProfile::Link0(), fabric::LinkProfile::Link1()}) {
    baselines::VectorSumParams params;
    params.vector_bytes = vector_bytes;
    params.repetitions = repetitions;

    const auto attach = [&](sim::FluidSimulator& sim, std::string name) {
      if (trace == nullptr) return;
      trace->BeginProcess(name + "/" + link.name);
      trace->set_clock([&sim] { return sim.now(); });
      sim.set_trace(trace);
      trace->Instant(trace::Category::kHarness, "run_start", sim.now(),
                     {trace::Arg("vector_bytes", vector_bytes),
                      trace::Arg("repetitions", repetitions)});
    };
    const auto detach = [&] {
      if (trace != nullptr) trace->set_clock({});
    };

    {
      baselines::LogicalDeployment logical(link);
      attach(logical.simulator(), "Logical");
      if (trace != nullptr) logical.manager().set_trace(trace);
      auto r = logical.RunWorkload({.vector = params});
      detach();
      LMP_CHECK(r.ok()) << r.status();
      rows.push_back(FigureRow{"Logical", link.name, r->vector});
    }
    {
      baselines::PhysicalDeployment cache(link, /*use_cache=*/true);
      attach(cache.simulator(), "Physical cache");
      auto r = cache.RunWorkload({.vector = params});
      detach();
      LMP_CHECK(r.ok()) << r.status();
      rows.push_back(FigureRow{"Physical cache", link.name, r->vector});
    }
    {
      baselines::PhysicalDeployment nocache(link, /*use_cache=*/false);
      attach(nocache.simulator(), "Physical no-cache");
      auto r = nocache.RunWorkload({.vector = params});
      detach();
      LMP_CHECK(r.ok()) << r.status();
      rows.push_back(FigureRow{"Physical no-cache", link.name, r->vector});
    }
  }
  return rows;
}

inline void PrintFigure(const char* title, Bytes vector_bytes,
                        const std::vector<FigureRow>& rows) {
  std::printf("== %s: %llu GiB vector, 14 cores, 10 repetitions ==\n", title,
              static_cast<unsigned long long>(vector_bytes / kGiB));
  TablePrinter table({"Deployment", "Link", "Avg GB/s", "Rep1 GB/s",
                      "Steady GB/s", "Local frac", "Feasible"});
  for (const FigureRow& row : rows) {
    const auto& r = row.result;
    table.AddRow({row.deployment, row.link,
                  r.feasible ? TablePrinter::Num(r.avg_bandwidth_gbps) : "-",
                  r.feasible ? TablePrinter::Num(r.first_rep_gbps) : "-",
                  r.feasible ? TablePrinter::Num(r.steady_rep_gbps) : "-",
                  TablePrinter::Num(r.local_fraction, 3),
                  r.feasible ? "yes" : "NO"});
  }
  table.Print();

  // Headline ratios (per link): Logical vs each physical baseline.
  for (const char* link : {"Link0", "Link1"}) {
    double logical = 0, cache = 0, nocache = 0;
    bool logical_ok = false, cache_ok = false, nocache_ok = false;
    for (const FigureRow& row : rows) {
      if (row.link != link) continue;
      if (row.deployment == "Logical") {
        logical = row.result.avg_bandwidth_gbps;
        logical_ok = row.result.feasible;
      } else if (row.deployment == "Physical cache") {
        cache = row.result.avg_bandwidth_gbps;
        cache_ok = row.result.feasible;
      } else {
        nocache = row.result.avg_bandwidth_gbps;
        nocache_ok = row.result.feasible;
      }
    }
    if (logical_ok && nocache_ok && nocache > 0) {
      std::printf("%s: Logical vs Physical no-cache: %.2fx\n", link,
                  logical / nocache);
    }
    if (logical_ok && cache_ok && cache > 0) {
      std::printf("%s: Logical vs Physical cache:    %.2fx\n", link,
                  logical / cache);
    }
    if (logical_ok && (!cache_ok || !nocache_ok)) {
      std::printf("%s: physical pool INFEASIBLE; Logical runs at %.1f GB/s\n",
                  link, logical);
    }
  }
  std::printf("\n");
}

}  // namespace lmp::bench
