// experiment_cli: run any paper experiment from the command line.
//
//   $ ./experiment_cli deployment=logical link=link1 gib=64 reps=10
//   $ ./experiment_cli deployment=cache link=link0 gib=24
//   $ ./experiment_cli deployment=swap gib=96 cores=14 balanced=true
//
// Keys: deployment=logical|cache|nocache|swap, link=link0|link1|pond|fpga,
//       gib=<vector GiB>, reps=<repetitions>, cores=<runner cores>,
//       balanced=<bool>, distributed=<bool> (logical only; §4.4 shipping).
#include <cstdio>
#include <memory>

#include "baselines/logical.h"
#include "baselines/physical.h"
#include "baselines/software_swap.h"
#include "common/config.h"

namespace {

using namespace lmp;

fabric::LinkProfile LinkByName(const std::string& name) {
  if (name == "link1") return fabric::LinkProfile::Link1();
  if (name == "pond") return fabric::LinkProfile::PondCxl();
  if (name == "fpga") return fabric::LinkProfile::FpgaCxl();
  return fabric::LinkProfile::Link0();
}

}  // namespace

int main(int argc, char** argv) {
  auto config_or = Config::FromArgs(argc, argv);
  if (!config_or.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 config_or.status().ToString().c_str());
    return 1;
  }
  const Config& config = *config_or;

  const std::string deployment_name =
      config.GetString("deployment", "logical").value_or("logical");
  const fabric::LinkProfile link =
      LinkByName(config.GetString("link", "link0").value_or("link0"));

  baselines::VectorSumParams params;
  params.vector_bytes = GiB(static_cast<std::uint64_t>(
      config.GetInt("gib", 24).value_or(24)));
  params.repetitions =
      static_cast<int>(config.GetInt("reps", 10).value_or(10));
  params.cores = static_cast<int>(config.GetInt("cores", 14).value_or(14));
  params.balanced_slices =
      config.GetBool("balanced", false).value_or(false);
  const bool distributed =
      config.GetBool("distributed", false).value_or(false);

  StatusOr<baselines::WorkloadResult> result = baselines::WorkloadResult{};
  std::string label;
  if (deployment_name == "cache" || deployment_name == "nocache") {
    baselines::PhysicalDeployment deployment(link,
                                             deployment_name == "cache");
    label = std::string(deployment.name());
    result = deployment.RunWorkload({.vector = params});
  } else if (deployment_name == "swap") {
    baselines::SoftwareSwapDeployment deployment(link);
    label = std::string(deployment.name());
    result = deployment.RunWorkload({.vector = params});
  } else {
    baselines::LogicalDeployment deployment(link);
    label = std::string(deployment.name());
    if (!distributed) {
      result = deployment.RunWorkload({.vector = params});
    } else if (auto shipped = deployment.RunDistributedSum(params);
               shipped.ok()) {
      result->vector = *shipped;
    } else {
      result = shipped.status();
    }
  }

  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const auto& r = result->vector;
  std::printf("deployment=%s link=%s vector=%llu GiB cores=%d reps=%d%s\n",
              label.c_str(), link.name.c_str(),
              static_cast<unsigned long long>(params.vector_bytes / kGiB),
              params.cores, params.repetitions,
              distributed ? " (distributed)" : "");
  if (!r.feasible) {
    std::printf("INFEASIBLE: %s\n", r.infeasible_reason.c_str());
    return 0;
  }
  std::printf(
      "avg %.1f GB/s | rep1 %.1f | steady %.1f | local %.1f%% | "
      "%.0f ms simulated\n",
      r.avg_bandwidth_gbps, r.first_rep_gbps, r.steady_rep_gbps,
      100 * r.local_fraction, r.total_time_ns / kNsPerMs);
  return 0;
}
