// Shared command-line parsing for the bench binaries, so every bench
// understands the same sidecar flags:
//
//   --trace-out=PATH    Chrome trace_event JSON of the run
//   --metrics-out=PATH  JSON dump of every MetricsRegistry counter
//   --seed=N            deterministic seed for benches that randomize
//   --threads=N         solver worker threads (results are byte-identical
//                       for any value; only wall-clock changes)
//   --fault-plan=PATH   lmp::chaos fault plan replayed during the run
//                       (see src/chaos/fault_plan.h for the syntax)
//   --series-out=PATH   time-series JSON sidecar (lmp::obs sampled probes)
//   --slo-out=PATH      per-tenant SLO attainment JSON (ctrl::SloLedger)
//   --postmortem-out=PATH
//                       chaos flight-recorder postmortems (crash snapshots)
//
// Unknown arguments are ignored: benches with their own flags parse argv
// themselves after (or before) Args::Parse.  A --seed= or --threads= value
// that is not a whole decimal number (or a thread count below 1) prints
// "bad --seed= value '<v>'" to stderr and exits 2.  Benches must print
// identical stdout when none of these flags are given — status notes about
// written files go to stderr.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace lmp::bench {

struct Args {
  std::string trace_out;
  std::string metrics_out;
  std::string fault_plan;
  std::string series_out;
  std::string slo_out;
  std::string postmortem_out;
  std::uint64_t seed = 42;
  int threads = 1;

  bool has_fault_plan() const { return !fault_plan.empty(); }

  static Args Parse(int argc, char** argv) {
    Args args;
    const std::pair<std::string_view, std::string*> paths[] = {
        {"--trace-out=", &args.trace_out},
        {"--metrics-out=", &args.metrics_out},
        {"--fault-plan=", &args.fault_plan},
        {"--series-out=", &args.series_out},
        {"--slo-out=", &args.slo_out},
        {"--postmortem-out=", &args.postmortem_out}};
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      for (const auto& [flag, out] : paths) {
        if (arg.starts_with(flag)) *out = arg.substr(flag.size());
      }
      constexpr std::string_view kSeed = "--seed=";
      constexpr std::string_view kThreads = "--threads=";
      if (arg.starts_with(kSeed)) {
        ParseOrExit(kSeed, arg.substr(kSeed.size()), 0, &args.seed);
      } else if (arg.starts_with(kThreads)) {
        ParseOrExit(kThreads, arg.substr(kThreads.size()), 1, &args.threads);
      }
    }
    return args;
  }

 private:
  // Parses `value` as a whole decimal number of at least `min`.  Anything
  // else would silently run a different experiment than the one being
  // replayed, so it prints "bad <flag> value '<value>'" and exits 2.
  template <typename T>
  static void ParseOrExit(std::string_view flag, std::string_view value,
                          std::type_identity_t<T> min, T* out) {
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
    if (ec == std::errc() && ptr == end && *out >= min) return;
    std::fprintf(stderr, "bad %.*s value '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(value.size()), value.data());
    std::exit(2);
  }
};

}  // namespace lmp::bench
