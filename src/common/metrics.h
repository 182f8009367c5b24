// Metrics: a lightweight named counter/gauge/histogram registry.
//
// The runtime's components export operational counters (allocations,
// migrations, coherence messages, recovery bytes) through a shared
// registry so operators — and the example binaries — can dump one table
// instead of spelunking component stats structs.  Counters are monotonic;
// gauges are set-to-value; histograms are log-bucketed distribution
// instruments (flow durations, drain completion times, recovery TTR).
// Lookup is by name; creation is idempotent.
//
// Determinism contract: everything recorded here is expected to derive
// from simulated time and simulation state, because the registry feeds the
// byte-deterministic metrics JSON (trace::MetricsJson).  The one sanctioned
// escape hatch is the "wall." namespace: metrics named "wall.*" hold
// wall-clock measurements (solver timing), show up in
// Report() for operators, and are EXCLUDED from the deterministic export.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/table.h"

namespace lmp {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Metrics under this prefix carry wall-clock readings: visible in
  // Report(), skipped by deterministic exporters.
  static constexpr std::string_view kWallPrefix = "wall.";
  static bool IsWallMetric(std::string_view name) {
    return name.substr(0, kWallPrefix.size()) == kWallPrefix;
  }

  // Monotonic counter; created on first use.
  void Increment(std::string_view name, std::uint64_t delta = 1);
  // Named counter cell, created at 0 on first use.  The reference is a
  // stable handle: the registry's map nodes never move, so later
  // insertions leave it valid, and adding to it is what Increment does.
  // Callers on hot paths cache it instead of looking the name up per
  // event.
  std::uint64_t& GetCounter(std::string_view name);
  // Point-in-time gauge; created on first use.
  void SetGauge(std::string_view name, double value);
  // Distribution sample; the histogram is created on first use with
  // `max_value` (later calls reuse the existing instrument).
  void RecordValue(std::string_view name, std::uint64_t value,
                   std::uint64_t max_value = 1ull << 40);

  // Named histogram instrument, created on first use.  Callers on hot
  // paths cache the reference instead of looking it up per sample; like
  // GetCounter's, it stays valid until Reset().
  Histogram& GetHistogram(std::string_view name,
                          std::uint64_t max_value = 1ull << 40);
  // Null when no such histogram exists.
  const Histogram* FindHistogram(std::string_view name) const;

  std::uint64_t Counter(std::string_view name) const;
  double Gauge(std::string_view name) const;
  bool Has(std::string_view name) const;
  std::size_t size() const { return counters_.size() + gauges_.size(); }

  // Erases every instrument, so every cached GetHistogram reference and
  // GetCounter handle dangles afterwards: only a registry whose users
  // cache nothing (or are rebuilt) may be Reset.
  void Reset();

  // All metrics as an aligned table, sorted by name.
  std::string Report() const;

  // Sorted-by-name iteration, for structured exporters (trace::MetricsJson).
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // A process-wide registry for components without an injected one.
  static MetricsRegistry& Global();

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace lmp
