// Deterministic time-series telemetry (lmp::obs).
//
// The trace subsystem (common/trace.h) records *events*; this records
// *state over time*: a TimeSeriesRecorder snapshots a set of registered
// probes — gauges (doubles read from simulation state: local fraction,
// link utilization) and counters (monotonic uint64s: solver shard tasks,
// degraded bytes) — at a fixed simulated-time interval, driven by the
// fluid simulator's own timer wheel.  The samples export as a structured
// JSON sidecar so experiments can plot controller convergence, recovery
// ramps, and utilization without parsing stdout tables.
//
// Determinism contract (same as lmp::trace): sample instants come from
// sim timers and sampled values from simulation state only, so two runs
// of the same experiment — at any --threads= setting — produce
// byte-identical series files.  Probes are sampled in registration order
// at each tick; export renders series in sorted name order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lmp::sim {
class FluidSimulator;
}

namespace lmp::obs {

// Samples registered probes every `interval` ns of simulated time, from
// `Start()` until `horizon` (inclusive).  A finite horizon is required:
// the recorder schedules itself on the simulator's timer wheel, and an
// unbounded recorder would keep an otherwise-idle simulation alive
// forever.
class TimeSeriesRecorder {
 public:
  struct Config {
    SimTime interval = Milliseconds(1);
    // Last instant at which a sample may fire.  Samples stop once the
    // next tick would land past this.
    SimTime horizon = 0;
    // Prepended to every probe name in the export, so one sidecar can
    // hold series from several runs ("scheme/metric").
    std::string prefix;
  };

  TimeSeriesRecorder(sim::FluidSimulator* sim, Config config);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Probe registration.  Callbacks must read simulation state only (never
  // wall clock) and stay valid until the recorder is destroyed or the
  // simulation drains.  Register before Start().
  void AddGauge(std::string name, std::function<double()> fn);
  void AddCounter(std::string name, std::function<std::uint64_t()> fn);

  // Takes one sample immediately (at sim->now()) and schedules sampling
  // every `interval` until `horizon`.  No-op if already running.
  void Start();
  bool running() const { return running_; }

  // Takes one out-of-band sample at the current sim time (also usable
  // without Start() for caller-driven cadences).
  void SampleNow();

  std::size_t probe_count() const { return probes_.size(); }
  std::size_t sample_count() const { return timestamps_.size(); }
  const std::string& prefix() const { return config_.prefix; }

 private:
  friend std::string SeriesJson(
      const std::vector<const TimeSeriesRecorder*>& recorders);

  enum class ProbeKind : std::uint8_t { kGauge, kCounter };

  struct Probe {
    std::string name;  // without prefix
    ProbeKind kind;
    std::function<double()> gauge_fn;
    std::function<std::uint64_t()> counter_fn;
    // Parallel to timestamps_: gauge samples in doubles, counter samples
    // in counters (stored bit-exact as uint64).
    std::vector<double> gauge_values;
    std::vector<std::uint64_t> counter_values;
  };

  void ScheduleNext();

  sim::FluidSimulator* sim_;
  Config config_;
  std::vector<Probe> probes_;
  std::vector<SimTime> timestamps_;
  bool running_ = false;
  bool tick_scheduled_ = false;
};

// Renders the union of all recorders' series as one JSON document:
//   {"series":{"<prefix><name>":{"kind":"gauge"|"counter",
//                                "interval_ns":<n>,
//                                "points":[[ts_ns,value],...]},...}}
// Series keys are emitted in sorted order.  Callers must keep full names
// unique across recorders (distinct prefixes per run); a duplicate keeps
// the first occurrence.
std::string SeriesJson(const std::vector<const TimeSeriesRecorder*>& recorders);

Status WriteSeriesJson(const std::vector<const TimeSeriesRecorder*>& recorders,
                       const std::string& path);

}  // namespace lmp::obs
