// Deterministic sim-time event tracing and metrics export (lmp::trace).
//
// The paper's §5 challenges — shared-region sizing, locality balancing,
// failure handling — are tuned from *measurement*.  This subsystem records
// what the runtime does and when (in simulated time): span events with
// begin/end timestamps (flows, shipped tasks), instant events (migrations,
// crashes, replica creation), and counter samples (link utilization).  The
// export format is Chrome trace_event JSON, loadable in chrome://tracing
// or https://ui.perfetto.dev, plus a structured JSON dump of every
// MetricsRegistry counter and gauge.
//
// Determinism contract: event payloads contain ONLY simulated time and
// values derived from simulation state — never wall clock — so two runs of
// the same experiment produce byte-identical trace files.  Components hold
// a nullable TraceCollector* and skip emission entirely when it is null,
// so tracing is near-zero-cost when disabled.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lmp {
class MetricsRegistry;
}

namespace lmp::trace {

// Event categories: the "cat" field of the exported events.  Stable names
// (see CategoryName) so trace consumers can filter.
enum class Category : std::uint8_t {
  kFlow,         // fluid-simulator flows (begin/end spans per flow id)
  kSolver,       // rate recomputation events
  kMigration,    // balancer rounds and per-segment moves
  kReplication,  // replica creation / redundancy restoration
  kCrash,        // server crashes, failovers, lost segments
  kTask,         // shipped-compute task execution spans
  kLink,         // link/DRAM utilization counter samples
  kHarness,      // bench-harness markers (per-deployment runs)
  kChaos,        // injected faults and chaos-driven recovery transfers
  kCtrl,         // control-plane epochs, resizes, drains
};

std::string_view CategoryName(Category cat);

// Deterministic JSON building blocks, shared by every sidecar exporter
// (trace, metrics, time series, SLO ledger, flight recorder) so all of
// them render numbers and strings identically.
//
// JsonEscape: escapes for embedding inside a JSON string literal (no
// surrounding quotes).  JsonNumber: renders a double byte-stably — %.17g
// round-trips, integral values print without exponent or fraction.
std::string JsonEscape(std::string_view s);
std::string JsonNumber(double v);
// Writes `contents` to `path` (wb), reporting short writes as errors.
Status WriteTextFile(const std::string& path, const std::string& contents);

// One key/value argument attached to an event.  The value is stored
// pre-rendered as JSON (numbers unquoted, strings quoted and escaped), so
// emission is a single append at export time.
struct Arg {
  Arg(std::string_view k, std::string_view v);
  Arg(std::string_view k, const char* v) : Arg(k, std::string_view(v)) {}
  Arg(std::string_view k, double v);
  Arg(std::string_view k, std::uint64_t v);
  Arg(std::string_view k, std::int64_t v);
  Arg(std::string_view k, int v) : Arg(k, static_cast<std::int64_t>(v)) {}
  Arg(std::string_view k, unsigned v)
      : Arg(k, static_cast<std::uint64_t>(v)) {}

  std::string key;
  std::string json_value;
};

class TraceCollector {
 public:
  TraceCollector() = default;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Optional sim-time source for emitters that do not carry a timestamp in
  // their call signature (PoolManager, ReplicationManager).  Must return
  // simulated time; never wire a wall clock here.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  // Current simulated time from the clock source (0 when none is set).
  SimTime now() const { return clock_ ? clock_() : 0; }

  // Starts a new "process" (Perfetto top-level group): subsequent events
  // carry the new pid.  Use one process per independent simulation timeline
  // so restarts at t=0 (e.g. one sim per scheme in bench_failure) do not
  // interleave on shared tracks.
  void BeginProcess(std::string_view name);

  // Span events: Begin/End pairs on a caller-chosen track (the "tid").
  // Give each concurrent entity its own track (flow id, server*slots+slot)
  // so spans nest trivially and per-track timestamps stay monotonic.
  void Begin(Category cat, std::string_view name, std::uint64_t track,
             SimTime ts, std::initializer_list<Arg> args = {});
  void End(Category cat, std::string_view name, std::uint64_t track,
           SimTime ts);

  // Instant event (a point in time) on `track` (default 0).
  void Instant(Category cat, std::string_view name, SimTime ts,
               std::initializer_list<Arg> args = {},
               std::uint64_t track = 0);

  // Counter sample: renders as a value-over-time track in the viewer.
  void Counter(Category cat, std::string_view name, SimTime ts,
               double value);

  std::size_t event_count() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

  // Chrome trace_event JSON: {"traceEvents":[...],"displayTimeUnit":"ns"}.
  // Timestamps are exported in microseconds (the format's unit) with
  // fixed-precision formatting, so output is byte-deterministic.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'B', 'E', 'i', 'C', or 'M' (metadata)
    Category cat;
    std::string name;
    std::uint64_t pid;
    std::uint64_t tid;
    SimTime ts_ns;
    std::string args_json;  // rendered "k":v,... (no braces), may be empty
  };

  void Push(char phase, Category cat, std::string_view name,
            std::uint64_t track, SimTime ts,
            std::initializer_list<Arg> args);

  std::vector<Event> events_;
  std::function<SimTime()> clock_;
  std::uint64_t pid_ = 1;
};

// Structured JSON dump of `registry`:
// {"counters":{name:value,...},"gauges":{name:value,...},
//  "histograms":{name:{count,min,max,mean,p50,p99,p999,
//                      buckets:[[low,high,count],...]},...}}
// with keys in sorted (map) order.  Every registered metric appears EXCEPT
// the "wall." namespace: those carry wall-clock readings (solver timing)
// and would break the byte-determinism contract, so they
// stay operator-only (MetricsRegistry::Report).
std::string MetricsJson(const MetricsRegistry& registry);
Status WriteMetricsJson(const MetricsRegistry& registry,
                        const std::string& path);

}  // namespace lmp::trace
