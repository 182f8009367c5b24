// Command-line plumbing for the tracing/metrics layer, shared by the bench
// binaries:
//
//   --trace-out=PATH       write a Chrome trace_event JSON (chrome://tracing,
//                          https://ui.perfetto.dev) of the run
//   --metrics-out=PATH     write a JSON dump of every MetricsRegistry counter
//   --series-out=PATH      write the lmp::obs time-series sampled during the
//                          run (benches wire the recorders)
//   --slo-out=PATH         write the per-tenant SLO ledger, and print its
//                          attainment table on stdout
//   --postmortem-out=PATH  write the chaos flight recorder's postmortems
//
// Without any flag the sidecar hands out a null collector and the
// binaries' stdout is byte-identical to a build without tracing at all.
// Status notes about written files go to stderr so stdout stays clean for
// diffing.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ctrl/slo_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/time_series.h"

namespace lmp::bench {

class TraceSidecar {
 public:
  explicit TraceSidecar(const Args& args)
      : trace_path_(args.trace_out),
        metrics_path_(args.metrics_out),
        series_path_(args.series_out),
        slo_path_(args.slo_out),
        postmortem_path_(args.postmortem_out) {}

  // Null when --trace-out was not given: emitters skip all work.
  trace::TraceCollector* collector() {
    return trace_path_.empty() ? nullptr : &collector_;
  }

  bool wants_series() const { return !series_path_.empty(); }

  // Null when --slo-out was not given, so benches wire SLO accounting
  // only when asked (stdout stays byte-identical otherwise).
  ctrl::SloLedger* slo_ledger() {
    return slo_path_.empty() ? nullptr : &slo_ledger_;
  }

  // Null when --postmortem-out was not given.
  obs::FlightRecorder* flight_recorder() {
    return postmortem_path_.empty() ? nullptr : &flight_;
  }

  // Registers a recorder for the --series-out export.  The recorder must
  // stay alive until Flush (its backing simulator need not).
  void AddSeriesRecorder(const obs::TimeSeriesRecorder* recorder) {
    series_.push_back(recorder);
  }

  // Writes the requested files (call once, after the run).  With --slo-out
  // the attainment table also prints on stdout — an opted-in addition, so
  // flag-off stdout is unchanged.
  void Flush() {
    if (!trace_path_.empty()) {
      const Status st = collector_.WriteChromeJson(trace_path_);
      if (st.ok()) {
        std::fprintf(stderr, "trace: %zu events -> %s\n",
                     collector_.event_count(), trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      const Status st =
          trace::WriteMetricsJson(MetricsRegistry::Global(), metrics_path_);
      if (st.ok()) {
        std::fprintf(stderr, "metrics -> %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    if (!series_path_.empty()) {
      const Status st = obs::WriteSeriesJson(series_, series_path_);
      if (st.ok()) {
        std::fprintf(stderr, "series: %zu recorders -> %s\n",
                     series_.size(), series_path_.c_str());
      } else {
        std::fprintf(stderr, "series: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    if (!slo_path_.empty()) {
      std::printf("\n== SLO attainment (%zu tenants) ==\n%s",
                  slo_ledger_.tenant_count(),
                  slo_ledger_.ReportTable().c_str());
      const Status st = slo_ledger_.WriteJson(slo_path_);
      if (st.ok()) {
        std::fprintf(stderr, "slo -> %s\n", slo_path_.c_str());
      } else {
        std::fprintf(stderr, "slo: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    if (!postmortem_path_.empty()) {
      const Status st = flight_.WritePostmortem(postmortem_path_);
      if (st.ok()) {
        std::fprintf(stderr, "postmortem: %zu snapshots -> %s\n",
                     flight_.postmortem_count(), postmortem_path_.c_str());
      } else {
        std::fprintf(stderr, "postmortem: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
  }

 private:
  trace::TraceCollector collector_;
  ctrl::SloLedger slo_ledger_;
  obs::FlightRecorder flight_;
  std::vector<const obs::TimeSeriesRecorder*> series_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string series_path_;
  std::string slo_path_;
  std::string postmortem_path_;
};

}  // namespace lmp::bench
