#include "obs/time_series.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "common/trace.h"
#include "sim/fluid.h"

namespace lmp::obs {

TimeSeriesRecorder::TimeSeriesRecorder(sim::FluidSimulator* sim,
                                       Config config)
    : sim_(sim), config_(std::move(config)) {}

void TimeSeriesRecorder::AddGauge(std::string name,
                                  std::function<double()> fn) {
  Probe p;
  p.name = std::move(name);
  p.kind = ProbeKind::kGauge;
  p.gauge_fn = std::move(fn);
  probes_.push_back(std::move(p));
}

void TimeSeriesRecorder::AddCounter(std::string name,
                                    std::function<std::uint64_t()> fn) {
  Probe p;
  p.name = std::move(name);
  p.kind = ProbeKind::kCounter;
  p.counter_fn = std::move(fn);
  probes_.push_back(std::move(p));
}

void TimeSeriesRecorder::Start() {
  if (running_) return;
  running_ = true;
  SampleNow();
  ScheduleNext();
}

void TimeSeriesRecorder::SampleNow() {
  timestamps_.push_back(sim_->now());
  for (Probe& p : probes_) {
    if (p.kind == ProbeKind::kGauge) {
      p.gauge_values.push_back(p.gauge_fn());
    } else {
      p.counter_values.push_back(p.counter_fn());
    }
  }
}

void TimeSeriesRecorder::ScheduleNext() {
  if (!running_ || tick_scheduled_) return;
  const SimTime next = sim_->now() + config_.interval;
  if (next > config_.horizon) {
    running_ = false;
    return;
  }
  tick_scheduled_ = true;
  sim_->ScheduleAt(next, [this](SimTime) {
    tick_scheduled_ = false;
    SampleNow();
    ScheduleNext();
  });
}

std::string SeriesJson(
    const std::vector<const TimeSeriesRecorder*>& recorders) {
  // Render each series body first, keyed by full name, so emission order
  // is sorted regardless of recorder or registration order.
  std::map<std::string, std::string> bodies;
  char buf[32];
  for (const TimeSeriesRecorder* rec : recorders) {
    for (const auto& p : rec->probes_) {
      std::string body = "{\"kind\":\"";
      body += p.kind == TimeSeriesRecorder::ProbeKind::kGauge ? "gauge"
                                                              : "counter";
      body += "\",\"interval_ns\":";
      body += trace::JsonNumber(rec->config_.interval);
      body += ",\"points\":[";
      const std::size_t n = rec->timestamps_.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (i != 0) body += ',';
        body += '[';
        body += trace::JsonNumber(rec->timestamps_[i]);
        body += ',';
        if (p.kind == TimeSeriesRecorder::ProbeKind::kGauge) {
          body += trace::JsonNumber(p.gauge_values[i]);
        } else {
          std::snprintf(buf, sizeof(buf), "%" PRIu64, p.counter_values[i]);
          body += buf;
        }
        body += ']';
      }
      body += "]}";
      bodies.emplace(rec->config_.prefix + p.name, std::move(body));
    }
  }
  std::string out = "{\"series\":{";
  bool first = true;
  for (const auto& [name, body] : bodies) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += trace::JsonEscape(name);
    out += "\":";
    out += body;
  }
  out += "}}";
  return out;
}

Status WriteSeriesJson(
    const std::vector<const TimeSeriesRecorder*>& recorders,
    const std::string& path) {
  return trace::WriteTextFile(path, SeriesJson(recorders));
}

}  // namespace lmp::obs
