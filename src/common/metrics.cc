#include "common/metrics.h"

#include <sstream>

namespace lmp {

void MetricsRegistry::Increment(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), 0).first;
  return it->second;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::RecordValue(std::string_view name, std::uint64_t value,
                                  std::uint64_t max_value) {
  GetHistogram(name, max_value).Record(value);
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::uint64_t max_value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(max_value)).first;
  }
  return it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::Counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::Gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::Has(std::string_view name) const {
  return counters_.find(name) != counters_.end() ||
         gauges_.find(name) != gauges_.end() ||
         histograms_.find(name) != histograms_.end();
}

void MetricsRegistry::Reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::Report() const {
  TablePrinter table({"Metric", "Value", "Kind"});
  for (const auto& [name, value] : counters_) {
    table.AddRow({name, std::to_string(value), "counter"});
  }
  for (const auto& [name, value] : gauges_) {
    table.AddRow({name, TablePrinter::Num(value, 3), "gauge"});
  }
  for (const auto& [name, hist] : histograms_) {
    table.AddRow({name, hist.Summary(), "histogram"});
  }
  return table.ToString();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace lmp
