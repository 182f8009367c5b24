#include "ctrl/slo_ledger.h"

#include <cinttypes>
#include <cstdio>

#include "common/table.h"
#include "common/trace.h"

namespace lmp::ctrl {

double SloAttainment::LocalAttainment() const {
  if (local_samples == 0) return 1.0;
  return static_cast<double>(local_met) /
         static_cast<double>(local_samples);
}

double SloAttainment::BandwidthAttainment() const {
  if (bandwidth_samples == 0) return 1.0;
  return static_cast<double>(bandwidth_met) /
         static_cast<double>(bandwidth_samples);
}

bool SloAttainment::UnavailabilityMet() const {
  return targets.max_unavailability < 0 ||
         unavailability <= targets.max_unavailability;
}

bool SloAttainment::Met() const {
  return local_met == local_samples && bandwidth_met == bandwidth_samples &&
         UnavailabilityMet();
}

SloAttainment& SloLedger::entry(std::string_view tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(std::string(tenant), SloAttainment{}).first;
    it->second.tenant = std::string(tenant);
  }
  return it->second;
}

void SloLedger::Register(std::string_view tenant, SloTargets targets) {
  entry(tenant).targets = targets;
}

void SloLedger::RecordLocalFraction(std::string_view tenant,
                                    double fraction) {
  SloAttainment& a = entry(tenant);
  if (a.local_samples == 0 || fraction < a.local_min) a.local_min = fraction;
  ++a.local_samples;
  a.local_sum += fraction;
  if (a.targets.local_fraction_floor <= 0 ||
      fraction >= a.targets.local_fraction_floor) {
    ++a.local_met;
  }
}

void SloLedger::RecordBandwidth(std::string_view tenant, double gbps) {
  SloAttainment& a = entry(tenant);
  if (a.bandwidth_samples == 0 || gbps < a.bandwidth_min) {
    a.bandwidth_min = gbps;
  }
  ++a.bandwidth_samples;
  a.bandwidth_sum += gbps;
  if (a.targets.min_bandwidth_gbps <= 0 ||
      gbps >= a.targets.min_bandwidth_gbps) {
    ++a.bandwidth_met;
  }
}

void SloLedger::AddUnavailability(std::string_view tenant,
                                  SimTime duration) {
  SloAttainment& a = entry(tenant);
  ++a.unavailability_windows;
  a.unavailability += duration;
}

const SloAttainment* SloLedger::Find(std::string_view tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

std::string SloLedger::Json() const {
  char buf[32];
  const auto u64 = [&buf](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return std::string(buf);
  };
  std::string out = "{\"tenants\":{";
  bool first = true;
  for (const auto& [name, a] : tenants_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += trace::JsonEscape(name);
    out += "\":{\"targets\":{\"local_fraction_floor\":";
    out += trace::JsonNumber(a.targets.local_fraction_floor);
    out += ",\"min_bandwidth_gbps\":";
    out += trace::JsonNumber(a.targets.min_bandwidth_gbps);
    out += ",\"max_unavailability_ns\":";
    out += trace::JsonNumber(a.targets.max_unavailability);
    out += "},\"local\":{\"samples\":";
    out += u64(a.local_samples);
    out += ",\"met\":";
    out += u64(a.local_met);
    out += ",\"attainment\":";
    out += trace::JsonNumber(a.LocalAttainment());
    out += ",\"min\":";
    out += trace::JsonNumber(a.local_min);
    out += ",\"mean\":";
    out += trace::JsonNumber(
        a.local_samples == 0
            ? 0.0
            : a.local_sum / static_cast<double>(a.local_samples));
    out += "},\"bandwidth\":{\"samples\":";
    out += u64(a.bandwidth_samples);
    out += ",\"met\":";
    out += u64(a.bandwidth_met);
    out += ",\"attainment\":";
    out += trace::JsonNumber(a.BandwidthAttainment());
    out += ",\"min\":";
    out += trace::JsonNumber(a.bandwidth_min);
    out += ",\"mean\":";
    out += trace::JsonNumber(
        a.bandwidth_samples == 0
            ? 0.0
            : a.bandwidth_sum / static_cast<double>(a.bandwidth_samples));
    out += "},\"unavailability\":{\"windows\":";
    out += u64(a.unavailability_windows);
    out += ",\"total_ns\":";
    out += trace::JsonNumber(a.unavailability);
    out += ",\"met\":";
    out += a.UnavailabilityMet() ? "true" : "false";
    out += "},\"met\":";
    out += a.Met() ? "true" : "false";
    out += '}';
  }
  out += "}}";
  return out;
}

Status SloLedger::WriteJson(const std::string& path) const {
  return trace::WriteTextFile(path, Json());
}

std::string SloLedger::ReportTable() const {
  TablePrinter table({"Tenant", "Local att.", "Local min", "BW att.",
                      "BW min GB/s", "Unavail ms", "Met"});
  for (const auto& [name, a] : tenants_) {
    table.AddRow({name, TablePrinter::Num(a.LocalAttainment(), 3),
                  TablePrinter::Num(a.local_min, 3),
                  TablePrinter::Num(a.BandwidthAttainment(), 3),
                  TablePrinter::Num(a.bandwidth_min, 2),
                  TablePrinter::Num(a.unavailability / kNsPerMs, 3),
                  a.Met() ? "yes" : "NO"});
  }
  return table.ToString();
}

}  // namespace lmp::ctrl
