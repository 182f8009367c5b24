// SloLedger: per-tenant SLO attainment accounting.
//
// The paper sells logical pools on serving "high-value applications"
// within locality and availability bounds (§5); this ledger measures
// whether a run actually delivered.  Each tenant registers targets —
// a local-fraction floor, a bandwidth floor, an unavailability budget —
// and the benches and chaos harness feed observations: benches record
// each scenario's observed local fraction and achieved bandwidth per
// workload cell, and the FaultInjector's unavailability windows are
// charged to the tenants whose buffers they hit.  The report is
// per-tenant attainment (samples met / samples taken) plus min/mean,
// exported as a JSON sidecar (--slo-out=).
//
// Determinism: observations carry only sim-derived values, entries are
// keyed by tenant name in sorted order, and JSON rendering uses the
// shared trace::JsonNumber helpers — byte-identical across runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/units.h"

namespace lmp::ctrl {

struct SloTargets {
  // Epoch samples with observed local fraction >= this count as met.
  // <= 0: no locality target (every sample counts as met).
  double local_fraction_floor = 0.0;
  // Bandwidth samples >= this (GB/s) count as met.  <= 0: no target.
  double min_bandwidth_gbps = 0.0;
  // Total unavailability budget over the run.  < 0: no target.
  SimTime max_unavailability = -1;
};

struct SloAttainment {
  std::string tenant;
  SloTargets targets;

  std::uint64_t local_samples = 0;
  std::uint64_t local_met = 0;
  double local_min = 0;
  double local_sum = 0;

  std::uint64_t bandwidth_samples = 0;
  std::uint64_t bandwidth_met = 0;
  double bandwidth_min = 0;
  double bandwidth_sum = 0;

  std::uint64_t unavailability_windows = 0;
  SimTime unavailability = 0;

  // Fraction of samples that met the floor; 1.0 with no samples (an SLO
  // nobody observed is vacuously attained, mirroring
  // DemandEstimator::ObservedLocalFraction's no-traffic convention).
  double LocalAttainment() const;
  double BandwidthAttainment() const;
  bool UnavailabilityMet() const;
  // All three dimensions within target.
  bool Met() const;
};

class SloLedger {
 public:
  // Registers (or re-targets) a tenant.  Observations for unregistered
  // tenants auto-register with default (no-op) targets, so chaos cells
  // can be charged without pre-declaring.
  void Register(std::string_view tenant, SloTargets targets);

  void RecordLocalFraction(std::string_view tenant, double fraction);
  void RecordBandwidth(std::string_view tenant, double gbps);
  // One closed unavailability window of `duration` ns.
  void AddUnavailability(std::string_view tenant, SimTime duration);

  std::size_t tenant_count() const { return tenants_.size(); }
  // Null when the tenant has never been registered or observed.
  const SloAttainment* Find(std::string_view tenant) const;

  // {"tenants":{name:{"targets":{...},"local":{...},"bandwidth":{...},
  //                   "unavailability":{...},"met":bool},...}}
  std::string Json() const;
  Status WriteJson(const std::string& path) const;
  // Human-readable per-tenant table (bench stdout when --slo-out is on).
  std::string ReportTable() const;

 private:
  SloAttainment& entry(std::string_view tenant);

  std::map<std::string, SloAttainment, std::less<>> tenants_;
};

}  // namespace lmp::ctrl
