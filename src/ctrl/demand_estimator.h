// DemandEstimator: turns live telemetry into ServerDemand declarations.
//
// The paper's sizing optimization (§5 "Sizing the shared regions") consumes
// per-server demand, but a production runtime has no oracle handing those
// in — it has to *measure* them.  The estimator derives each server's pool
// demand from the hotness profile and the segment map: every active
// segment's bytes are attributed to its dominant accessor (the server whose
// recent traffic on it is largest), falling back to the segment's home when
// it has no recorded traffic.  Attribution therefore tracks both the
// allocation watermark (segments exist => bytes are wanted) and the access
// pattern (who wants them close).
//
// Two attribution sources (§5 names both profiling mechanisms):
//   * kExactHotness — AccessTracker's decayed per-byte counters (models
//     performance counters; exact but expensive at scale).
//   * kAccessBits   — a shared core::AccessBitSampler's page access bits
//     (cheap, lossy: a scan interval only reveals WHETHER pages were
//     touched).  The sampler is scanned once per epoch by whoever owns the
//     estimator — never by the estimator itself, so several rack-scoped
//     estimators can share one sampler.
//
// Scope: RestrictTo(first, limit) narrows the estimator to one rack's
// servers.  Estimate() then returns entries for scoped servers only and
// attributes only segments whose attributed server falls inside the scope;
// a segment another rack's server dominates is that rack's demand, not
// ours, even when it is homed here.
//
// Cost: every walk starts from the scope's own servers.  The attributed
// segments come from the source's per-server index (AccessTracker or
// AccessBitSampler SegmentsOf), each kept only under its dominant
// accessor; the home fallback walks the scoped servers' frame maps.  An
// epoch therefore costs what the scope touched or homes, not the size of
// the cluster.  Local fractions sum by ascending server, then ascending
// segment id.
//
// Raw attributions are EWMA-smoothed in simulated time so one bursty epoch
// cannot whipsaw the solver: smoothed += (1 - exp(-dt/tau)) * (raw -
// smoothed).  The controller's hysteresis handles the residual jitter.
//
// Determinism: servers are visited in id order and all state is derived
// from sim time + simulation state, so repeated runs produce identical
// demand vectors byte-for-byte.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/access_bits.h"
#include "core/pool_manager.h"
#include "core/sizing.h"

namespace lmp::ctrl {

enum class DemandSource : std::uint8_t { kExactHotness, kAccessBits };

struct EstimatorConfig {
  // EWMA time constant for demand smoothing.  A few controller periods:
  // long enough to ride out bursts, short enough to follow real shifts.
  SimTime time_constant = Milliseconds(50);
  // Provisioning margin applied to the smoothed estimate (1.1 = size the
  // region 10% above measured demand).
  double headroom_factor = 1.0;
  // Attribution input; kAccessBits requires set_access_bits().
  DemandSource source = DemandSource::kExactHotness;
};

class DemandEstimator {
 public:
  // The manager must outlive the estimator.
  explicit DemandEstimator(core::PoolManager* manager,
                           EstimatorConfig config = {});

  // Narrows the estimator to servers [first, limit) — a rack scope.  Must
  // be a non-empty range within the cluster.
  void RestrictTo(cluster::ServerId first, cluster::ServerId limit);
  cluster::ServerId scope_first() const { return scope_first_; }
  cluster::ServerId scope_limit() const { return scope_limit_; }
  bool InScope(cluster::ServerId server) const {
    return server >= scope_first_ && server < scope_limit_;
  }

  // Access-bits input for DemandSource::kAccessBits.  The sampler is
  // shared state owned by the caller; the OWNER scans it (once per epoch),
  // the estimator only reads the last completed interval.
  void set_access_bits(const core::AccessBitSampler* sampler) {
    sampler_ = sampler;
  }
  bool uses_access_bits() const {
    return config_.source == DemandSource::kAccessBits && sampler_ != nullptr;
  }

  // The static per-server input the telemetry cannot observe: the private
  // floor (the server's own non-pool working set).  Default 0.
  void SetPrivateFloor(cluster::ServerId server, Bytes bytes);

  // One demand entry per scoped server (id order), EWMA-smoothed as of
  // `now`.  Calling twice at the same `now` is idempotent (dt = 0 folds
  // nothing).
  std::vector<core::ServerDemand> Estimate(SimTime now);

  // Traffic-weighted fraction of recent (decayed) accesses by scoped
  // servers that hit the accessing server's own shared region — the
  // quantity the paper's objective maximizes, observed rather than
  // planned.  1.0 with no recorded traffic.
  double ObservedLocalFraction(SimTime now) const;

  // Cross-rack pull candidates: active segments homed OUTSIDE the scope
  // (on a peer server, not the pool box) whose dominant accessor is
  // inside it, hottest first (ties by segment id).  What a granted spine
  // budget would localize.
  struct PullCandidate {
    core::SegmentId seg = core::kInvalidSegment;
    cluster::ServerId dst = 0;  // the in-scope dominant accessor
    Bytes size = 0;
    double heat = 0;
  };
  std::vector<PullCandidate> PullCandidates(SimTime now) const;
  // Total bytes across PullCandidates — the rack summary's
  // remote-hot-bytes input to the global coordinator.
  Bytes RemoteHotBytes(SimTime now) const;

  const EstimatorConfig& config() const { return config_; }

 private:
  struct PerServer {
    Bytes private_floor = 0;
    double smoothed = 0;   // EWMA of raw attributed bytes
    SimTime updated = -1;  // < 0: no observation yet
  };

  PerServer& state(cluster::ServerId server);
  // Calls fn(seg, who, heat) for every segment whose dominant accessor in
  // the configured source is a scoped server, by ascending `who`, then
  // ascending segment id.  Segments the map no longer holds are included;
  // callers look each one up.
  template <typename Fn>
  void ForEachAttributed(SimTime now, Fn&& fn) const;
  // True when the configured source saw traffic on `seg`.
  bool HasTraffic(core::SegmentId seg, SimTime now) const;
  // Adds `server`'s decayed traffic on live segments to *total, and the
  // part that hit segments homed on `server` to *local, by ascending
  // segment id.
  void AddLocalTraffic(SimTime now, cluster::ServerId server, double* local,
                       double* total) const;
  template <typename Fn>
  void ForEachPullCandidate(SimTime now, Fn&& fn) const;

  core::PoolManager* manager_;
  EstimatorConfig config_;
  const core::AccessBitSampler* sampler_ = nullptr;
  cluster::ServerId scope_first_ = 0;
  cluster::ServerId scope_limit_ = 0;
  std::vector<PerServer> servers_;
};

}  // namespace lmp::ctrl
