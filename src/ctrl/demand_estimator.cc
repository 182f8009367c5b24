#include "ctrl/demand_estimator.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::ctrl {

DemandEstimator::DemandEstimator(core::PoolManager* manager,
                                 EstimatorConfig config)
    : manager_(manager), config_(config) {
  LMP_CHECK(manager != nullptr);
  LMP_CHECK(config_.time_constant > 0);
  LMP_CHECK(config_.headroom_factor > 0);
  servers_.resize(manager_->cluster().num_servers());
  scope_limit_ = static_cast<cluster::ServerId>(servers_.size());
}

void DemandEstimator::RestrictTo(cluster::ServerId first,
                                 cluster::ServerId limit) {
  LMP_CHECK(first < limit) << "empty estimator scope";
  LMP_CHECK(limit <= servers_.size()) << "scope past cluster end";
  scope_first_ = first;
  scope_limit_ = limit;
}

DemandEstimator::PerServer& DemandEstimator::state(cluster::ServerId server) {
  LMP_CHECK(server < servers_.size()) << "unknown server " << server;
  return servers_[server];
}

void DemandEstimator::SetPrivateFloor(cluster::ServerId server, Bytes bytes) {
  state(server).private_floor = bytes;
}

void DemandEstimator::SetPriority(cluster::ServerId server, double priority) {
  state(server).priority = priority;
}

void DemandEstimator::SetLeaseDemand(cluster::ServerId server, Bytes bytes) {
  state(server).lease_demand = bytes;
}

void DemandEstimator::ClearLeaseDemands() {
  for (PerServer& s : servers_) s.lease_demand = 0;
}

bool DemandEstimator::Attribute(const core::SegmentInfo& info, SimTime now,
                                cluster::ServerId* who, double* heat) const {
  if (uses_access_bits()) {
    core::AccessBitSampler::Dominant dom;
    if (!sampler_->DominantAccessor(info.id, &dom)) return false;
    *who = dom.server;
    *heat = dom.bytes;
    return true;
  }
  core::AccessTracker::DominantAccessor dom;
  if (!manager_->access_tracker().Dominant(info.id, now, &dom)) return false;
  *who = dom.server;
  *heat = dom.bytes;
  return true;
}

std::vector<core::ServerDemand> DemandEstimator::Estimate(SimTime now) {
  // Raw attribution: each active segment's bytes go to its dominant
  // accessor (recent-traffic plurality), or to its home server when nobody
  // has touched it — an untouched allocation is still demand from whoever
  // it was placed near.  A segment another scope's server dominates is
  // skipped outright: its rack's estimator claims it, and a home-side
  // fallback here would double-count it cluster-wide.
  std::vector<double> raw(servers_.size(), 0.0);
  manager_->segment_map().ForEach([&](const core::SegmentInfo& info) {
    if (info.state == core::SegmentState::kLost) return;
    cluster::ServerId who = 0;
    double heat = 0;
    if (Attribute(info, now, &who, &heat)) {
      if (InScope(who) && who < raw.size()) {
        raw[who] += static_cast<double>(info.size);
      }
    } else if (!info.home.is_pool() && InScope(info.home.server) &&
               info.home.server < raw.size()) {
      raw[info.home.server] += static_cast<double>(info.size);
    }
  });

  std::vector<core::ServerDemand> demands;
  demands.reserve(scope_limit_ - scope_first_);
  for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
    PerServer& st = servers_[s];
    if (st.updated < 0) {
      st.smoothed = raw[s];
    } else {
      const SimTime dt = now - st.updated;
      if (dt > 0) {
        const double alpha = 1.0 - std::exp(-dt / config_.time_constant);
        st.smoothed += alpha * (raw[s] - st.smoothed);
      }
    }
    st.updated = now;

    // Round the smoothed estimate up to whole frames: sub-frame dither
    // would otherwise produce endless ±1-byte resize requests.
    const Bytes frame = manager_->cluster().server(s).frame_size();
    const Bytes organic =
        mem::FramesForBytes(
            static_cast<Bytes>(st.smoothed * config_.headroom_factor),
            frame) *
        frame;
    demands.push_back(core::ServerDemand{s, st.private_floor,
                                         organic + st.lease_demand,
                                         st.priority});
  }
  return demands;
}

double DemandEstimator::ObservedLocalFraction(SimTime now) const {
  const core::AccessTracker& tracker = manager_->access_tracker();
  double local = 0, total = 0;
  // Only servers with a counter are visited: a scoped server that never
  // touched the segment would add exactly +0.0, so skipping it leaves both
  // sums bit-identical to a walk over the whole scope.
  manager_->segment_map().ForEach([&](const core::SegmentInfo& info) {
    if (info.state == core::SegmentState::kLost) return;
    tracker.ForEachAccessor(
        info.id, now, [&](cluster::ServerId s, double bytes) {
          if (!InScope(s)) return;
          total += bytes;
          if (!info.home.is_pool() && info.home.server == s) local += bytes;
        });
  });
  return total == 0 ? 1.0 : local / total;
}

double DemandEstimator::ObservedLocalFraction(
    SimTime now, cluster::ServerId server) const {
  const core::AccessTracker& tracker = manager_->access_tracker();
  double local = 0, total = 0;
  manager_->segment_map().ForEach([&](const core::SegmentInfo& info) {
    if (info.state == core::SegmentState::kLost) return;
    const double bytes = tracker.AccessedBytes(info.id, server, now);
    total += bytes;
    if (!info.home.is_pool() && info.home.server == server) local += bytes;
  });
  return total == 0 ? 1.0 : local / total;
}

std::vector<DemandEstimator::PullCandidate> DemandEstimator::PullCandidates(
    SimTime now) const {
  std::vector<PullCandidate> out;
  manager_->segment_map().ForEach([&](const core::SegmentInfo& info) {
    if (info.state != core::SegmentState::kActive) return;
    // Homed on a server outside the scope; pool-homed segments are the
    // flat drain path's business, not a cross-rack pull's.
    if (info.home.is_pool() || InScope(info.home.server)) return;
    cluster::ServerId who = 0;
    double heat = 0;
    if (!Attribute(info, now, &who, &heat)) return;
    if (!InScope(who)) return;
    out.push_back(PullCandidate{info.id, who, info.size, heat});
  });
  std::sort(out.begin(), out.end(),
            [](const PullCandidate& a, const PullCandidate& b) {
              if (a.heat != b.heat) return a.heat > b.heat;
              return a.seg < b.seg;
            });
  return out;
}

Bytes DemandEstimator::RemoteHotBytes(SimTime now) const {
  Bytes sum = 0;
  for (const PullCandidate& c : PullCandidates(now)) sum += c.size;
  return sum;
}

Bytes DemandEstimator::SmoothedOrganicDemand() const {
  double sum = 0;
  for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
    sum += servers_[s].smoothed;
  }
  return static_cast<Bytes>(sum);
}

}  // namespace lmp::ctrl
