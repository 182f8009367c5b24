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

template <typename Fn>
void DemandEstimator::ForEachAttributed(SimTime now, Fn&& fn) const {
  // Every attributed segment sits in its dominant accessor's index list,
  // so keeping a listed segment only under its dominant server visits
  // each one once: by ascending server, then ascending segment id.
  if (uses_access_bits()) {
    for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
      for (const auto& t : sampler_->SegmentsOf(s)) {
        if (t.dom->server == s) fn(t.seg, s, t.dom->bytes);
      }
    }
    return;
  }
  const core::AccessTracker& tracker = manager_->access_tracker();
  for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
    for (const core::AccessTracker::Tracked& t : tracker.SegmentsOf(s)) {
      core::AccessTracker::DominantAccessor dom;
      if (tracker.Dominant(*t.row, now, &dom) && dom.server == s) {
        fn(t.seg, s, dom.bytes);
      }
    }
  }
}

bool DemandEstimator::HasTraffic(core::SegmentId seg, SimTime now) const {
  if (uses_access_bits()) {
    core::AccessBitSampler::Dominant dom;
    return sampler_->DominantAccessor(seg, &dom);
  }
  core::AccessTracker::DominantAccessor dom;
  return manager_->access_tracker().Dominant(seg, now, &dom);
}

std::vector<core::ServerDemand> DemandEstimator::Estimate(SimTime now) {
  // Raw attribution: each active segment's bytes go to its dominant
  // accessor (recent-traffic plurality), or to its home server when nobody
  // has touched it — an untouched allocation is still demand from whoever
  // it was placed near.  A segment another scope's server dominates is
  // skipped outright: its rack's estimator claims it, and a home-side
  // fallback here would double-count it cluster-wide.  Sizes are whole
  // bytes, so the sums do not depend on visiting order.
  std::vector<double> raw(servers_.size(), 0.0);
  const core::SegmentMap& segments = manager_->segment_map();
  ForEachAttributed(now, [&](core::SegmentId seg, cluster::ServerId who,
                             double) {
    const core::SegmentInfo* info = segments.Find(seg);
    if (info == nullptr || info->state == core::SegmentState::kLost) return;
    raw[who] += static_cast<double>(info->size);
  });
  // Home fallback: every live segment homed on a server is bound in that
  // server's frame map, so the scope's own maps hold every candidate.
  for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
    const core::Location here = core::Location::OnServer(s);
    const core::LocalFrameMap* frames = manager_->FindLocalMap(here);
    if (frames == nullptr) continue;
    frames->ForEach([&](core::SegmentId seg, const auto&) {
      const core::SegmentInfo* info = segments.Find(seg);
      if (info == nullptr || info->home != here ||
          info->state == core::SegmentState::kLost || HasTraffic(seg, now)) {
        return;
      }
      raw[s] += static_cast<double>(info->size);
    });
  }

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
    const Bytes pool =
        mem::FramesForBytes(
            static_cast<Bytes>(st.smoothed * config_.headroom_factor),
            frame) *
        frame;
    demands.push_back(core::ServerDemand{s, st.private_floor, pool});
  }
  return demands;
}

double DemandEstimator::ObservedLocalFraction(SimTime now) const {
  double local = 0, total = 0;
  for (cluster::ServerId s = scope_first_; s < scope_limit_; ++s) {
    AddLocalTraffic(now, s, &local, &total);
  }
  return total == 0 ? 1.0 : local / total;
}

void DemandEstimator::AddLocalTraffic(SimTime now, cluster::ServerId server,
                                      double* local, double* total) const {
  // Only segments `server` holds a counter on: any other would add
  // exactly +0.0 to both sums.
  const core::AccessTracker& tracker = manager_->access_tracker();
  const core::SegmentMap& segments = manager_->segment_map();
  for (const core::AccessTracker::Tracked& t : tracker.SegmentsOf(server)) {
    const core::SegmentInfo* info = segments.Find(t.seg);
    if (info == nullptr || info->state == core::SegmentState::kLost) continue;
    const double bytes = tracker.AccessedBytes(*t.row, server, now);
    *total += bytes;
    if (!info->home.is_pool() && info->home.server == server) {
      *local += bytes;
    }
  }
}

template <typename Fn>
void DemandEstimator::ForEachPullCandidate(SimTime now, Fn&& fn) const {
  const core::SegmentMap& segments = manager_->segment_map();
  ForEachAttributed(now, [&](core::SegmentId seg, cluster::ServerId who,
                             double heat) {
    const core::SegmentInfo* info = segments.Find(seg);
    if (info == nullptr || info->state != core::SegmentState::kActive) return;
    // Homed on a server outside the scope; pool-homed segments are the
    // flat drain path's business, not a cross-rack pull's.
    if (info->home.is_pool() || InScope(info->home.server)) return;
    fn(PullCandidate{seg, who, info->size, heat});
  });
}

std::vector<DemandEstimator::PullCandidate> DemandEstimator::PullCandidates(
    SimTime now) const {
  std::vector<PullCandidate> out;
  ForEachPullCandidate(now,
                       [&](const PullCandidate& c) { out.push_back(c); });
  std::sort(out.begin(), out.end(),
            [](const PullCandidate& a, const PullCandidate& b) {
              if (a.heat != b.heat) return a.heat > b.heat;
              return a.seg < b.seg;
            });
  return out;
}

Bytes DemandEstimator::RemoteHotBytes(SimTime now) const {
  Bytes sum = 0;
  ForEachPullCandidate(now, [&](const PullCandidate& c) { sum += c.size; });
  return sum;
}

}  // namespace lmp::ctrl
