#include "ctrl/hier/hier_controller.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::ctrl::hier {

HierController::HierController(Bindings bindings, HierConfig config)
    : sim_(bindings.sim),
      manager_(bindings.manager),
      topology_(bindings.topology),
      injector_(bindings.injector),
      config_(config),
      probe_estimator_(bindings.manager) {
  LMP_CHECK(sim_ != nullptr);
  LMP_CHECK(manager_ != nullptr);
  LMP_CHECK(config_.period > 0);
  LMP_CHECK(config_.global_every >= 1);

  const auto num_servers =
      static_cast<cluster::ServerId>(manager_->cluster().num_servers());
  int num_racks = 1;
  cluster::ServerId per_rack = num_servers;
  if (topology_ != nullptr && topology_->num_racks() > 0) {
    num_racks = topology_->num_racks();
    per_rack = static_cast<cluster::ServerId>(topology_->servers_per_rack());
  }
  SizingController::Bindings rack_bindings;
  rack_bindings.sim = sim_;
  rack_bindings.manager = manager_;
  rack_bindings.topology = topology_;
  for (int r = 0; r < num_racks; ++r) {
    const cluster::ServerId first = std::min(
        static_cast<cluster::ServerId>(r) * per_rack, num_servers);
    const cluster::ServerId limit = std::min(
        static_cast<cluster::ServerId>(r + 1) * per_rack, num_servers);
    if (first >= limit) break;  // topology has more racks than the cluster
    ControllerConfig rc = config_.rack;
    rc.period = config_.period;
    rc.horizon = -1;  // rack epochs run on the parent's clock
    racks_.push_back(
        std::make_unique<RackController>(rack_bindings, r, first, limit, rc));
  }
  LMP_CHECK(!racks_.empty());

  if (injector_ != nullptr) {
    injector_->set_event_listener([this](const chaos::FaultEvent& event) {
      if (!running_) return;
      switch (event.kind) {
        case chaos::FaultKind::kServerCrash:
        case chaos::FaultKind::kServerRecover:
        case chaos::FaultKind::kRackFail:
          // Defer through a zero-delay timer: the injector is mid-Apply
          // and the spine re-solve must not run inside its call stack.
          sim_->ScheduleAfter(0, [this](SimTime t) {
            if (!running_) return;
            metrics_->Increment("hier.oob_epochs");
            RunEpoch(t, /*out_of_band=*/true);
          });
          break;
        default:
          break;  // link events change rates, not capacity
      }
    });
  }
}

RackController& HierController::rack_of(cluster::ServerId server) {
  for (auto& r : racks_) {
    if (server >= r->first() && server < r->limit()) return *r;
  }
  LMP_CHECK(false) << "server " << server << " is in no rack";
  return *racks_.front();  // unreachable
}

void HierController::set_access_bits(core::AccessBitSampler* sampler) {
  sampler_ = sampler;
  for (auto& r : racks_) {
    r->sizing().estimator().set_access_bits(sampler);
  }
}

void HierController::set_metrics(MetricsRegistry* registry) {
  LMP_CHECK(registry != nullptr);
  metrics_ = registry;
  for (auto& r : racks_) r->set_metrics(registry);
}

void HierController::set_trace(trace::TraceCollector* collector) {
  trace_ = collector;
  for (auto& r : racks_) r->sizing().set_trace(collector);
}

void HierController::Start() {
  if (running_) return;
  running_ = true;
  metrics_->Increment("hier.starts");
  ScheduleNext();
}

void HierController::Stop() { running_ = false; }

void HierController::ScheduleNext() {
  if (!running_ || epoch_scheduled_) return;
  const SimTime next = sim_->now() + config_.period;
  if (config_.horizon >= 0 && next > config_.horizon) {
    running_ = false;
    return;
  }
  epoch_scheduled_ = true;
  sim_->ScheduleAt(next, [this](SimTime t) {
    epoch_scheduled_ = false;
    if (!running_) return;
    RunEpoch(t, /*out_of_band=*/false);
    ScheduleNext();
  });
}

void HierController::RunEpochNow() {
  RunEpoch(sim_->now(), /*out_of_band=*/false);
}

void HierController::RunEpoch(SimTime now, bool out_of_band) {
  ++stats_.epochs;
  metrics_->Increment("hier.epochs");

  // One scan for all racks: every rack estimator then attributes from the
  // same completed interval instead of the first scanner starving the
  // rest.
  if (sampler_ != nullptr) (void)sampler_->ScanAndClear();

  for (auto& r : racks_) r->RunEpoch(now);

  const bool spine_due =
      out_of_band || config_.global_every == 1 ||
      stats_.epochs % static_cast<std::uint64_t>(config_.global_every) == 0;
  if (spine_due) RunGlobalRound(now, out_of_band);

  stats_.last_local_fraction = probe_estimator_.ObservedLocalFraction(now);
  metrics_->SetGauge("hier.local_fraction", stats_.last_local_fraction);
  metrics_->SetGauge("hier.spine_bytes_moved",
                     static_cast<double>(SpineBytesMoved()));
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kCtrl,
                    out_of_band ? "hier_oob_epoch" : "hier_epoch", now,
                    {trace::Arg("epoch", stats_.epochs),
                     trace::Arg("local_fraction", stats_.last_local_fraction),
                     trace::Arg("spine_bytes", SpineBytesMoved())});
  }
}

void HierController::RunGlobalRound(SimTime now, bool out_of_band) {
  ++stats_.global_rounds;
  metrics_->Increment("hier.global_rounds");
  if (out_of_band) {
    ++stats_.oob_resolves;
    metrics_->Increment("hier.oob_resolves");
  }

  std::vector<RackSummary> summaries;
  summaries.reserve(racks_.size());
  for (auto& r : racks_) summaries.push_back(r->Summary(now));
  const SpinePlan plan = GlobalCoordinator::Solve(summaries);

  stats_.pull_grants += plan.pulls.size();
  stats_.push_grants += plan.pushes.size();
  stats_.granted_bytes += plan.granted;
  metrics_->Increment("hier.granted_bytes", plan.granted);

  for (const PullGrant& g : plan.pulls) {
    stats_.pulled_bytes += racks_[g.rack]->ExecutePulls(now, g.budget);
  }
  for (const PushGrant& g : plan.pushes) {
    RackController& dst = *racks_[g.dst_rack];
    stats_.pushed_bytes += racks_[g.src_rack]->ExecutePushes(
        now, g.budget, dst.first(), dst.limit());
  }

  if (trace_ != nullptr) {
    trace_->Instant(
        trace::Category::kCtrl, "spine_round", now,
        {trace::Arg("round", stats_.global_rounds),
         trace::Arg("granted", plan.granted),
         trace::Arg("pulls", static_cast<std::uint64_t>(plan.pulls.size())),
         trace::Arg("pushes",
                    static_cast<std::uint64_t>(plan.pushes.size())),
         trace::Arg("oob", out_of_band ? 1 : 0)});
  }
}

Bytes HierController::SpineBytesMoved() const {
  Bytes total = 0;
  for (const auto& r : racks_) {
    total += r->stats().spine_bytes;
    total += r->sizing().stats().spine_bytes;
  }
  return total;
}

}  // namespace lmp::ctrl::hier
