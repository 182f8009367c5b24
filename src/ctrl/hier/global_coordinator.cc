#include "ctrl/hier/global_coordinator.h"

#include <algorithm>

namespace lmp::ctrl::hier {

SpinePlan GlobalCoordinator::Solve(const std::vector<RackSummary>& racks) {
  SpinePlan plan;
  Bytes budget = kSpineBudget;

  // Grantable headroom per rack: free bytes minus the reserve, debited as
  // grants land so pulls and pushes share one capacity view.
  std::vector<Bytes> avail(racks.size(), 0);
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (!racks[i].alive) continue;
    avail[i] = static_cast<Bytes>(static_cast<double>(racks[i].headroom) *
                                  (1.0 - kHeadroomReserve));
  }

  // Pull phase first: localizing hot bytes is the paper's objective, so
  // locality repair outranks capacity overflow for the shared budget.
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (!racks[i].alive) continue;
    const Bytes want =
        std::min({racks[i].remote_hot_bytes, avail[i], budget});
    if (want < kMinGrant) continue;
    plan.pulls.push_back(PullGrant{racks[i].rack, want});
    plan.granted += want;
    budget -= want;
    avail[i] -= want;
  }

  // Push phase: spread each deficit rack's residual over surplus racks in
  // id order.
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (!racks[i].alive) continue;
    Bytes need = racks[i].residual_demand;
    for (std::size_t j = 0; j < racks.size(); ++j) {
      if (j == i || !racks[j].alive) continue;
      if (need < kMinGrant || budget == 0) break;
      const Bytes grant = std::min({need, avail[j], budget});
      if (grant < kMinGrant) continue;
      plan.pushes.push_back(
          PushGrant{racks[i].rack, racks[j].rack, grant});
      plan.granted += grant;
      budget -= grant;
      avail[j] -= grant;
      need -= grant;
    }
  }
  return plan;
}

}  // namespace lmp::ctrl::hier
