// GlobalCoordinator: the spine tier's rack-level balance.
//
// The coordinator never sees a segment.  Each spine round it receives one
// RackSummary per rack and solves a coarse balance over four scalars per
// rack, emitting *bounded budgets* rather than moves:
//
//   * Pull grants  — a rack with hot bytes homed elsewhere may pull up to
//     `budget` of them home (locality repair after failover or migration
//     drift).
//   * Push grants  — a rack whose own solve left residual demand may push
//     up to `budget` of its coldest bytes into a named surplus rack,
//     freeing local room for the demand that actually wants to be there
//     (capacity overflow).
//
// Every grant is capped by the per-round spine budget, by the receiving
// rack's reserved headroom, and by a minimum-grant floor (spine
// hysteresis), so the uplinks see a bounded, predictable control-plane
// load.  Racks are visited in id order and the solve is pure arithmetic
// over its inputs — byte-deterministic.
#pragma once

#include <vector>

#include "common/units.h"
#include "ctrl/hier/rack_controller.h"

namespace lmp::ctrl::hier {

struct PullGrant {
  int rack = 0;  // the rack allowed to pull hot remote bytes home
  Bytes budget = 0;
};

struct PushGrant {
  int src_rack = 0;  // the deficit rack shedding cold bytes
  int dst_rack = 0;  // the surplus rack absorbing them
  Bytes budget = 0;
};

struct SpinePlan {
  std::vector<PullGrant> pulls;
  std::vector<PushGrant> pushes;
  Bytes granted = 0;  // total budgeted bytes this round
};

class GlobalCoordinator {
 public:
  // Cap on cross-rack bytes granted per spine round.
  static constexpr Bytes kSpineBudget = MiB(64);
  // Fraction of a rack's free bytes held back when granting into it, so a
  // grant cannot fill a rack to the brim and trigger its own overflow.
  static constexpr double kHeadroomReserve = 0.25;
  // Grants below this are noise — dropped (hysteresis for the spine).
  static constexpr Bytes kMinGrant = KiB(64);

  // Solves one spine round.  `racks` must be in rack-id order; dead racks
  // (alive == false) neither give nor receive grants.
  static SpinePlan Solve(const std::vector<RackSummary>& racks);
};

}  // namespace lmp::ctrl::hier
