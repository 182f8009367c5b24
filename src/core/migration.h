// MigrationEngine — locality balancing (§5).
//
// The paper's challenge: NUMA balancing unmaps pages to sample accesses,
// which is too slow for an LMP; instead accesses are profiled (our
// AccessTracker stands in for performance counters / access bits) and a
// policy periodically migrates hot remote segments toward their dominant
// accessor.  Migration is worthwhile when the recent remote traffic a move
// would convert to local traffic exceeds the one-time copy cost by a
// configurable factor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/pool_manager.h"

namespace lmp::core {

struct MigrationConfig {
  // A segment is a candidate only when one server generates at least this
  // share of its recent traffic...
  double dominance_threshold = 0.55;
  // ...and that traffic (decayed bytes) exceeds the copy cost by this
  // factor.  >1 means "the move pays for itself within one half-life".
  double benefit_factor = 1.0;
  // Cap per balancing round, so one round cannot saturate the fabric.
  int max_migrations_per_round = 8;
  // Rack scope: when scope_limit > scope_first, a round only moves
  // segments whose dominant accessor AND current home both fall in
  // [scope_first, scope_limit) — rack-local balancing that never crosses
  // the spine.  Cross-rack moves are the hierarchical coordinator's to
  // grant, not the balancer's to take.  Default (0, 0) is unscoped.
  cluster::ServerId scope_first = 0;
  cluster::ServerId scope_limit = 0;
};

struct MigrationRoundStats {
  int candidates = 0;
  int migrated = 0;
  int skipped_capacity = 0;
  Bytes bytes_moved = 0;
};

class MigrationEngine {
 public:
  MigrationEngine(PoolManager* manager, MigrationConfig config = {});

  // One balancing round at simulated time `now`.  Appends executed
  // migrations to `records` (optional) and returns round statistics.
  // Capacity misses and busy segments are counted, not errors; anything
  // else (a corrupt segment map, a crashed destination) propagates.
  StatusOr<MigrationRoundStats> RunOnce(
      SimTime now, std::vector<MigrationRecord>* records = nullptr);

  // The segments a round at `now` would try to move, best first (highest
  // score, then lowest segment id).  Read from the access tracker's
  // per-server index: only the scope's servers (every indexed server when
  // unscoped) are visited, each segment under its dominant accessor.
  struct Candidate {
    SegmentId seg = kInvalidSegment;
    cluster::ServerId dst = 0;
    double score = 0;  // projected traffic converted to local, net of copy
  };
  std::vector<Candidate> Candidates(SimTime now) const;

  const MigrationConfig& config() const { return config_; }

 private:
  PoolManager* manager_;
  MigrationConfig config_;
};

}  // namespace lmp::core
