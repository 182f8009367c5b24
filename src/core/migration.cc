#include "core/migration.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {

MigrationEngine::MigrationEngine(PoolManager* manager, MigrationConfig config)
    : manager_(manager), config_(config) {
  LMP_CHECK(manager != nullptr);
}

StatusOr<MigrationRoundStats> MigrationEngine::RunOnce(
    SimTime now, std::vector<MigrationRecord>* records) {
  MigrationRoundStats stats;

  struct Candidate {
    SegmentId seg;
    cluster::ServerId dst;
    double score;  // projected traffic converted to local, net of copy cost
  };
  std::vector<Candidate> candidates;

  const bool scoped = config_.scope_limit > config_.scope_first;
  const AccessTracker& tracker = manager_->access_tracker();
  manager_->segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kActive) return;
    AccessTracker::DominantAccessor dom;
    if (!tracker.Dominant(info.id, now, &dom)) return;
    if (dom.share < config_.dominance_threshold) return;
    // Already local to the dominant accessor?
    if (!info.home.is_pool() && info.home.server == dom.server) return;
    if (scoped) {
      if (dom.server < config_.scope_first ||
          dom.server >= config_.scope_limit) {
        return;
      }
      if (info.home.is_pool() || info.home.server < config_.scope_first ||
          info.home.server >= config_.scope_limit) {
        return;  // homed off-rack: a pull grant's job, not this round's
      }
    }
    const double copy_cost = static_cast<double>(info.size);
    if (dom.bytes < config_.benefit_factor * copy_cost) return;
    candidates.push_back(Candidate{info.id, dom.server,
                                   dom.bytes - copy_cost});
  });

  stats.candidates = static_cast<int>(candidates.size());
  // Candidates were collected in SegmentMap hash order; the id tie-break
  // makes equal scores migrate in the same order on every build.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score > b.score : a.seg < b.seg;
            });

  for (const Candidate& c : candidates) {
    if (stats.migrated >= config_.max_migrations_per_round) break;
    auto rec_or = manager_->MigrateSegment(c.seg, c.dst);
    if (!rec_or.ok()) {
      if (IsOutOfMemory(rec_or.status())) {
        ++stats.skipped_capacity;
        continue;
      }
      // A segment that started migrating/replicating between scoring and
      // execution is skipped this round, not a failure.
      if (IsFailedPrecondition(rec_or.status())) continue;
      return rec_or.status();
    }
    ++stats.migrated;
    stats.bytes_moved += rec_or->bytes;
    if (records != nullptr) records->push_back(rec_or.value());
  }
  if (trace::TraceCollector* t = manager_->trace(); t != nullptr) {
    t->Instant(trace::Category::kMigration, "migration_round", now,
               {trace::Arg("candidates", stats.candidates),
                trace::Arg("migrated", stats.migrated),
                trace::Arg("bytes", stats.bytes_moved),
                trace::Arg("skipped_capacity", stats.skipped_capacity)});
  }
  return stats;
}

}  // namespace lmp::core
