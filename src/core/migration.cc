#include "core/migration.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {

MigrationEngine::MigrationEngine(PoolManager* manager, MigrationConfig config)
    : manager_(manager), config_(config) {
  LMP_CHECK(manager != nullptr);
}

std::vector<MigrationEngine::Candidate> MigrationEngine::Candidates(
    SimTime now) const {
  std::vector<Candidate> candidates;
  const bool scoped = config_.scope_limit > config_.scope_first;
  const AccessTracker& tracker = manager_->access_tracker();
  const SegmentMap& segments = manager_->segment_map();
  const cluster::ServerId first = scoped ? config_.scope_first : 0;
  const cluster::ServerId limit =
      scoped ? config_.scope_limit : tracker.indexed_servers();
  for (cluster::ServerId s = first; s < limit; ++s) {
    for (const AccessTracker::Tracked& t : tracker.SegmentsOf(s)) {
      // Each segment is scored once, under its dominant accessor.
      AccessTracker::DominantAccessor dom;
      if (!tracker.Dominant(*t.row, now, &dom) || dom.server != s) continue;
      if (dom.share < config_.dominance_threshold) continue;
      const SegmentInfo* info = segments.Find(t.seg);
      if (info == nullptr || info->state != SegmentState::kActive) continue;
      // Already local to the dominant accessor?
      if (!info->home.is_pool() && info->home.server == s) continue;
      if (scoped && (info->home.is_pool() || info->home.server < first ||
                     info->home.server >= limit)) {
        continue;  // homed off-rack: a pull grant's job, not this round's
      }
      const double copy_cost = static_cast<double>(info->size);
      if (dom.bytes < config_.benefit_factor * copy_cost) continue;
      candidates.push_back(Candidate{t.seg, s, dom.bytes - copy_cost});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score > b.score : a.seg < b.seg;
            });
  return candidates;
}

StatusOr<MigrationRoundStats> MigrationEngine::RunOnce(
    SimTime now, std::vector<MigrationRecord>* records) {
  MigrationRoundStats stats;
  const std::vector<Candidate> candidates = Candidates(now);
  stats.candidates = static_cast<int>(candidates.size());

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
