// Segment metadata shared by the maps, placement, migration, and recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "common/units.h"
#include "core/logical_address.h"
#include "mem/frame_allocator.h"

namespace lmp::core {

// Where a segment (or replica) physically lives.
struct Location {
  enum class Kind : std::uint8_t { kServer, kPool };
  Kind kind = Kind::kServer;
  cluster::ServerId server = 0;  // meaningful for kServer

  static Location OnServer(cluster::ServerId s) {
    return Location{Kind::kServer, s};
  }
  static Location OnPool() { return Location{Kind::kPool, 0}; }

  bool is_pool() const { return kind == Kind::kPool; }

  friend bool operator==(const Location&, const Location&) = default;

  std::string ToString() const {
    return is_pool() ? "pool" : "server" + std::to_string(server);
  }
};

enum class SegmentState : std::uint8_t {
  kActive,
  kMigrating,  // data in flight; reads still served from the old home
  kLost,       // home crashed and no replica available
};

struct SegmentInfo {
  SegmentId id = kInvalidSegment;
  Bytes size = 0;
  Location home;
  SegmentState state = SegmentState::kActive;
  // Bumped on every migration; stale cached translations are detected by
  // comparing generations.
  std::uint64_t generation = 0;
  // Replica homes (excluding the primary).  Maintained by ReplicationManager.
  std::vector<Location> replicas;
  // Allocation cohort name (empty = none, next-fit placement).  Carried so
  // re-homing places the segment by the same cohort on the destination
  // allocator.
  std::string locus;
  // Pinned segments pack high in their home allocator and are never chosen
  // as drain/compaction victims.
  mem::Mobility mobility = mem::Mobility::kMobile;
  // Tenant priority from admission; drains prefer low-priority victims.
  double priority = 1.0;
};

}  // namespace lmp::core

template <>
struct std::hash<lmp::core::Location> {
  std::size_t operator()(const lmp::core::Location& l) const noexcept {
    return (l.is_pool() ? 1ull << 32 : 0ull) ^ l.server;
  }
};
