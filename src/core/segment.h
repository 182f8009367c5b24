// Segment metadata shared by the maps, placement, migration, and recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "common/units.h"
#include "core/logical_address.h"

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
};

}  // namespace lmp::core

template <>
struct std::hash<lmp::core::Location> {
  std::size_t operator()(const lmp::core::Location& l) const noexcept {
    return (l.is_pool() ? 1ull << 32 : 0ull) ^ l.server;
  }
};
