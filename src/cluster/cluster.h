// Cluster: assembles servers (and optionally a pool box) from a config.
//
// The two canonical configurations come straight from §4.1 of the paper:
//   ClusterConfig::PaperLogical()  — 4 servers x 24 GB, all shared
//   ClusterConfig::PaperPhysical() — 4 servers x 8 GB local + 64 GB pool box
// Both hold total deployment memory at 96 GB, which is what makes the
// Figure-5 feasibility comparison meaningful.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/server.h"
#include "common/status.h"
#include "common/units.h"

namespace lmp::cluster {

struct ClusterConfig {
  int num_servers = 4;
  int cores_per_server = 14;
  Bytes server_total_memory = GiB(24);
  Bytes server_shared_memory = GiB(24);  // logical: contribute everything
  bool physical_pool = false;
  Bytes pool_capacity = 0;
  Bytes frame_size = mem::kDefaultFrameSize;
  bool with_backing = false;

  // §4.1 "Memory pool configurations".
  static ClusterConfig PaperLogical();
  static ClusterConfig PaperPhysical();

  Bytes TotalMemory() const {
    return static_cast<Bytes>(num_servers) * server_total_memory +
           pool_capacity;
  }
  Bytes TotalPooledMemory() const {
    return physical_pool
               ? pool_capacity
               : static_cast<Bytes>(num_servers) * server_shared_memory;
  }
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  int num_servers() const { return static_cast<int>(servers_.size()); }

  Server& server(ServerId id);
  const Server& server(ServerId id) const;

  bool has_pool() const { return pool_.has_value(); }
  PoolDevice& pool();

  // Aggregate free bytes across every live server's shared region.
  Bytes PooledFreeBytes() const;
  Bytes PooledCapacityBytes() const;

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::optional<PoolDevice> pool_;
};

}  // namespace lmp::cluster
