#include "cluster/cluster.h"

#include "common/logging.h"

namespace lmp::cluster {

ClusterConfig ClusterConfig::PaperLogical() {
  ClusterConfig c;
  c.num_servers = 4;
  c.cores_per_server = 14;
  c.server_total_memory = GiB(24);
  c.server_shared_memory = GiB(24);
  c.physical_pool = false;
  return c;
}

ClusterConfig ClusterConfig::PaperPhysical() {
  ClusterConfig c;
  c.num_servers = 4;
  c.cores_per_server = 14;
  c.server_total_memory = GiB(8);
  c.server_shared_memory = 0;
  c.physical_pool = true;
  c.pool_capacity = GiB(64);
  return c;
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  LMP_CHECK(config.num_servers > 0);
  servers_.reserve(config.num_servers);
  for (int s = 0; s < config.num_servers; ++s) {
    servers_.push_back(std::make_unique<Server>(
        static_cast<ServerId>(s), config.server_total_memory,
        config.server_shared_memory, config.cores_per_server,
        config.frame_size, config.with_backing));
  }
  if (config.physical_pool) {
    pool_.emplace(config.pool_capacity, config.frame_size,
                  config.with_backing);
  }
}

Server& Cluster::server(ServerId id) {
  LMP_CHECK(id < servers_.size());
  return *servers_[id];
}

const Server& Cluster::server(ServerId id) const {
  LMP_CHECK(id < servers_.size());
  return *servers_[id];
}

PoolDevice& Cluster::pool() {
  LMP_CHECK(pool_.has_value()) << "cluster has no physical pool";
  return *pool_;
}

Bytes Cluster::PooledFreeBytes() const {
  if (pool_.has_value()) return pool_->allocator().free_bytes();
  Bytes total = 0;
  for (const auto& s : servers_) {
    if (!s->crashed()) total += s->shared_allocator().free_bytes();
  }
  return total;
}

Bytes Cluster::PooledCapacityBytes() const {
  if (pool_.has_value()) return pool_->capacity();
  Bytes total = 0;
  for (const auto& s : servers_) {
    if (!s->crashed()) total += s->shared_bytes();
  }
  return total;
}

}  // namespace lmp::cluster
