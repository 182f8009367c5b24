#include "core/lmp.h"

namespace lmp {

PoolOptions PoolOptions::Paper() {
  PoolOptions opts;
  opts.cluster = cluster::ClusterConfig::PaperLogical();
  return opts;
}

PoolOptions PoolOptions::Small() {
  PoolOptions opts;
  opts.cluster.num_servers = 4;
  opts.cluster.cores_per_server = 4;
  opts.cluster.server_total_memory = MiB(64);
  opts.cluster.server_shared_memory = MiB(64);
  opts.cluster.frame_size = KiB(4);
  opts.cluster.with_backing = true;
  opts.coherent_bytes = KiB(64);
  return opts;
}

Pool::Pool(const PoolOptions& options) {
  cluster_ = std::make_unique<cluster::Cluster>(options.cluster);
  manager_ = std::make_unique<core::PoolManager>(cluster_.get());
  migrator_ = std::make_unique<core::MigrationEngine>(manager_.get());
  coherent_ = std::make_unique<core::CoherentRegion>(
      options.coherent_bytes, kCoherenceGranularity,
      options.cluster.num_servers);
  shipper_ = std::make_unique<core::ComputeShipper>(manager_.get());
  replication_ = std::make_unique<core::ReplicationManager>(
      manager_.get(), options.replication_factor);
}

StatusOr<std::unique_ptr<Pool>> Pool::Create(const PoolOptions& options) {
  if (options.cluster.num_servers <= 0) {
    return InvalidArgumentError("need at least one server");
  }
  if (options.cluster.num_servers > 64) {
    return InvalidArgumentError(
        "coherence directory supports at most 64 hosts");
  }
  if (options.coherent_bytes == 0 ||
      options.coherent_bytes % kCoherenceGranularity != 0) {
    return InvalidArgumentError(
        "coherent region must be a multiple of the tracking granularity");
  }
  return std::unique_ptr<Pool>(new Pool(options));
}

StatusOr<core::BufferId> Pool::Allocate(
    Bytes bytes, std::optional<cluster::ServerId> preferred) {
  return manager_->Allocate(bytes, preferred);
}

Status Pool::Free(core::BufferId buffer) { return manager_->Free(buffer); }

std::vector<core::MigrationRecord> Pool::Tick(SimTime now) {
  // A failed round keeps the moves it made before the error; the error
  // concerns the segment it tripped on, and the next round retries.
  std::vector<core::MigrationRecord> records;
  (void)migrator_->RunOnce(now, &records);
  return records;
}

}  // namespace lmp
