// lmp::Pool — the public facade of the logical-memory-pool library.
//
// Quickstart:
//
//   auto pool_or = lmp::Pool::Create(lmp::PoolOptions::Paper());
//   auto& pool = *pool_or.value();
//   auto buf = pool.Allocate(lmp::GiB(1), /*preferred_server=*/0).value();
//   std::vector<double> v(1000, 1.0);
//   pool.WriteArray(0, buf, 0, std::span<const double>(v));
//   double sum = pool.shipper().ShipAndReduce(...).value();
//
// Pool bundles the cluster, pool manager, locality migrator, coherent
// region, compute shipper, and replication manager into one object with a
// small, documented surface.  Experiments that need the pieces
// individually can reach them through accessors.  The §3.2 background
// tasks in sim time — periodic sizing, priced drains, chaos reactions —
// belong to ctrl::SizingController, which binds to manager().
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "core/coherent_region.h"
#include "core/compute_ship.h"
#include "core/migration.h"
#include "core/pool_manager.h"
#include "core/replication.h"

namespace lmp {

struct PoolOptions {
  cluster::ClusterConfig cluster;
  // Coherent region (§3.2): a few GBs in real deployments; default small so
  // functional tests stay cheap.  A multiple of
  // Pool::kCoherenceGranularity.
  Bytes coherent_bytes = MiB(1);
  int replication_factor = 1;

  // The paper's 4-server / 96 GB logical deployment, with real backing
  // disabled (timing experiments).
  static PoolOptions Paper();
  // A small functional configuration with real backing stores (tests,
  // examples): 4 servers x 64 MiB.
  static PoolOptions Small();
};

class Pool {
 public:
  // The coherent region's tracking unit (sub-line 16 B avoids false
  // sharing).
  static constexpr Bytes kCoherenceGranularity = 16;

  static StatusOr<std::unique_ptr<Pool>> Create(const PoolOptions& options);

  // Allocation ----------------------------------------------------------------
  StatusOr<core::BufferId> Allocate(
      Bytes bytes, std::optional<cluster::ServerId> preferred = {});
  Status Free(core::BufferId buffer);

  // Typed data plane (requires backing; Small() has it) -----------------------
  template <typename T>
  Status WriteArray(cluster::ServerId from, core::BufferId buffer,
                    Bytes offset, std::span<const T> values,
                    SimTime now = 0) {
    return manager_->Write(from, buffer, offset,
                           std::as_bytes(values), now);
  }
  template <typename T>
  Status ReadArray(cluster::ServerId from, core::BufferId buffer,
                   Bytes offset, std::span<T> out, SimTime now = 0) {
    return manager_->Read(from, buffer, offset,
                          std::as_writable_bytes(out), now);
  }

  // Locality balancing -------------------------------------------------------
  // One migration round at simulated time `now`; returns the moves it made.
  std::vector<core::MigrationRecord> Tick(SimTime now);

  // Components -------------------------------------------------------------------
  cluster::Cluster& cluster() { return *cluster_; }
  core::PoolManager& manager() { return *manager_; }
  core::CoherentRegion& coherent() { return *coherent_; }
  core::ComputeShipper& shipper() { return *shipper_; }
  core::ReplicationManager& replication() { return *replication_; }

 private:
  explicit Pool(const PoolOptions& options);

  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<core::PoolManager> manager_;
  std::unique_ptr<core::MigrationEngine> migrator_;
  std::unique_ptr<core::CoherentRegion> coherent_;
  std::unique_ptr<core::ComputeShipper> shipper_;
  std::unique_ptr<core::ReplicationManager> replication_;
};

}  // namespace lmp
