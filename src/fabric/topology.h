// Topology: instantiates the fluid-simulator resources for a deployment and
// hands out resource paths for memory accesses.
//
// Two shapes, matching Figure 1 of the paper:
//   * Logical  — N servers on a fabric switch; the pool is carved out of
//                server DRAM, so remote accesses go server->server.
//   * Physical — N servers plus a separate memory-pool box attached to the
//                switch through `pool_ports` links (the incast point the
//                paper highlights with the thick orange line in Fig. 1a).
//
// Resources per server: one per core (load/store port), one DRAM device,
// one fabric port.  The pool box adds pool DRAM plus its port(s).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/units.h"
#include "fabric/link.h"
#include "sim/fluid.h"

namespace lmp::fabric {

using ServerIndex = std::uint32_t;

struct MachineProfile {
  int cores_per_server = 14;          // Xeon Gold 5120 (paper testbed)
  BytesPerSec per_core_bw = GBps(12); // single-core streaming limit
  BytesPerSec dram_bw = GBps(97);     // Table 1 local bandwidth
  LinkProfile dram = LinkProfile::LocalDram();
};

enum class TopologyKind { kLogical, kPhysical };

class Topology {
 public:
  // Builds the resource graph inside `sim` (which must outlive *this).
  static Topology MakeLogical(sim::FluidSimulator* sim, int num_servers,
                              const LinkProfile& link,
                              const MachineProfile& machine = {});
  static Topology MakePhysical(sim::FluidSimulator* sim, int num_servers,
                               const LinkProfile& link,
                               const MachineProfile& machine = {},
                               int pool_ports = 1);

  TopologyKind kind() const { return kind_; }
  int num_servers() const { return static_cast<int>(server_port_.size()); }
  const MachineProfile& machine() const { return machine_; }
  const LinkProfile& link() const { return link_; }
  bool has_pool() const { return !pool_port_.empty(); }

  // Resource ids ----------------------------------------------------------
  sim::ResourceId core(ServerIndex s, int core_idx) const;
  sim::ResourceId dram(ServerIndex s) const;
  sim::ResourceId port(ServerIndex s) const;
  sim::ResourceId pool_dram() const;
  sim::ResourceId pool_port(int i = 0) const;

  // Access paths ------------------------------------------------------------
  // Paths are sim::Path, held inline: building one allocates nothing.
  // `Route`'s target for the physical pool box, and its issuer for a DMA
  // engine (no core on the path).
  static constexpr ServerIndex kPoolHome =
      std::numeric_limits<ServerIndex>::max();
  static constexpr int kDmaEngine = -1;
  // The one router: the path of an access by server `src` — from core
  // `core_idx`, or from a DMA engine — to memory homed on server `home`
  // (local when `home == src`) or on the pool box (`kPoolHome`).  Every
  // *Path function below returns its hops.
  sim::Path Route(ServerIndex src, int core_idx, ServerIndex home) const;

  // Local DRAM read/write by a core.
  sim::Path LocalPath(ServerIndex s, int core_idx) const {
    return Route(s, core_idx, s);
  }
  // Read from another server's shared region (logical pools only).
  sim::Path RemotePath(ServerIndex src, int core_idx, ServerIndex dst) const {
    LMP_CHECK(src != dst) << "remote path to self; use LocalPath";
    return Route(src, core_idx, dst);
  }
  // Read from the physical pool box (physical pools only).  The pool port is
  // chosen by server index to spread load across multi-port pools.
  sim::Path PoolPath(ServerIndex src, int core_idx) const {
    return Route(src, core_idx, kPoolHome);
  }
  // DMA path without a core constraint (migration/fill engines).
  sim::Path DmaRemotePath(ServerIndex src, ServerIndex dst) const {
    LMP_CHECK(src != dst);
    return Route(src, kDmaEngine, dst);
  }

  // Sharding -----------------------------------------------------------------
  // Tags every per-server resource (cores, DRAM, fabric port) with a rack
  // shard: servers [0, n) form rack 0, [n, 2n) rack 1, and so on.  The
  // solver then re-rates independent racks concurrently when their traffic
  // stays rack-local; the physical pool box (if any) is left unsharded, so
  // pool traffic and anything it touches solves on the sequential spill
  // path.  Call once after construction, before starting flows.
  void AssignRackShards(int servers_per_rack);
  int num_racks() const { return num_racks_; }
  int servers_per_rack() const { return servers_per_rack_; }
  // Rack a server sits in (rack 0 when racks were never assigned).
  int rack_of(ServerIndex s) const {
    return servers_per_rack_ == 0 ? 0
                                  : static_cast<int>(s) / servers_per_rack_;
  }
  bool CrossRack(ServerIndex a, ServerIndex b) const {
    return rack_of(a) != rack_of(b);
  }

  // Spine --------------------------------------------------------------------
  // Provisions the second fabric tier: one uplink resource per rack
  // ("rack<r>.uplink") with `uplink_bandwidth` capacity.  Cross-rack paths
  // then traverse BOTH endpoints' uplinks — the congestion point the
  // hierarchical control plane budgets — while same-rack paths are
  // unchanged.  Uplinks are deliberately left unsharded: a cross-rack flow
  // couples its two racks, which routes those solves onto the sequential
  // spill path by construction.  Requires AssignRackShards first; call
  // before starting flows.
  void ProvisionSpine(BytesPerSec uplink_bandwidth);
  bool has_spine() const { return !rack_uplink_.empty(); }
  sim::ResourceId rack_uplink(int rack) const;
  // Total bytes the spine uplinks have served so far (tenant traffic plus
  // control-plane transfers; each cross-rack flow counts on both ends).
  double SpineBytesServed() const;

  // Latency ------------------------------------------------------------------
  // Loaded read latency for a path class, using the smoothed utilization of
  // the bottleneck resource.
  SimTime LocalLoadedLatency(ServerIndex s) const;
  SimTime RemoteLoadedLatency(ServerIndex src, ServerIndex dst) const;

  // Link health (chaos layer) ------------------------------------------------
  // Scales one server's fabric-port capacity by `bandwidth_mult` (0, 1] and
  // its loaded latency by `latency_mult` >= 1, relative to the HEALTHY
  // profile — calls are absolute, not cumulative, so a repeated degrade
  // does not compound.  The capacity change reprices in-flight flows at the
  // simulator's current time.  RestoreLink resets to 1x/1x.
  Status SetLinkHealth(ServerIndex s, double bandwidth_mult,
                       double latency_mult);
  Status RestoreLink(ServerIndex s);

  double link_bandwidth_mult(ServerIndex s) const;
  double link_latency_mult(ServerIndex s) const;
  bool link_degraded(ServerIndex s) const {
    return link_bandwidth_mult(s) < 1.0 || link_latency_mult(s) > 1.0;
  }

  // Tracing ------------------------------------------------------------------
  // Emits one counter sample per port/DRAM resource (utilization in [0, 1],
  // named "util.<resource>") at the simulator's current time.  Call
  // periodically from a harness to chart link load over a run.
  void SampleUtilization(trace::TraceCollector* collector) const;

 private:
  Topology(sim::FluidSimulator* sim, TopologyKind kind, LinkProfile link,
           MachineProfile machine)
      : sim_(sim), kind_(kind), link_(std::move(link)), machine_(machine) {}

  void AddServers(int num_servers);

  sim::FluidSimulator* sim_;
  TopologyKind kind_;
  LinkProfile link_;
  MachineProfile machine_;

  std::vector<std::vector<sim::ResourceId>> server_cores_;
  std::vector<sim::ResourceId> server_dram_;
  std::vector<sim::ResourceId> server_port_;
  std::vector<sim::ResourceId> pool_port_;
  sim::ResourceId pool_dram_ = 0;
  bool has_pool_dram_ = false;
  int num_racks_ = 0;
  int servers_per_rack_ = 0;
  std::vector<sim::ResourceId> rack_uplink_;

  // Per-port health multipliers (1.0 = pristine), indexed like server_port_.
  std::vector<double> server_bw_mult_;
  std::vector<double> server_lat_mult_;
};

}  // namespace lmp::fabric
