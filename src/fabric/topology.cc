#include "fabric/topology.h"

#include <algorithm>
#include <string>

#include "common/trace.h"

namespace lmp::fabric {

void Topology::AddServers(int num_servers) {
  LMP_CHECK(num_servers > 0);
  for (int s = 0; s < num_servers; ++s) {
    const std::string prefix = "server" + std::to_string(s);
    std::vector<sim::ResourceId> cores;
    cores.reserve(machine_.cores_per_server);
    for (int c = 0; c < machine_.cores_per_server; ++c) {
      cores.push_back(sim_->AddResource(
          prefix + ".core" + std::to_string(c), machine_.per_core_bw));
    }
    server_cores_.push_back(std::move(cores));
    server_dram_.push_back(
        sim_->AddResource(prefix + ".dram", machine_.dram_bw));
    server_port_.push_back(
        sim_->AddResource(prefix + ".port", link_.bandwidth));
  }
  server_bw_mult_.assign(server_port_.size(), 1.0);
  server_lat_mult_.assign(server_port_.size(), 1.0);
}

void Topology::AssignRackShards(int servers_per_rack) {
  LMP_CHECK(servers_per_rack > 0) << "rack size must be positive";
  servers_per_rack_ = servers_per_rack;
  num_racks_ = 0;
  for (ServerIndex s = 0; s < server_port_.size(); ++s) {
    const auto rack = static_cast<sim::ShardId>(s / servers_per_rack);
    num_racks_ = std::max(num_racks_, static_cast<int>(rack) + 1);
    for (sim::ResourceId core : server_cores_[s]) {
      sim_->SetResourceShard(core, rack);
    }
    sim_->SetResourceShard(server_dram_[s], rack);
    sim_->SetResourceShard(server_port_[s], rack);
  }
  // Pool resources stay unsharded: pool traffic fans in from every rack, so
  // it belongs on the solver's sequential spill path by construction.
}

void Topology::ProvisionSpine(BytesPerSec uplink_bandwidth) {
  LMP_CHECK(num_racks_ > 0) << "ProvisionSpine requires AssignRackShards";
  LMP_CHECK(rack_uplink_.empty()) << "spine already provisioned";
  LMP_CHECK(uplink_bandwidth > 0);
  rack_uplink_.reserve(num_racks_);
  for (int r = 0; r < num_racks_; ++r) {
    rack_uplink_.push_back(sim_->AddResource(
        "rack" + std::to_string(r) + ".uplink", uplink_bandwidth));
  }
}

sim::ResourceId Topology::rack_uplink(int rack) const {
  LMP_CHECK(rack >= 0 && rack < static_cast<int>(rack_uplink_.size()))
      << "unknown rack uplink " << rack;
  return rack_uplink_[rack];
}

double Topology::SpineBytesServed() const {
  double total = 0;
  for (sim::ResourceId uplink : rack_uplink_) {
    total += sim_->BytesServed(uplink);
  }
  return total;
}

Topology Topology::MakeLogical(sim::FluidSimulator* sim, int num_servers,
                               const LinkProfile& link,
                               const MachineProfile& machine) {
  Topology t(sim, TopologyKind::kLogical, link, machine);
  t.AddServers(num_servers);
  return t;
}

Topology Topology::MakePhysical(sim::FluidSimulator* sim, int num_servers,
                                const LinkProfile& link,
                                const MachineProfile& machine,
                                int pool_ports) {
  LMP_CHECK(pool_ports > 0);
  Topology t(sim, TopologyKind::kPhysical, link, machine);
  t.AddServers(num_servers);
  t.pool_dram_ = sim->AddResource("pool.dram", machine.dram_bw);
  t.has_pool_dram_ = true;
  for (int p = 0; p < pool_ports; ++p) {
    t.pool_port_.push_back(
        sim->AddResource("pool.port" + std::to_string(p), link.bandwidth));
  }
  return t;
}

sim::ResourceId Topology::core(ServerIndex s, int core_idx) const {
  LMP_CHECK(s < server_cores_.size());
  LMP_CHECK(core_idx >= 0 &&
            core_idx < static_cast<int>(server_cores_[s].size()));
  return server_cores_[s][core_idx];
}

sim::ResourceId Topology::dram(ServerIndex s) const {
  LMP_CHECK(s < server_dram_.size());
  return server_dram_[s];
}

sim::ResourceId Topology::port(ServerIndex s) const {
  LMP_CHECK(s < server_port_.size());
  return server_port_[s];
}

sim::ResourceId Topology::pool_dram() const {
  LMP_CHECK(has_pool_dram_) << "logical topology has no pool box";
  return pool_dram_;
}

sim::ResourceId Topology::pool_port(int i) const {
  LMP_CHECK(!pool_port_.empty()) << "logical topology has no pool box";
  return pool_port_[static_cast<std::size_t>(i) % pool_port_.size()];
}

sim::Path Topology::Route(ServerIndex src, int core_idx,
                          ServerIndex home) const {
  sim::Path path;
  if (core_idx != kDmaEngine) path.push_back(core(src, core_idx));
  if (home == src) {
    path.push_back(dram(src));
    return path;
  }
  path.push_back(port(src));
  if (home == kPoolHome) {
    path.push_back(pool_port(static_cast<int>(src)));
    path.push_back(pool_dram());
    return path;
  }
  if (has_spine() && CrossRack(src, home)) {
    path.push_back(rack_uplink(rack_of(src)));
    path.push_back(rack_uplink(rack_of(home)));
  }
  path.push_back(port(home));
  path.push_back(dram(home));
  return path;
}

Status Topology::SetLinkHealth(ServerIndex s, double bandwidth_mult,
                               double latency_mult) {
  if (s >= server_port_.size()) return NotFoundError("unknown server port");
  if (bandwidth_mult <= 0.0 || bandwidth_mult > 1.0) {
    return InvalidArgumentError("bandwidth multiplier must be in (0, 1]");
  }
  if (latency_mult < 1.0) {
    return InvalidArgumentError("latency multiplier must be >= 1");
  }
  server_bw_mult_[s] = bandwidth_mult;
  server_lat_mult_[s] = latency_mult;
  LMP_RETURN_IF_ERROR(
      sim_->SetCapacity(server_port_[s], link_.bandwidth * bandwidth_mult));
  return Status::Ok();
}

Status Topology::RestoreLink(ServerIndex s) {
  return SetLinkHealth(s, 1.0, 1.0);
}

double Topology::link_bandwidth_mult(ServerIndex s) const {
  LMP_CHECK(s < server_bw_mult_.size());
  return server_bw_mult_[s];
}

double Topology::link_latency_mult(ServerIndex s) const {
  LMP_CHECK(s < server_lat_mult_.size());
  return server_lat_mult_[s];
}

void Topology::SampleUtilization(trace::TraceCollector* collector) const {
  if (collector == nullptr) return;
  const SimTime now = sim_->now();
  auto sample = [&](sim::ResourceId id) {
    collector->Counter(trace::Category::kLink,
                      "util." + sim_->ResourceName(id), now,
                      sim_->Utilization(id));
  };
  for (std::size_t s = 0; s < server_port_.size(); ++s) {
    sample(server_port_[s]);
    sample(server_dram_[s]);
  }
  for (sim::ResourceId p : pool_port_) sample(p);
  for (sim::ResourceId uplink : rack_uplink_) sample(uplink);
  if (has_pool_dram_) sample(pool_dram_);
}

SimTime Topology::LocalLoadedLatency(ServerIndex s) const {
  return machine_.dram.LoadedLatency(sim_->SmoothedUtilization(dram(s)));
}

SimTime Topology::RemoteLoadedLatency(ServerIndex src,
                                      ServerIndex dst) const {
  // Bottleneck utilization along the path determines queueing delay.
  double u = std::max(sim_->SmoothedUtilization(port(src)),
                      std::max(sim_->SmoothedUtilization(port(dst)),
                               sim_->SmoothedUtilization(dram(dst))));
  if (has_spine() && CrossRack(src, dst)) {
    u = std::max(u, std::max(
                        sim_->SmoothedUtilization(rack_uplink(rack_of(src))),
                        sim_->SmoothedUtilization(rack_uplink(rack_of(dst)))));
  }
  // A degraded endpoint stretches the whole path's latency.
  const double lat_mult =
      std::max(link_latency_mult(src), link_latency_mult(dst));
  return link_.LoadedLatency(u) * lat_mult;
}

}  // namespace lmp::fabric
