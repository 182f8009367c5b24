// perfbench: one repetition of one benchmark workload, measured in host time.
//
//   perfbench --workload=<btree_ops|fluid_local|fluid_bridged|ctrl_hier>
//             --seed=N [--threads=N] [--trace=0|1] [--spans-out=FILE]
//
// Builds the workload's system from its seed, runs it to completion through
// the library's public APIs only, checks its outputs, and prints one JSON
// object on stdout: host-time readings (setup, timed section, whole run),
// process readings, the simulated results under "model" with a digest over
// them, and — with --trace=1 — the per-layer breakdown from the span probe.
// perfbench/run.py repeats this for a fixed time and aggregates the runs.
//
// Every simulated output is a pure function of (workload, seed): the model
// digest is identical across runs, with tracing on or off, and at any
// --threads value.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/logical.h"
#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "ctrl/controller.h"
#include "ctrl/hier/hier_controller.h"
#include "fabric/topology.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "probe.h"
#include "sim/fluid.h"
#include "workloads/pool_btree.h"

namespace perfbench {
namespace {

using namespace lmp;
using Scope = Probe::Scope;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 1;
  bool trace = false;
  std::string spans_out;
};

// What one repetition reports.  Times are host wall; "model" holds the
// simulated results, formatted once so the digest is over exact bytes.
struct Result {
  std::int64_t setup_ns = 0;
  std::int64_t timed_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t work = 0;  // ops, flows or epochs completed in the timed part
  std::uint64_t flows = 0;  // flows the workload started (steps_per_flow)
  const char* work_unit = "";
  std::uint64_t attempted = 0;  // work items + output checks
  std::uint64_t failed = 0;     // failed work items + failed checks
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::string>> model;
  std::map<std::string, double> layers;  // traced runs only
  sim::SolverStats solver;

  void Model(const char* name, std::uint64_t v) {
    model.emplace_back(name, std::to_string(v));
  }
  void Model(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    model.emplace_back(name, buf);
  }
  // Counts one output check; records it when it fails.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
};

// Drives the simulator to idle one Step at a time, so a traced run sees
// every Step as a span (and callbacks as its children).
void RunLoop(sim::FluidSimulator& sim, Probe& probe) {
  for (;;) {
    Scope step(probe, "sim.step");
    if (!sim.Step()) break;
  }
}

void AddHistogramModel(Result& r, const MetricsRegistry& metrics,
                       const std::string& hist, const std::string& label) {
  const Histogram* h = metrics.FindHistogram(hist);
  const std::uint64_t count = h == nullptr ? 0 : h->count();
  r.model.emplace_back("model." + label + ".count", std::to_string(count));
  r.model.emplace_back("model." + label + ".p50_ns",
                       std::to_string(count == 0 ? 0 : h->p50()));
  r.model.emplace_back("model." + label + ".p99_ns",
                       std::to_string(count == 0 ? 0 : h->p99()));
}

// ---------------------------------------------------------------------------
// btree_ops: closed-loop B+tree ops on a 4-server logical deployment.

constexpr int kBtServers = 4;
constexpr Bytes kBtServerMem = MiB(64);
constexpr std::uint32_t kBtArenaNodes = 1024;
constexpr std::uint64_t kBtKeys = 12000;
constexpr std::uint64_t kBtKeyStride = 7;
constexpr int kBtSlices = 16;
constexpr int kBtOps = 4000;
constexpr int kBtWindow = 64;
constexpr SimTime kBtChurnPeriod = Microseconds(10);

double ArenaLocalFraction(core::PoolManager& manager, core::BufferId buffer) {
  auto info = manager.Describe(buffer);
  if (!info.ok() || info->segments.empty()) return 0;
  std::size_t local = 0;
  for (const core::SegmentId seg : info->segments) {
    const core::SegmentInfo* si = manager.segment_map().Find(seg);
    if (si != nullptr && !si->home.is_pool() && si->home.server == 0) ++local;
  }
  return static_cast<double>(local) / static_cast<double>(info->segments.size());
}

Result RunBtreeOps(const Options& opt, Probe& probe) {
  Result r;
  r.work_unit = "ops";
  const std::int64_t t0 = NowNs();
  Scope root(probe, "bench.workload");

  // Seeded inputs: preload values, which half of the arena is remote, and
  // the op/churn streams.  Which keys are hot stays fixed (a fixed
  // permutation under the Zipf ranks): the hot keys' lock stripes set how
  // many lock spins the run simulates, and the seed should not.
  Rng rng(opt.seed);
  std::vector<std::uint64_t> key_of_rank(kBtKeys);
  for (std::uint64_t k = 0; k < kBtKeys; ++k) key_of_rank[k] = k * kBtKeyStride;
  Rng(kBtKeys).Shuffle(key_of_rank);
  std::vector<int> slices(kBtSlices);
  for (int i = 0; i < kBtSlices; ++i) slices[static_cast<std::size_t>(i)] = i;
  rng.Shuffle(slices);
  std::map<std::uint64_t, std::uint64_t> expect;  // key -> value

  MetricsRegistry metrics;
  std::unique_ptr<baselines::LogicalDeployment> deploy;
  std::unique_ptr<ops::OpEngine> engine;
  std::optional<workloads::PoolBtree> tree;
  std::unique_ptr<ops::BtreeOpDriver> driver;
  std::vector<core::SegmentId> arena_segments;
  {
    Scope setup(probe, "setup");
    cluster::ClusterConfig config;
    config.num_servers = kBtServers;
    config.cores_per_server = 4;
    config.server_total_memory = kBtServerMem;
    config.server_shared_memory = kBtServerMem;
    config.frame_size = KiB(4);
    config.with_backing = true;
    {
      Scope s(probe, "mem.cluster_build");
      const double rss0 = CurrentRssMib();
      deploy = std::make_unique<baselines::LogicalDeployment>(
          fabric::LinkProfile::Link0(), config);
      r.layers["mem.cluster_build_rss_mib"] = CurrentRssMib() - rss0;
    }
    sim::FluidSimulator& sim = deploy->simulator();
    sim.set_threads(opt.threads);
    sim.set_solver_timing(opt.trace);
    probe.AttachSolver(&sim);
    core::PoolManager& manager = deploy->manager();
    manager.set_metrics(&metrics);
    {
      Scope s(probe, "ops.setup");
      ops::OpEngine::Options eo;
      eo.metrics = &metrics;
      eo.metrics_prefix = "ops";
      // Contended puts wait for their stripe instead of failing: lock
      // waits are part of what this workload measures.
      eo.max_lock_spins = 1000000;
      engine = std::make_unique<ops::OpEngine>(&sim, &deploy->topology(),
                                               &manager, eo);
    }
    {
      Scope s(probe, "workloads.btree.create");
      auto created = workloads::PoolBtree::Create(&manager, kBtArenaNodes, 0);
      LMP_CHECK(created.ok()) << created.status();
      tree.emplace(std::move(*created));
      driver = std::make_unique<ops::BtreeOpDriver>(engine.get(), &*tree,
                                                    kBtServers);
    }
    {
      Scope s(probe, "workloads.btree.preload");
      for (std::uint64_t k = 0; k < kBtKeys; ++k) {
        const std::uint64_t value = rng.Next() >> 2;
        expect[k * kBtKeyStride] = value;
        LMP_CHECK_OK(tree->Insert(0, k * kBtKeyStride, value));
      }
    }
    const Bytes arena_bytes =
        static_cast<Bytes>(kBtArenaNodes) * workloads::PoolBtree::kNodeBytes;
    {
      Scope s(probe, "core.split");
      for (int i = 1; i < kBtSlices; ++i) {
        LMP_CHECK_OK(manager.SplitSegmentAt(
            tree->buffer(), arena_bytes / kBtSlices * static_cast<Bytes>(i)));
      }
    }
    {
      // Half the slices (chosen by seed) are homed off the client server.
      Scope s(probe, "core.place");
      auto arena = manager.Describe(tree->buffer());
      LMP_CHECK(arena.ok());
      arena_segments = arena->segments;
      LMP_CHECK(arena_segments.size() == static_cast<std::size_t>(kBtSlices));
      for (int j = 0; j < kBtSlices / 2; ++j) {
        const auto seg = arena_segments[static_cast<std::size_t>(
            slices[static_cast<std::size_t>(j)])];
        const auto dst = static_cast<cluster::ServerId>(1 + j % (kBtServers - 1));
        LMP_CHECK(manager.MigrateSegment(seg, dst).ok());
      }
    }
  }

  sim::FluidSimulator& sim = deploy->simulator();
  core::PoolManager& manager = deploy->manager();
  ZipfGenerator zipf(kBtKeys, 0.99, opt.seed ^ 0x9e3779b97f4a7c15ull);
  Rng mix_rng(opt.seed + 1);
  Rng churn_rng(opt.seed ^ 0xc0ffeeull);

  int submitted = 0;
  std::uint64_t completed = 0, op_failed = 0, hops = 0, puts = 0, spins = 0;
  std::uint64_t get_missing = 0, scan_unordered = 0;
  std::uint64_t migrate_calls = 0, migrate_ok = 0;
  std::unordered_map<ops::OpId, std::pair<std::uint64_t, std::uint64_t>>
      pending_puts;

  std::function<void()> submit_one = [&] {
    const std::uint64_t key = key_of_rank[zipf.Next()];
    const int mix = static_cast<int>(mix_rng.NextBounded(100));
    ++submitted;
    if (mix < 50) {
      Scope s(probe, "ops.submit");
      driver->SubmitGet(0, 0, key, [&](StatusOr<std::uint64_t> v) {
        if (!v.ok()) ++get_missing;
      });
    } else if (mix < 85) {
      const std::uint64_t value = mix_rng.Next() >> 2;
      Scope s(probe, "ops.submit");
      const ops::OpId id = driver->SubmitPut(0, 0, key, value);
      pending_puts[id] = {key, value};
    } else {
      Scope s(probe, "ops.submit");
      driver->SubmitScan(
          0, 0, key, 16,
          [&, key](const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                       rows) {
            for (std::size_t i = 0; i < rows.size(); ++i) {
              if (rows[i].first < key ||
                  (i > 0 && rows[i].first <= rows[i - 1].first)) {
                ++scan_unordered;
                return;
              }
            }
          });
    }
  };
  engine->set_on_complete([&](const ops::OpResult& res) {
    Scope cb(probe, "bench.cb.op_done");
    ++completed;
    hops += static_cast<std::uint64_t>(res.hops);
    if (!res.status.ok()) {
      if (++op_failed <= 5) {
        r.check_failures.push_back(std::string(ops::OpKindName(res.kind)) +
                                   " failed: " + res.status.ToString());
      }
    }
    if (res.kind == ops::OpKind::kPut) {
      ++puts;
      spins += static_cast<std::uint64_t>(res.lock_spins);
      // Puts to one key serialize on its lock stripe, so completion order
      // is the order the tree applied them.
      auto it = pending_puts.find(res.id);
      if (it != pending_puts.end()) {
        if (res.status.ok()) expect[it->second.first] = it->second.second;
        pending_puts.erase(it);
      }
    }
    if (submitted < kBtOps) submit_one();
  });
  // Background churn: re-home one random arena slice every period while
  // ops are outstanding.
  std::function<void(SimTime)> churn = [&](SimTime) {
    Scope cb(probe, "bench.cb.churn");
    const auto seg = arena_segments[churn_rng.NextBounded(arena_segments.size())];
    const auto dst =
        static_cast<cluster::ServerId>(churn_rng.NextBounded(kBtServers));
    ++migrate_calls;
    {
      Scope s(probe, "core.migrate");
      if (manager.MigrateSegment(seg, dst).ok()) ++migrate_ok;  // may fail
    }
    if (submitted < kBtOps || engine->in_flight() > 0) {
      sim.ScheduleAfter(kBtChurnPeriod, churn);
    }
  };

  const std::int64_t t1 = NowNs();
  sim.ScheduleAfter(kBtChurnPeriod, churn);
  for (int i = 0; i < kBtWindow; ++i) submit_one();
  RunLoop(sim, probe);
  const std::int64_t t2 = NowNs();

  r.work = completed;
  r.attempted = static_cast<std::uint64_t>(submitted);
  r.failed = op_failed;
  r.Check(completed == static_cast<std::uint64_t>(kBtOps) &&
              engine->in_flight() == 0,
          "not every submitted op completed");
  r.Check(get_missing == 0, "a get missed a preloaded key");
  r.Check(scan_unordered == 0, "a scan returned rows out of order");

  for (const char* kind : {"get", "put", "scan"}) {
    AddHistogramModel(r, metrics, std::string("ops.") + kind,
                      std::string("op.") + kind);
  }
  r.Model("model.sim_end_ns", static_cast<std::uint64_t>(sim.now()));
  r.Model("model.local_frac", ArenaLocalFraction(manager, tree->buffer()));
  r.Model("model.tree_height", static_cast<std::uint64_t>(tree->height()));
  r.Model("model.migrations_ok", migrate_ok);

  {
    // Final sweep: the tree holds exactly the model's last write per key.
    Scope s(probe, "workloads.btree.verify");
    std::uint64_t mismatched = 0;
    for (const auto& [key, value] : expect) {
      auto got = tree->Lookup(0, key, sim.now());
      ++r.attempted;
      if (!got.ok() || *got != value) ++mismatched;
    }
    r.failed += mismatched;
    if (mismatched > 0) {
      r.check_failures.push_back(std::to_string(mismatched) +
                                 " keys differ from the put model");
    }
  }

  r.solver = sim.solver_stats();
  r.layers["ops.completed"] = static_cast<double>(completed);
  r.layers["ops.failed"] = static_cast<double>(op_failed);
  r.layers["ops.hops_per_op"] =
      completed ? static_cast<double>(hops) / static_cast<double>(completed) : 0;
  r.layers["ops.lock_spins_per_put"] =
      puts ? static_cast<double>(spins) / static_cast<double>(puts) : 0;
  r.layers["ops.lock_success_frac"] =
      puts ? static_cast<double>(puts) / static_cast<double>(puts + spins) : 0;
  r.layers["core.migrate_ok_frac"] =
      migrate_calls ? static_cast<double>(migrate_ok) /
                          static_cast<double>(migrate_calls)
                    : 0;
  r.timed_ns = t2 - t1;
  r.setup_ns = t1 - t0;
  {
    Scope s(probe, "teardown");
    probe.DetachSolver();
    driver.reset();
    engine.reset();
    tree.reset();
    deploy.reset();
  }
  r.wall_ns = NowNs() - t0;
  return r;
}

// ---------------------------------------------------------------------------
// fluid_local: rack-local waves at cluster scale on the sharded solver.

constexpr int kFlServers = 2048;
constexpr int kFlPerRack = 128;
constexpr int kFlWaves = 4;
constexpr int kFlFlowsPerServer = 10;

Result RunFluidLocal(const Options& opt, Probe& probe) {
  Result r;
  r.work_unit = "flows";
  const std::int64_t t0 = NowNs();
  Scope root(probe, "bench.workload");

  // Seeded waves.  Every server of every rack gets the same wave (flow
  // size within 1% of 2 MB, sent to its ring successor), so racks stay
  // symmetric and close as shards, and each rack is one 128-server
  // component.  The ring itself is fixed: its stride sets how far apart in
  // memory a flow's resources sit, which moved host time by 12% between
  // seeds, and the seed should not change the cost of the work.  One
  // seeded server sends its first flow of each wave to another rack,
  // holding those two racks on the sequential spill path.
  Rng rng(opt.seed);
  struct Wave {
    SimTime start = 0;
    double bytes = 0;
  };
  std::vector<Wave> waves(kFlWaves);
  for (int w = 0; w < kFlWaves; ++w) {
    Wave& wave = waves[static_cast<std::size_t>(w)];
    wave.start = w * Microseconds(250);
    wave.bytes = 2e6 * (1.0 + 0.01 * rng.NextDouble());
  }
  constexpr int kFlRacks = kFlServers / kFlPerRack;
  const auto cross_src = static_cast<int>(rng.NextBounded(kFlServers));
  const auto cross_dst = static_cast<fabric::ServerIndex>(
      ((cross_src / kFlPerRack + 1 +
        static_cast<int>(rng.NextBounded(kFlRacks - 1))) %
       kFlRacks) * kFlPerRack +
      static_cast<int>(rng.NextBounded(kFlPerRack)));

  MetricsRegistry metrics;
  std::unique_ptr<sim::FluidSimulator> sim_owner;
  std::optional<fabric::Topology> topo;
  std::uint64_t flows = 0, done = 0;
  double bytes_started = 0;
  {
    Scope setup(probe, "setup");
    Scope s(probe, "fabric.build");
    sim_owner = std::make_unique<sim::FluidSimulator>();
    sim::FluidSimulator& sim = *sim_owner;
    sim.set_record_retention(sim::RecordRetention::kDropCompleted);
    sim.set_threads(opt.threads);
    sim.set_solver_timing(opt.trace);
    sim.set_metrics(&metrics);
    probe.AttachSolver(&sim);
    topo.emplace(fabric::Topology::MakeLogical(&sim, kFlServers,
                                               fabric::LinkProfile::Link1()));
    topo->AssignRackShards(kFlPerRack);
  }
  sim::FluidSimulator& sim = *sim_owner;
  const auto on_done = [&done](sim::FlowId, SimTime) { ++done; };
  for (const Wave& wave : waves) {
    sim.ScheduleAt(wave.start, [&, wave](SimTime) {
      Scope cb(probe, "bench.cb.wave");
      Scope s(probe, "sim.batch");
      sim.BeginBatch();
      for (int srv = 0; srv < kFlServers; ++srv) {
        const auto src = static_cast<fabric::ServerIndex>(srv);
        const int rack_base = (srv / kFlPerRack) * kFlPerRack;
        const auto ring_next = static_cast<fabric::ServerIndex>(
            rack_base + (srv - rack_base + 1) % kFlPerRack);
        for (int i = 0; i < kFlFlowsPerServer; ++i) {
          const auto dst = i == 0 && srv == cross_src ? cross_dst : ring_next;
          sim.StartFlow(wave.bytes, topo->RemotePath(src, i / 2, dst), on_done);
          ++flows;
          bytes_started += wave.bytes;
        }
      }
      sim.EndBatch();
    });
  }

  const std::int64_t t1 = NowNs();
  RunLoop(sim, probe);
  const std::int64_t t2 = NowNs();

  double served = 0;
  for (int s = 0; s < kFlServers; ++s) {
    served += sim.BytesServed(topo->dram(static_cast<fabric::ServerIndex>(s)));
  }
  r.work = done;
  r.attempted = flows;
  r.failed = flows - done;
  r.Check(done == flows && sim.active_flow_count() == 0,
          "not every flow completed");
  r.Check(std::fabs(served - bytes_started) <= 1e-9 * bytes_started,
          "DRAM bytes served differ from bytes started");
  r.flows = done;
  r.Model("model.flows", done);
  r.Model("model.sim_end_ns", static_cast<std::uint64_t>(sim.now()));
  r.Model("model.bytes_served", served);
  AddHistogramModel(r, metrics, "fluid.flow_duration_ns", "flow");
  r.solver = sim.solver_stats();
  r.timed_ns = t2 - t1;
  r.setup_ns = t1 - t0;
  {
    Scope s(probe, "teardown");
    probe.DetachSolver();
    topo.reset();
    sim_owner.reset();
  }
  r.wall_ns = NowNs() - t0;
  return r;
}

// ---------------------------------------------------------------------------
// fluid_bridged: closed-loop flow churn where 5% remote flows join every
// server into one solver component.

constexpr int kFbServers = 4;
constexpr int kFbCores = 14;
constexpr int kFbConcurrency = 2000;
constexpr int kFbTotal = kFbConcurrency + 3000;
constexpr double kFbRemote = 0.05;

Result RunFluidBridged(const Options& opt, Probe& probe) {
  Result r;
  r.work_unit = "flows";
  const std::int64_t t0 = NowNs();
  Scope root(probe, "bench.workload");

  struct FlowSpec {
    double bytes = 0;
    int server = 0;
    int core = 0;
    int remote = -1;  // destination server, -1 for a local flow
  };
  std::vector<FlowSpec> specs(kFbTotal);
  {
    Rng rng(opt.seed);
    for (FlowSpec& f : specs) {
      f.server = static_cast<int>(rng.NextBounded(kFbServers));
      f.core = static_cast<int>(rng.NextBounded(kFbCores));
      f.bytes = static_cast<double>(rng.NextInRange(1, 100)) * 1e6;
      if (rng.NextBernoulli(kFbRemote)) {
        f.remote = (f.server + 1 +
                    static_cast<int>(rng.NextBounded(kFbServers - 1))) %
                   kFbServers;
      }
    }
  }

  MetricsRegistry metrics;
  std::unique_ptr<sim::FluidSimulator> sim_owner;
  std::optional<fabric::Topology> topo;
  std::size_t issued = 0;
  std::uint64_t done = 0;
  double bytes_started = 0;
  std::function<void()> launch;
  {
    Scope setup(probe, "setup");
    {
      Scope s(probe, "fabric.build");
      sim_owner = std::make_unique<sim::FluidSimulator>();
      sim_owner->set_record_retention(sim::RecordRetention::kDropCompleted);
      sim_owner->set_threads(opt.threads);
      sim_owner->set_solver_timing(opt.trace);
      sim_owner->set_metrics(&metrics);
      probe.AttachSolver(sim_owner.get());
      topo.emplace(fabric::Topology::MakeLogical(
          sim_owner.get(), kFbServers, fabric::LinkProfile::Link0()));
    }
    sim::FluidSimulator& sim = *sim_owner;
    // Each completion starts the next flow of the plan (closed loop).
    launch = [&] {
      const FlowSpec& f = specs[issued++];
      const auto src = static_cast<fabric::ServerIndex>(f.server);
      bytes_started += f.bytes;
      sim.StartFlow(
          f.bytes,
          f.remote < 0
              ? topo->LocalPath(src, f.core)
              : topo->RemotePath(src, f.core,
                                 static_cast<fabric::ServerIndex>(f.remote)),
          [&](sim::FlowId, SimTime) {
            Scope cb(probe, "bench.cb.flow_done");
            ++done;
            if (issued < specs.size()) {
              Scope s(probe, "sim.start_flow");
              launch();
            }
          });
    };
    // The initial window arrives as one batch.
    Scope s(probe, "sim.batch");
    sim.BeginBatch();
    for (int i = 0; i < kFbConcurrency; ++i) launch();
    sim.EndBatch();
  }

  sim::FluidSimulator& sim = *sim_owner;
  const std::int64_t t1 = NowNs();
  RunLoop(sim, probe);
  const std::int64_t t2 = NowNs();

  double served = 0;
  for (int s = 0; s < kFbServers; ++s) {
    served += sim.BytesServed(topo->dram(static_cast<fabric::ServerIndex>(s)));
  }
  r.work = done;
  r.attempted = specs.size();
  r.failed = specs.size() - done;
  r.Check(done == specs.size() && sim.active_flow_count() == 0,
          "not every flow completed");
  r.Check(std::fabs(served - bytes_started) <= 1e-9 * bytes_started,
          "DRAM bytes served differ from bytes started");
  r.flows = done;
  r.Model("model.flows", done);
  r.Model("model.sim_end_ns", static_cast<std::uint64_t>(sim.now()));
  r.Model("model.bytes_served", served);
  AddHistogramModel(r, metrics, "fluid.flow_duration_ns", "flow");
  r.solver = sim.solver_stats();
  r.timed_ns = t2 - t1;
  r.setup_ns = t1 - t0;
  {
    Scope s(probe, "teardown");
    probe.DetachSolver();
    topo.reset();
    sim_owner.reset();
  }
  r.wall_ns = NowNs() - t0;
  return r;
}

// ---------------------------------------------------------------------------
// ctrl_hier: the hierarchical control plane on bench_hier's hotspot shape,
// one tenant per rack, with a rack failure later in the run.

constexpr int kChRacks = 4;
constexpr int kChPerRack = 3;
constexpr int kChServers = kChRacks * kChPerRack;
constexpr Bytes kChServerMem = MiB(32);
constexpr Bytes kChFrame = KiB(64);
constexpr int kChHot = 16;
constexpr int kChCold = 12;
constexpr int kChBallast = 24;
constexpr Bytes kChBuffer = KiB(512);
constexpr SimTime kChTick = Milliseconds(2);
constexpr SimTime kChPeriod = Milliseconds(5);
constexpr SimTime kChEnd = Milliseconds(2000);

Result RunCtrlHier(const Options& opt, Probe& probe) {
  Result r;
  r.work_unit = "epochs";
  const std::int64_t t0 = NowNs();
  Scope root(probe, "bench.workload");

  // Seeded inputs: the order in which each tick touches a tenant's hot
  // buffers, and up to 4 ms of jitter on the last rack's failure.  The
  // hotspot shifts are fixed: their timing sets how much the plane drains,
  // and the seed should not change the amount of work.
  Rng rng(opt.seed);
  const auto shift_at = [](int rack) { return Milliseconds(300 + 60 * rack); };
  const int failed_rack = kChRacks - 1;
  const SimTime fail_at =
      Milliseconds(1200) +
      static_cast<SimTime>(rng.NextBounded(1000)) * Microseconds(4);

  MetricsRegistry metrics;
  std::unique_ptr<sim::FluidSimulator> sim_owner;
  std::optional<fabric::Topology> topo;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<core::PoolManager> manager;
  std::unique_ptr<core::ReplicationManager> replication;
  std::unique_ptr<chaos::FaultInjector> injector;
  std::unique_ptr<ctrl::hier::HierController> hier;
  std::vector<std::vector<core::BufferId>> hot(kChRacks);
  std::vector<core::BufferId> all_buffers;
  {
    Scope setup(probe, "setup");
    {
      Scope s(probe, "fabric.build");
      sim_owner = std::make_unique<sim::FluidSimulator>();
      sim_owner->set_threads(opt.threads);
      sim_owner->set_solver_timing(opt.trace);
      probe.AttachSolver(sim_owner.get());
      topo.emplace(fabric::Topology::MakeLogical(
          sim_owner.get(), kChServers, fabric::LinkProfile::Link1()));
      topo->AssignRackShards(kChPerRack);
      topo->ProvisionSpine(topo->link().bandwidth / 4);
    }
    {
      Scope s(probe, "mem.cluster_build");
      const double rss0 = CurrentRssMib();
      cluster::ClusterConfig config;
      config.num_servers = kChServers;
      config.server_total_memory = kChServerMem;
      config.server_shared_memory = kChServerMem;
      config.frame_size = kChFrame;
      config.with_backing = true;
      cluster = std::make_unique<cluster::Cluster>(config);
      manager = std::make_unique<core::PoolManager>(cluster.get());
      manager->set_metrics(&metrics);
      manager->access_tracker().set_half_life(Milliseconds(50));
      r.layers["mem.cluster_build_rss_mib"] = CurrentRssMib() - rss0;
    }
    const auto allocate = [&](cluster::ServerId server) {
      Scope s(probe, "core.alloc");
      auto buf = manager->Allocate(kChBuffer, server);
      LMP_CHECK(buf.ok()) << buf.status();
      all_buffers.push_back(*buf);
      return *buf;
    };
    // Per rack: the tenant's hot set and cold archive on the rack's first
    // server, ballast on its third.
    for (int rack = 0; rack < kChRacks; ++rack) {
      const auto producer = static_cast<cluster::ServerId>(rack * kChPerRack);
      for (int i = 0; i < kChHot; ++i) {
        hot[static_cast<std::size_t>(rack)].push_back(allocate(producer));
      }
      for (int i = 0; i < kChCold; ++i) allocate(producer);
      for (int i = 0; i < kChBallast; ++i) allocate(producer + 2);
    }
    {
      Scope s(probe, "core.replicate");
      replication = std::make_unique<core::ReplicationManager>(manager.get(), 2);
      for (const auto& rack_hot : hot) {
        for (const core::BufferId buf : rack_hot) {
          LMP_CHECK_OK(replication->ProtectBuffer(buf));
        }
      }
    }
    {
      Scope s(probe, "chaos.setup");
      injector = std::make_unique<chaos::FaultInjector>(
          chaos::FaultInjector::Bindings{.sim = sim_owner.get(),
                                         .topology = &*topo,
                                         .manager = manager.get(),
                                         .replication = replication.get()});
      injector->set_metrics(&metrics);
      std::vector<cluster::ServerId> victims;
      for (int i = 0; i < kChPerRack; ++i) {
        victims.push_back(
            static_cast<cluster::ServerId>(failed_rack * kChPerRack + i));
      }
      chaos::FaultPlan plan;
      plan.RackFailAt(fail_at, victims);
      LMP_CHECK_OK(injector->SchedulePlan(plan));
    }
    {
      Scope s(probe, "ctrl.setup");
      ctrl::hier::HierConfig hc;
      // The plane's own cadence is parked past the run: the benchmark's
      // timer drives every periodic epoch through RunEpochNow().  Start()
      // still arms the chaos listener's out-of-band epochs.
      hc.period = kChEnd + kChPeriod;
      hc.global_every = 2;
      hc.rack.period = kChPeriod;
      hc.rack.min_step = MiB(1);
      hc.rack.cooldown = Milliseconds(10);
      hc.rack.estimator.time_constant = Milliseconds(10);
      hc.rack.estimator.headroom_factor = 1.25;
      hier = std::make_unique<ctrl::hier::HierController>(
          ctrl::hier::HierController::Bindings{.sim = sim_owner.get(),
                                               .manager = manager.get(),
                                               .topology = &*topo,
                                               .injector = injector.get()},
          hc);
      hier->set_metrics(&metrics);
      for (int s2 = 0; s2 < kChServers; ++s2) {
        const auto id = static_cast<cluster::ServerId>(s2);
        hier->rack_of(id).sizing().estimator().SetPrivateFloor(id, MiB(4));
      }
      hier->Start();
    }
  }

  sim::FluidSimulator& sim = *sim_owner;
  std::uint64_t tenant_flows = 0;
  // The tenant of rack r reads its hot set from the rack's first server,
  // from the second after its hotspot shift, and from the next rack once
  // its own rack has failed.
  const auto accessor = [&](int rack, SimTime now) {
    if (rack == failed_rack && now >= fail_at) {
      return static_cast<cluster::ServerId>(
          ((rack + 1) % kChRacks) * kChPerRack + 1);
    }
    return static_cast<cluster::ServerId>(rack * kChPerRack +
                                          (now >= shift_at(rack) ? 1 : 0));
  };
  for (SimTime t = 0; t < kChEnd; t += kChTick) {
    sim.ScheduleAt(t, [&](SimTime now) {
      Scope cb(probe, "bench.cb.tenant_tick");
      for (int rack = 0; rack < kChRacks; ++rack) {
        const cluster::ServerId from = accessor(rack, now);
        std::vector<core::BufferId>& rack_hot = hot[static_cast<std::size_t>(rack)];
        rng.Shuffle(rack_hot);
        for (const core::BufferId buf : rack_hot) {
          const auto spans = [&] {
            Scope s(probe, "core.spans");
            return manager->Spans(buf, 0, kChBuffer);
          }();
          if (!spans.ok()) continue;  // lost with its rack: skip this tick
          for (const core::LocatedSpan& span : *spans) {
            manager->access_tracker().RecordAccess(
                span.segment, from, static_cast<double>(span.bytes), now);
            if (!span.location.is_pool() && span.location.server != from) {
              ++tenant_flows;
              sim.StartFlow(static_cast<double>(span.bytes),
                            topo->DmaRemotePath(from, span.location.server),
                            [&sim](sim::FlowId f, SimTime) {
                              (void)sim.ReleaseRecord(f);
                            });
            }
          }
        }
      }
    });
  }
  for (SimTime t = kChPeriod; t <= kChEnd; t += kChPeriod) {
    sim.ScheduleAt(t, [&](SimTime now) {
      {
        Scope s(probe, "ctrl.epoch");
        hier->RunEpochNow();
      }
      if (now + kChPeriod > kChEnd) hier->Stop();
    });
  }
  for (int rack = 0; rack < kChRacks; ++rack) {
    // The hotspot: the producer's own application wants most of its DRAM.
    sim.ScheduleAt(shift_at(rack), [&, rack](SimTime) {
      Scope cb(probe, "bench.cb.shift");
      const auto producer = static_cast<cluster::ServerId>(rack * kChPerRack);
      hier->rack_of(producer).sizing().estimator().SetPrivateFloor(producer,
                                                                    MiB(24));
    });
  }

  const std::int64_t t1 = NowNs();
  RunLoop(sim, probe);
  const std::int64_t t2 = NowNs();

  const ctrl::hier::HierStats& hs = hier->stats();
  // Drained bytes: the rack tiers' drain migrations plus the spine grants'.
  Bytes drained = hs.pulled_bytes + hs.pushed_bytes;
  for (int rack = 0; rack < hier->num_racks(); ++rack) {
    drained += hier->rack(rack).sizing().stats().drain_bytes;
  }
  const chaos::ChaosReport chaos_report = injector->report();
  r.work = hs.epochs;
  r.attempted = hs.epochs;
  r.Check(injector->ApplyError().ok(), "the fault plan failed to apply");

  // Bytes used per live server agree with the frames the live buffers'
  // primaries and replicas hold.
  std::vector<Bytes> expect_used(kChServers, 0);
  for (const core::BufferId buf : all_buffers) {
    auto info = manager->Describe(buf);
    if (!info.ok()) continue;
    for (const core::SegmentId seg : info->segments) {
      const core::SegmentInfo* si = manager->segment_map().Find(seg);
      if (si == nullptr) continue;
      const Bytes frames = (si->size + kChFrame - 1) / kChFrame * kChFrame;
      if (si->state != core::SegmentState::kLost && !si->home.is_pool()) {
        expect_used[si->home.server] += frames;
      }
      for (const core::Location& rep : si->replicas) {
        if (!rep.is_pool()) expect_used[rep.server] += frames;
      }
    }
  }
  const core::PoolManager::PoolSnapshot snap = manager->Snapshot(sim.now());
  for (const auto& entry : snap.servers) {
    if (entry.crashed) continue;
    r.Check(entry.used == expect_used[entry.server],
            "server " + std::to_string(entry.server) + " uses " +
                std::to_string(entry.used) + " bytes, buffers hold " +
                std::to_string(expect_used[entry.server]));
  }
  // Every hot buffer still resolves, unless the injector reported loss.
  std::uint64_t hot_lost = 0;
  for (const auto& rack_hot : hot) {
    for (const core::BufferId buf : rack_hot) {
      const bool ok = manager->Spans(buf, 0, kChBuffer).ok();
      if (!ok) ++hot_lost;
      r.Check(ok || chaos_report.segments_lost > 0,
              "hot buffer " + std::to_string(buf) + " does not resolve");
    }
  }

  r.Model("model.sim_end_ns", static_cast<std::uint64_t>(sim.now()));
  r.Model("model.local_frac", hs.last_local_fraction);
  r.Model("model.spine_mib", topo->SpineBytesServed() / kMiB);
  r.Model("model.ctrl_spine_mib",
          static_cast<double>(hier->SpineBytesMoved()) / kMiB);
  r.Model("model.epochs", hs.epochs);
  r.Model("model.global_rounds", hs.global_rounds);
  r.Model("model.oob_resolves", hs.oob_resolves);
  r.Model("model.pull_grants", hs.pull_grants);
  r.Model("model.drain_mib", static_cast<double>(drained) / kMiB);
  r.Model("model.push_grants", hs.push_grants);
  r.Model("model.tenant_flows", tenant_flows);
  r.Model("model.segments_lost",
          static_cast<std::uint64_t>(chaos_report.segments_lost));
  r.Model("model.hot_lost", hot_lost);

  r.solver = sim.solver_stats();
  r.layers["ctrl.epochs"] = static_cast<double>(hs.epochs);
  r.layers["ctrl.global_rounds"] = static_cast<double>(hs.global_rounds);
  r.layers["ctrl.oob_resolves"] = static_cast<double>(hs.oob_resolves);
  r.layers["ctrl.pull_grants"] = static_cast<double>(hs.pull_grants);
  r.layers["ctrl.drain_mib"] = static_cast<double>(drained) / kMiB;
  r.layers["ctrl.spine_mib"] =
      static_cast<double>(hier->SpineBytesMoved()) / kMiB;
  r.flows = tenant_flows;
  r.timed_ns = t2 - t1;
  r.setup_ns = t1 - t0;
  {
    Scope s(probe, "teardown");
    probe.DetachSolver();
    hier.reset();
    injector.reset();
    replication.reset();
    manager.reset();
    cluster.reset();
    topo.reset();
    sim_owner.reset();
  }
  r.wall_ns = NowNs() - t0;
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the span probe and the solver's counters.

void AddLayerMetrics(const Options& opt, const Probe& probe, Result& r) {
  const std::map<std::string, SpanTotals> totals = probe.Totals();
  const auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto& L = r.layers;
  const SpanTotals root = get("bench.workload");
  const SpanTotals steps = get("sim.step");
  const auto n_steps = static_cast<double>(steps.count);

  L["sim.steps"] = n_steps;
  L["sim.step_ns"] = ratio(static_cast<double>(steps.total_ns), n_steps);
  L["sim.step_self_ms"] = static_cast<double>(steps.self_ns) / 1e6;
  if (opt.workload == "btree_ops") {
    L["sim.steps_per_op"] = ratio(n_steps, static_cast<double>(r.work));
  } else {
    L["sim.steps_per_flow"] = ratio(n_steps, static_cast<double>(r.flows));
  }

  const sim::SolverStats& st = r.solver;
  const auto calls = static_cast<double>(st.recompute_calls);
  L["sim.solver.calls"] = calls;
  L["sim.solver.calls_per_step"] = ratio(calls, n_steps);
  L["sim.solver.touched_per_call"] =
      ratio(static_cast<double>(st.flows_touched), calls);
  L["sim.solver.full_frac"] = ratio(static_cast<double>(st.full_solves), calls);
  L["sim.solver.parallel_frac"] =
      ratio(static_cast<double>(st.parallel_solves), calls);
  L["sim.solver.shard_tasks"] = static_cast<double>(st.shard_tasks);
  L["sim.solver.ms"] = static_cast<double>(st.solve_ns) / 1e6;
  L["sim.solver.share"] = ratio(static_cast<double>(st.solve_ns),
                                static_cast<double>(r.timed_ns));

  const SpanTotals migrate = get("core.migrate");
  const SpanTotals spans = get("core.spans");
  const SpanTotals alloc = get("core.alloc");
  L["core.migrate_calls"] = static_cast<double>(migrate.count);
  L["core.migrate_us"] = ratio(static_cast<double>(migrate.total_ns) / 1e3,
                               static_cast<double>(migrate.count));
  L["core.spans_calls"] = static_cast<double>(spans.count);
  L["core.spans_ns"] = ratio(static_cast<double>(spans.total_ns),
                             static_cast<double>(spans.count));
  L["core.alloc_us"] = ratio(static_cast<double>(alloc.total_ns) / 1e3,
                             static_cast<double>(alloc.count));
  L["workloads.btree.preload_s"] =
      Seconds(get("workloads.btree.preload").total_ns);
  L["workloads.btree.verify_s"] =
      Seconds(get("workloads.btree.verify").total_ns);
  L["mem.cluster_build_s"] = Seconds(get("mem.cluster_build").total_ns);
  L["fabric.build_s"] = Seconds(get("fabric.build").total_ns);
  const SpanTotals epoch = get("ctrl.epoch");
  L["ctrl.epoch_us"] = ratio(static_cast<double>(epoch.total_ns) / 1e3,
                             static_cast<double>(epoch.count));

  double callback_ns = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("bench.cb.", 0) == 0) callback_ns += static_cast<double>(t.self_ns);
  }
  L["bench.callback_ms"] = callback_ns / 1e6;
  L["bench.unattributed_frac"] = ratio(static_cast<double>(root.self_ns),
                                       static_cast<double>(root.total_ns));
}

// Host self time per layer (span-name prefix before the first '.'; the
// solver is its own layer), for the traced run's breakdown table.
std::map<std::string, double> LayerSelfMs(const Probe& probe, const Result& r) {
  std::map<std::string, double> out;
  for (const auto& [name, t] : probe.Totals()) {
    std::string layer = name.substr(0, name.find('.'));
    if (name == "bench.workload") layer = "unattributed";
    if (layer == "setup" || layer == "teardown") layer = "bench";
    if (name.rfind("bench.cb.", 0) == 0) layer = "bench.callbacks";
    out[layer] += static_cast<double>(t.self_ns) / 1e6;
  }
  out["sim.solver"] += static_cast<double>(r.solver.solve_ns) / 1e6;
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void Emit(const Options& opt, const Result& r, const ProcReadings& proc,
          const std::map<std::string, double>& breakdown) {
  std::string model_text;
  for (const auto& [name, value] : r.model) model_text += name + "=" + value + "\n";
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, Fnv1a(model_text));

  std::string out = "{";
  out += "\"workload\":" + JsonString(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"threads\":" + std::to_string(opt.threads);
  out += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  out += ",\"setup_s\":" + JsonNumber(Seconds(r.setup_ns));
  out += ",\"timed_s\":" + JsonNumber(Seconds(r.timed_ns));
  out += ",\"wall_s\":" + JsonNumber(Seconds(r.wall_ns));
  out += ",\"work\":" + std::to_string(r.work);
  out += ",\"work_unit\":" + JsonString(r.work_unit);
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"check_failures\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.check_failures[i]);
  }
  out += "],\"peak_rss_mib\":" + JsonNumber(proc.peak_rss_mib);
  out += ",\"proc\":{\"user_s\":" + JsonNumber(proc.user_s) +
         ",\"sys_s\":" + JsonNumber(proc.sys_s) +
         ",\"minflt\":" + std::to_string(proc.minflt) + "}";
  out += ",\"model\":[";
  for (std::size_t i = 0; i < r.model.size(); ++i) {
    out += (i ? ",[" : "[") + JsonString(r.model[i].first) + "," +
           JsonString(r.model[i].second) + "]";
  }
  out += "],\"digest\":" + JsonString(digest);
  out += ",\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "},\"breakdown_ms\":{";
  first = true;
  for (const auto& [name, value] : breakdown) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      opt->workload = value;
    } else if (key == "seed") {
      opt->seed = std::stoull(value);
    } else if (key == "threads") {
      opt->threads = std::max(1, std::stoi(value));
    } else if (key == "trace") {
      opt->trace = value == "1";
    } else if (key == "spans-out") {
      opt->spans_out = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N [--threads=N] "
                 "[--trace=0|1] [--spans-out=FILE]\n");
    return 2;
  }
  const std::map<std::string, Result (*)(const Options&, Probe&)> workloads = {
      {"btree_ops", RunBtreeOps},
      {"fluid_local", RunFluidLocal},
      {"fluid_bridged", RunFluidBridged},
      {"ctrl_hier", RunCtrlHier},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  Probe probe(opt.trace);
  Result result = it->second(opt, probe);
  const ProcReadings proc = ReadProc();
  std::map<std::string, double> breakdown;
  if (opt.trace) {
    AddLayerMetrics(opt, probe, result);
    breakdown = LayerSelfMs(probe, result);
    if (!opt.spans_out.empty() && !probe.Write(opt.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_out.c_str());
    }
  } else {
    result.layers.clear();
  }
  Emit(opt, result, proc, breakdown);
  return result.check_failures.empty() && result.failed == 0 ? 0 : 1;
}
