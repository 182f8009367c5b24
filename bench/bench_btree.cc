// B+tree tenant on the request/op engine: per-op latency distributions
// under a local-fraction x churn sweep.
//
// A PoolBtree arena (nodes in pool buffers) is preloaded with a keyspace,
// then closed-loop clients on server 0 drive Zipf-distributed get/put/scan
// ops through ops::BtreeOpDriver.  Every pointer chase is a priced pool
// access: root-to-leaf descents, record reads and the chained node writes
// of a put each cost the path's loaded latency plus serialization at its
// fair share, and wait for one of the client core's miss slots, so the
// latency histograms move when placement does.  Puts take a striped writer
// lock whose round trips are priced and whose waiters queue FIFO behind
// the holder.
//
//   * local fraction: before the run, a fraction of the arena's segments
//     is migrated away from the client server — the gap between rows is
//     the remote-hop cost the paper's sizing lever controls (§4.5).
//   * churn: a background migrator re-homes one arena segment every
//     10us for the first 64 periods, while ops are in flight, exercising
//     span re-resolution under load (each hop resolves its spans at issue
//     time; address retranslation itself is not priced).
//
// Count is the ops that succeeded (the latency columns cover them only);
// Failed is the ops that completed with an error, e.g. a put whose lock
// wait reached max_lock_spins round trips.  Events/op is the simulator
// steps the cell's drain took over its ops; under --series-out the
// recorder's 100us ticks (one or two per cell) are steps too.
//
// Deterministic: all randomness flows from --seed through lmp::Rng /
// ZipfGenerator on the sim clock; stdout, --metrics-out and --series-out
// are byte-identical across runs and --threads values.
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/logical.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/pool_manager.h"
#include "obs/time_series.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "workloads/pool_btree.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

constexpr int kServers = 4;
constexpr Bytes kServerMem = MiB(64);
// Sized so the preload fills ~80% of the arena: empty slices would make
// the local-fraction lever a no-op (migrating unused nodes moves nothing
// the ops touch).
constexpr std::uint32_t kArenaNodes = 1024;  // 512 KiB of 512-byte nodes
constexpr std::uint64_t kKeys = 12000;
constexpr std::uint64_t kKeyStride = 7;
constexpr int kOpsPerScenario = 2000;
constexpr int kWindow = 64;           // closed-loop outstanding ops
constexpr SimTime kChurnPeriod = Microseconds(10);
constexpr int kChurnEvents = 64;

struct Scenario {
  std::string label;     // also the metrics prefix for this run's ops
  double local_fraction; // target fraction of arena segments on server 0
  bool churn;
};

struct Outcome {
  double observed_local = 0;  // arena segments homed on server 0 at the end
  std::uint64_t steps = 0;    // simulator steps until the last op finished
  // Ops that completed with a non-OK status, indexed by OpKind.
  std::array<std::uint64_t, 3> failed{};
};

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.cores_per_server = 4;
  config.server_total_memory = kServerMem;
  config.server_shared_memory = kServerMem;
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

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

Outcome Run(const Scenario& scenario, const lmp::bench::Args& args,
            bool want_series,
            std::vector<std::unique_ptr<obs::TimeSeriesRecorder>>* keep) {
  baselines::LogicalDeployment deploy(fabric::LinkProfile::Link0(), Config());
  deploy.simulator().set_threads(args.threads);
  core::PoolManager& manager = deploy.manager();

  ops::OpEngine::Options opts;
  opts.metrics = &MetricsRegistry::Global();
  opts.metrics_prefix = scenario.label;
  ops::OpEngine engine(&deploy.simulator(), &deploy.topology(), &manager,
                       opts);
  auto tree_or = workloads::PoolBtree::Create(&manager, kArenaNodes, 0);
  LMP_CHECK(tree_or.ok());
  workloads::PoolBtree& tree = *tree_or;
  ops::BtreeOpDriver driver(&engine, &tree, kServers);

  for (std::uint64_t k = 0; k < kKeys; ++k) {
    LMP_CHECK(tree.Insert(0, k * kKeyStride, k).ok());
  }

  // Slice the arena so the placement lever has granularity: a 4 MiB
  // allocation lands as one segment, and a one-segment arena can only be
  // all-local or all-remote.
  const Bytes arena_bytes = static_cast<Bytes>(kArenaNodes) *
                            workloads::PoolBtree::kNodeBytes;
  constexpr int kArenaSlices = 16;
  for (int i = 1; i < kArenaSlices; ++i) {
    LMP_CHECK_OK(manager.SplitSegmentAt(
        tree.buffer(), arena_bytes / kArenaSlices * static_cast<Bytes>(i)));
  }

  // Establish the target local fraction: the arena starts fully homed on
  // the client server; migrate the tail of its segment list away,
  // round-robin over the peers.
  auto arena = manager.Describe(tree.buffer());
  LMP_CHECK(arena.ok());
  const std::size_t total_segs = arena->segments.size();
  const std::size_t keep_local = static_cast<std::size_t>(
      scenario.local_fraction * static_cast<double>(total_segs) + 0.5);
  for (std::size_t i = keep_local; i < total_segs; ++i) {
    const auto dst = static_cast<cluster::ServerId>(1 + (i % (kServers - 1)));
    LMP_CHECK(manager.MigrateSegment(arena->segments[i], dst).ok());
  }

  // Background migrator: every period, re-home one arena segment.  The
  // schedule is fixed up front (a self-rearming timer would never let the
  // wheel drain); ops that outlive the last event just stop seeing churn.
  auto churn_rng = std::make_shared<Rng>(args.seed ^ 0xc0ffee);
  if (scenario.churn) {
    for (int i = 1; i <= kChurnEvents; ++i) {
      deploy.simulator().ScheduleAt(
          static_cast<SimTime>(i) * kChurnPeriod, [&, churn_rng](SimTime) {
            auto info = manager.Describe(tree.buffer());
            if (!info.ok() || info->segments.empty()) return;
            const auto seg =
                info->segments[churn_rng->NextBounded(info->segments.size())];
            const auto dst = static_cast<cluster::ServerId>(
                churn_rng->NextBounded(kServers));
            (void)manager.MigrateSegment(seg, dst);  // may legally fail
          });
    }
  }

  std::unique_ptr<obs::TimeSeriesRecorder> recorder;
  if (want_series) {
    obs::TimeSeriesRecorder::Config rc;
    rc.interval = Microseconds(100);
    rc.horizon = Milliseconds(60);
    rc.prefix = scenario.label + "/";
    recorder = std::make_unique<obs::TimeSeriesRecorder>(&deploy.simulator(),
                                                         rc);
    recorder->AddCounter("completed", [&engine] { return engine.completed(); });
    recorder->AddGauge("in_flight", [&engine] {
      return static_cast<double>(engine.in_flight());
    });
    recorder->Start();
  }

  // Closed-loop clients: a fixed window of outstanding ops, each
  // completion submitting the next, keys Zipf-skewed over the preload.
  ZipfGenerator zipf(kKeys, 0.99, args.seed);
  Rng mix_rng(args.seed + 1);
  int submitted = 0;
  std::function<void()> submit_one = [&] {
    const std::uint64_t key = zipf.Next() * kKeyStride;
    const int mix = static_cast<int>(mix_rng.NextBounded(100));
    ++submitted;
    if (mix < 50) {
      driver.SubmitGet(0, 0, key);
    } else if (mix < 85) {
      driver.SubmitPut(0, 0, key, mix_rng.NextBounded(1u << 30));
    } else {
      driver.SubmitScan(0, 0, key, 16);
    }
  };
  Outcome out;
  engine.set_on_complete([&](const ops::OpResult& result) {
    if (!result.status.ok() && result.kind != ops::OpKind::kOther) {
      ++out.failed[static_cast<std::size_t>(result.kind)];
    }
    if (submitted < kOpsPerScenario) submit_one();
  });
  for (int i = 0; i < kWindow && submitted < kOpsPerScenario; ++i) {
    submit_one();
  }
  auto steps = engine.Drain();
  LMP_CHECK_OK(steps.status());
  out.steps = *steps;
  LMP_CHECK(engine.completed() ==
            static_cast<std::uint64_t>(kOpsPerScenario));

  if (recorder != nullptr) keep->push_back(std::move(recorder));
  out.observed_local = ArenaLocalFraction(manager, tree.buffer());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const lmp::bench::Args args = lmp::bench::Args::Parse(argc, argv);
  lmp::bench::TraceSidecar sidecar(args);
  std::vector<std::unique_ptr<obs::TimeSeriesRecorder>> recorders;

  std::printf(
      "== B+tree on the op engine: %d closed-loop ops per cell "
      "(window %d, Zipf 0.99, %llu keys) ==\n",
      kOpsPerScenario, kWindow,
      static_cast<unsigned long long>(kKeys));
  lmp::TablePrinter table({"Cell", "Local frac", "Events/op", "Op", "Count",
                           "Failed", "p50 ns", "p99 ns", "p999 ns"});
  const std::vector<Scenario> scenarios = {
      {"ops.l100.c0", 1.0, false}, {"ops.l100.c1", 1.0, true},
      {"ops.l050.c0", 0.5, false}, {"ops.l050.c1", 0.5, true},
      {"ops.l000.c0", 0.0, false}, {"ops.l000.c1", 0.0, true},
  };
  for (const Scenario& s : scenarios) {
    const Outcome out = Run(s, args, sidecar.wants_series(), &recorders);
    for (const ops::OpKind kind :
         {ops::OpKind::kGet, ops::OpKind::kPut, ops::OpKind::kScan}) {
      const char* name = ops::OpKindName(kind);
      const lmp::Histogram* h =
          MetricsRegistry::Global().FindHistogram(s.label + "." + name);
      const std::uint64_t count = h == nullptr ? 0 : h->count();
      const std::uint64_t failed = out.failed[static_cast<std::size_t>(kind)];
      if (count == 0 && failed == 0) continue;
      table.AddRow({s.label + (s.churn ? " (churn)" : ""),
                    lmp::TablePrinter::Num(out.observed_local, 2),
                    lmp::TablePrinter::Num(
                        static_cast<double>(out.steps) / kOpsPerScenario, 2),
                    name,
                    std::to_string(count), std::to_string(failed),
                    count == 0 ? "-" : std::to_string(h->p50()),
                    count == 0 ? "-" : std::to_string(h->p99()),
                    count == 0 ? "-" : std::to_string(h->p999())});
    }
  }
  table.Print();
  std::printf(
      "\nEvery row is the same tree and the same Zipf stream; only node\n"
      "placement differs.  Each pointer chase pays its path's loaded\n"
      "latency (DRAM-side locally, one fabric round trip remotely) plus\n"
      "serialization, holding one of the client core's miss slots; the\n"
      "window's ops queue FIFO for those slots, so a slower hop also\n"
      "delays every access behind it.  Churn re-homes slices mid-run, and\n"
      "each hop resolves its spans when issued, so an op that crosses a\n"
      "migration pays the new home (retranslation itself is not priced).\n"
      "Put tails are lock queueing: writers to a hot stripe wait in FIFO\n"
      "order, each granted one coherent round trip after the previous\n"
      "release.\n");
  for (const auto& rec : recorders) sidecar.AddSeriesRecorder(rec.get());
  sidecar.Flush();
  return 0;
}
