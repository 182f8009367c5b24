// Tests for the lmp::chaos fault-injection subsystem: plan parsing,
// deterministic replay (identical plan + seed => byte-identical trace and
// metrics), crash-during-rebuild recovery, retry/backoff bounds, and link
// flaps racing an active migration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/logical.h"
#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/trace.h"
#include "core/erasure.h"
#include "core/migration.h"
#include "core/placement.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::chaos {
namespace {

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, ParsesEveryKindAndSortsByTime) {
  const auto plan = FaultPlan::Parse(
      "e0=500us:recover:s1 "
      "e1=100us:crash:s1 "
      "e2=150us:degrade:s2:bw=0.25,lat=2.0 "
      "e3=300us:restore:s2 "
      "e4=400us:degrade:s0:bw=0.5 "
      "e5=600us:flap:s3:down=10us,count=3,period=50us,bw=0.05,lat=4.0 "
      "e6=900us:rack:s0+s1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->size(), 7u);
  const auto& events = plan->events();
  EXPECT_EQ(events[0].kind, FaultKind::kServerCrash);
  EXPECT_DOUBLE_EQ(events[0].at, 100e3);
  EXPECT_EQ(events[1].kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(events[1].bandwidth_mult, 0.25);
  EXPECT_DOUBLE_EQ(events[1].latency_mult, 2.0);
  EXPECT_EQ(events[2].kind, FaultKind::kLinkRestore);
  EXPECT_EQ(events[3].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(events[3].servers, std::vector<cluster::ServerId>{0});
  EXPECT_DOUBLE_EQ(events[3].bandwidth_mult, 0.5);
  EXPECT_EQ(events[4].kind, FaultKind::kServerRecover);
  EXPECT_EQ(events[5].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(events[5].flap_count, 3);
  EXPECT_DOUBLE_EQ(events[5].down_ns, 10e3);
  EXPECT_DOUBLE_EQ(events[5].period_ns, 50e3);
  ASSERT_EQ(events[6].servers.size(), 2u);
  EXPECT_EQ(events[6].servers[1], 1u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("e0=abc:crash:s1").ok());
  EXPECT_FALSE(FaultPlan::Parse("e0=100ms:explode:s1").ok());
  EXPECT_FALSE(FaultPlan::Parse("e0=100ms:crash").ok());
  EXPECT_FALSE(FaultPlan::Parse("e0=100ms:crash:pool").ok());
  // Link faults target server ports only; the pool box has no link fault.
  for (const char* spec : {"e0=100ms:degrade:pool:bw=0.5",
                           "e0=100ms:restore:pool"}) {
    const auto pool = FaultPlan::Parse(spec);
    ASSERT_FALSE(pool.ok()) << spec;
    EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_FALSE(FaultPlan::Parse("e0=100ms:degrade:s1:bw=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("e0=100ms:degrade:s1:bw=0.5,lat=0.5").ok());
  // Flap needs period > down and count > 0.
  EXPECT_FALSE(
      FaultPlan::Parse("e0=1ms:flap:s1:down=50us,count=2,period=20us").ok());
  EXPECT_FALSE(FaultPlan::Parse("e0=1ms:crash:s1:bw=0.5:extra").ok());
  // Error messages carry the offending key.
  const auto bad = FaultPlan::Parse("e0=1ms:crash:s1 e1=zzz:crash:s2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("e1"), std::string::npos);
}

TEST(FaultPlanTest, EventNumberingStopsAtFirstGap) {
  const auto plan = FaultPlan::Parse("e0=1ms:crash:s1 e2=2ms:crash:s2");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->size(), 1u);  // e2 unreachable without e1
}

TEST(FaultPlanTest, CrashVictimsDedupsInFirstCrashOrder) {
  FaultPlan plan;
  plan.CrashAt(Milliseconds(2), 3)
      .RackFailAt(Milliseconds(5), {3, 1})
      .CrashAt(Milliseconds(1), 2)
      .DegradeLinkAt(Milliseconds(3), 0, 0.5);
  const auto victims = plan.CrashVictims();
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 3u);
  EXPECT_EQ(victims[2], 1u);
}

// ------------------------------------------------------------- determinism

cluster::ClusterConfig SmallConfig() {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(4);
  config.server_shared_memory = MiB(4);
  config.frame_size = KiB(4);
  return config;
}

struct DeterminismRun {
  std::string trace_json;
  std::string metrics_json;
  baselines::WorkloadResult result;
};

DeterminismRun RunChaosWorkloadOnce() {
  baselines::LogicalDeployment dep(
      fabric::LinkProfile::Link0(), SmallConfig(),
      std::make_unique<core::RoundRobinPlacement>(KiB(512)));
  EXPECT_TRUE(dep.EnableReplication(1).ok());

  DeterminismRun run;
  trace::TraceCollector collector;
  MetricsRegistry metrics;
  dep.injector().set_trace(&collector);
  dep.injector().set_metrics(&metrics);

  baselines::WorkloadSpec spec;
  spec.vector.vector_bytes = MiB(2);
  spec.vector.repetitions = 4;
  spec.replication_factor = 1;
  spec.faults.DegradeLinkAt(Microseconds(10), 0, 0.5, 2.0)
      .CrashAt(Microseconds(30), 1)
      .RestoreLinkAt(Microseconds(120), 0);

  auto result = dep.RunWorkload(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = *result;
  run.trace_json = collector.ToChromeJson();
  run.metrics_json = trace::MetricsJson(metrics);
  return run;
}

TEST(ChaosDeterminismTest, IdenticalPlanProducesByteIdenticalTraceAndMetrics) {
  const DeterminismRun a = RunChaosWorkloadOnce();
  const DeterminismRun b = RunChaosWorkloadOnce();
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.result.chaos.crashes, 1);
  EXPECT_GT(a.result.chaos.replicas_recreated, 0);
  EXPECT_GT(a.result.chaos.bytes_rereplicated, 0u);
  EXPECT_DOUBLE_EQ(a.result.chaos.max_time_to_redundancy,
                   b.result.chaos.max_time_to_redundancy);
  EXPECT_EQ(a.result.vector.total_time_ns, b.result.vector.total_time_ns);
}

// ------------------------------------------------------- injector recovery

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest()
      : topology_(fabric::Topology::MakeLogical(
            &sim_, 4, fabric::LinkProfile::Link0())),
        cluster_(SmallConfig()),
        manager_(&cluster_) {}

  FaultInjector::Bindings Bind(core::ReplicationManager* repl = nullptr,
                               core::XorErasureManager* erasure = nullptr) {
    FaultInjector::Bindings b;
    b.sim = &sim_;
    b.topology = &topology_;
    b.manager = &manager_;
    b.replication = repl;
    b.erasure = erasure;
    return b;
  }

  sim::FluidSimulator sim_;
  fabric::Topology topology_;
  cluster::Cluster cluster_;
  core::PoolManager manager_;
  MetricsRegistry metrics_;
};

TEST_F(InjectorTest, ErasureRebuildTransfersCompleteAndCloseWindows) {
  core::XorErasureManager erasure(&manager_, 2);
  auto buf = manager_.Allocate(KiB(256), 1);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(
      erasure.ProtectSegments(manager_.Describe(*buf)->segments).ok());

  FaultInjector injector(Bind(nullptr, &erasure));
  injector.set_metrics(&metrics_);
  ASSERT_TRUE(injector.WatchBuffer(*buf).ok());
  FaultPlan plan;
  plan.CrashAt(Microseconds(10), 1);
  ASSERT_TRUE(injector.SchedulePlan(plan).ok());
  sim_.Run();

  ASSERT_TRUE(injector.ApplyError().ok());
  const ChaosReport report = injector.report();
  EXPECT_EQ(report.crashes, 1);
  EXPECT_GT(report.segments_lost, 0);
  EXPECT_EQ(report.segments_rebuilt, report.segments_lost);
  EXPECT_EQ(report.rebuilds_abandoned, 0);
  EXPECT_GT(report.max_time_to_redundancy, 0.0);
  // The buffer was unavailable from crash to last rebuild completion, and
  // is available again now.
  EXPECT_GT(report.total_unavailability, 0.0);
  EXPECT_EQ(report.buffers_affected, 1);
  EXPECT_EQ(injector.pending_recoveries(), 0);
  // Re-querying later does not extend closed windows.
  EXPECT_DOUBLE_EQ(injector.report().total_unavailability,
                   report.total_unavailability);
}

TEST_F(InjectorTest, CrashDuringRebuildExtendsOneRecoveryWindow) {
  core::XorErasureManager erasure(&manager_, 2);
  auto buf1 = manager_.Allocate(KiB(128), 1);
  auto buf2 = manager_.Allocate(KiB(128), 2);
  ASSERT_TRUE(buf1.ok() && buf2.ok());
  ASSERT_TRUE(
      erasure.ProtectSegments(manager_.Describe(*buf1)->segments).ok());
  ASSERT_TRUE(
      erasure.ProtectSegments(manager_.Describe(*buf2)->segments).ok());

  FaultInjector injector(Bind(nullptr, &erasure));
  injector.set_metrics(&metrics_);
  // The second crash lands while the first rebuild's transfer is still in
  // flight (128 KiB over Link0 takes ~4us).
  FaultPlan plan;
  plan.CrashAt(Microseconds(10), 1).CrashAt(Microseconds(12), 2);
  ASSERT_TRUE(injector.SchedulePlan(plan).ok());
  sim_.Run();

  ASSERT_TRUE(injector.ApplyError().ok());
  const ChaosReport report = injector.report();
  EXPECT_EQ(report.crashes, 2);
  // Every lost segment is accounted for: rebuilt, or abandoned because the
  // second crash took a survivor its XOR group needed (double loss).
  EXPECT_GT(report.segments_rebuilt, 0);
  EXPECT_EQ(report.segments_rebuilt + report.rebuilds_abandoned,
            report.segments_lost);
  EXPECT_EQ(injector.pending_recoveries(), 0);
  // One merged redundancy window spans both crashes: TTR is measured from
  // the FIRST crash to the LAST rebuild completion.
  EXPECT_GE(report.max_time_to_redundancy,
            sim_.now() - Microseconds(10) - 1.0);
}

TEST_F(InjectorTest, RetryBackoffIsBoundedAndAbandons) {
  core::XorErasureManager erasure(&manager_, 2);
  auto buf = manager_.Allocate(KiB(128), 1);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(
      erasure.ProtectSegments(manager_.Describe(*buf)->segments).ok());

  FaultInjector injector(Bind(nullptr, &erasure));
  injector.set_metrics(&metrics_);
  ASSERT_TRUE(injector.WatchBuffer(*buf).ok());

  // Every surviving link is effectively down for the whole run, so each
  // rebuild transfer retries exactly kMaxTransferRetries times and is
  // then abandoned — never an unbounded spin.
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(topology_.SetLinkHealth(s, 0.01, 1.0).ok());
  }
  FaultPlan plan;
  plan.CrashAt(Microseconds(10), 1);
  ASSERT_TRUE(injector.SchedulePlan(plan).ok());
  sim_.Run();

  ASSERT_TRUE(injector.ApplyError().ok());
  const ChaosReport report = injector.report();
  ASSERT_GT(report.segments_lost, 0);
  EXPECT_EQ(report.transfer_retries,
            report.segments_lost * FaultInjector::kMaxTransferRetries);
  EXPECT_EQ(report.rebuilds_abandoned, report.segments_lost);
  EXPECT_EQ(report.segments_rebuilt, 0);
  EXPECT_EQ(injector.pending_recoveries(), 0);
  // No redundancy was ever reached, so no TTR is reported; the watched
  // buffer's unavailability window stays open to the report's query time.
  EXPECT_DOUBLE_EQ(report.max_time_to_redundancy, 0.0);
  EXPECT_GT(report.total_unavailability, 0.0);
  // The abandoned state is terminal, not a timer leak: sim has drained.
  EXPECT_FALSE(sim_.Step());
}

TEST_F(InjectorTest, DoubleCrashAndDoubleRecoverAreErrors) {
  FaultInjector injector(Bind());
  injector.set_metrics(&metrics_);
  FaultEvent crash;
  crash.kind = FaultKind::kServerCrash;
  crash.servers = {1};
  ASSERT_TRUE(injector.Apply(crash).ok());
  EXPECT_TRUE(IsFailedPrecondition(injector.Apply(crash)));
  FaultEvent recover;
  recover.kind = FaultKind::kServerRecover;
  recover.servers = {1};
  ASSERT_TRUE(injector.Apply(recover).ok());
  EXPECT_TRUE(IsFailedPrecondition(injector.Apply(recover)));
  // Scheduled-plan errors surface through ApplyError, not silently.
  FaultPlan plan;
  plan.RecoverAt(Microseconds(5), 2);  // server 2 is not crashed
  ASSERT_TRUE(injector.SchedulePlan(plan).ok());
  sim_.Run();
  EXPECT_TRUE(IsFailedPrecondition(injector.ApplyError()));
}

TEST_F(InjectorTest, DegradedBytesServedAccountsDegradeWindows) {
  FaultInjector injector(Bind());
  injector.set_metrics(&metrics_);
  FaultEvent degrade;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.servers = {0};
  degrade.bandwidth_mult = 0.5;
  ASSERT_TRUE(injector.Apply(degrade).ok());

  // Push 64 KiB through the degraded port.
  sim_.StartFlow(KiB(64), topology_.DmaRemotePath(0, 1));
  sim_.Run();

  FaultEvent restore;
  restore.kind = FaultKind::kLinkRestore;
  restore.servers = {0};
  ASSERT_TRUE(injector.Apply(restore).ok());
  const ChaosReport report = injector.report();
  EXPECT_EQ(report.link_degrades, 1);
  EXPECT_EQ(report.link_restores, 1);
  EXPECT_DOUBLE_EQ(report.degraded_bytes_served, double(KiB(64)));
  // Traffic after the restore is not charged to the degraded window.
  sim_.StartFlow(KiB(64), topology_.DmaRemotePath(0, 1));
  sim_.Run();
  EXPECT_DOUBLE_EQ(injector.report().degraded_bytes_served,
                   double(KiB(64)));
}

// ----------------------------------------------- link flap during migration

TEST_F(InjectorTest, LinkFlapDuringMigrationRoundCompletesCleanly) {
  // A segment on server 0 is hammered remotely by server 2, so a migration
  // round moves it 0 -> 2 while server 2's link flaps.
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const core::SegmentId seg = manager_.Describe(*buf)->segments[0];
  manager_.access_tracker().RecordAccess(seg, 2, double(MiB(2)), 0);

  FaultInjector injector(Bind());
  injector.set_metrics(&metrics_);
  FaultPlan plan;
  plan.FlapLinkAt(0, 2, /*down=*/Microseconds(2), /*count=*/3,
                  /*period=*/Microseconds(5), /*bandwidth_mult=*/0.04);
  ASSERT_TRUE(injector.SchedulePlan(plan).ok());

  core::MigrationEngine engine(&manager_);
  std::vector<core::MigrationRecord> records;
  const auto stats = engine.RunOnce(sim_.now(), &records);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->migrated, 1);
  ASSERT_EQ(records.size(), 1u);

  // Price the migration copy while the flap plays out underneath it.
  sim_.StartFlow(static_cast<double>(records[0].bytes),
                 topology_.DmaRemotePath(records[0].from.server,
                                         records[0].to.server));
  sim_.Run();

  ASSERT_TRUE(injector.ApplyError().ok());
  const ChaosReport report = injector.report();
  EXPECT_EQ(report.link_degrades, 3);
  EXPECT_EQ(report.link_restores, 3);
  // The link ends healthy and the migrated segment is live at its new home.
  EXPECT_FALSE(topology_.link_degraded(2));
  EXPECT_EQ(manager_.segment_map().Find(seg)->home.server, 2u);
  EXPECT_EQ(manager_.segment_map().Find(seg)->state,
            core::SegmentState::kActive);
  // Bytes pushed through the flapping link while it was down are charged
  // to the degraded windows.
  EXPECT_GT(report.degraded_bytes_served, 0.0);
}

}  // namespace
}  // namespace lmp::chaos
