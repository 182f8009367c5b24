// Tests for the observability layer: lmp::obs time-series recording and
// flight-recorder postmortems, the ctrl::SloLedger attainment math, and
// the determinism contracts they share — byte-identical series JSON
// across replays and thread counts, and wall-clock metrics excluded from
// the deterministic metrics export.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "ctrl/slo_ledger.h"
#include "fabric/topology.h"
#include "obs/flight_recorder.h"
#include "obs/time_series.h"
#include "sim/fluid.h"

namespace lmp::obs {
namespace {

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesTest, SamplesAtFixedIntervalUntilHorizon) {
  sim::FluidSimulator sim;
  TimeSeriesRecorder::Config rc;
  rc.interval = Microseconds(10);
  rc.horizon = Microseconds(100);
  TimeSeriesRecorder rec(&sim, rc);
  rec.AddGauge("now_us", [&sim] { return sim.now() / 1000.0; });
  rec.AddCounter("const", [] { return std::uint64_t{7}; });
  rec.Start();
  sim.Run();
  // One sample at Start() (t=0), then every 10us through 100us inclusive.
  EXPECT_EQ(rec.sample_count(), 11u);
  EXPECT_EQ(rec.probe_count(), 2u);
  EXPECT_FALSE(rec.running());  // horizon reached
}

TEST(TimeSeriesTest, HorizonZeroTakesOnlyTheStartSample) {
  sim::FluidSimulator sim;
  TimeSeriesRecorder::Config rc;
  rc.interval = Microseconds(10);
  rc.horizon = 0;
  TimeSeriesRecorder rec(&sim, rc);
  rec.AddGauge("g", [] { return 1.0; });
  rec.Start();
  sim.Run();
  EXPECT_EQ(rec.sample_count(), 1u);
}

TEST(TimeSeriesTest, SampleNowWorksWithoutStart) {
  sim::FluidSimulator sim;
  TimeSeriesRecorder rec(&sim, {});
  rec.AddCounter("c", [] { return std::uint64_t{3}; });
  rec.SampleNow();
  rec.SampleNow();
  EXPECT_EQ(rec.sample_count(), 2u);
  EXPECT_FALSE(rec.running());
}

TEST(SeriesJsonTest, SortedKeysKindsAndPrefixes) {
  sim::FluidSimulator sim;
  TimeSeriesRecorder::Config ra;
  ra.prefix = "b/";
  TimeSeriesRecorder rec_b(&sim, ra);
  rec_b.AddGauge("x", [] { return 2.5; });
  rec_b.SampleNow();
  TimeSeriesRecorder::Config rb;
  rb.prefix = "a/";
  TimeSeriesRecorder rec_a(&sim, rb);
  rec_a.AddCounter("x", [] { return std::uint64_t{9}; });
  rec_a.SampleNow();

  const std::string json = SeriesJson({&rec_b, &rec_a});
  const auto pos_a = json.find("\"a/x\"");
  const auto pos_b = json.find("\"b/x\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);  // sorted regardless of registration order
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("[[0,9]]"), std::string::npos);
  EXPECT_NE(json.find("[[0,2.5]]"), std::string::npos);
}

// A small sharded workload: ring flows inside racks of 16, sampled every
// 50us.  Returns the rendered series JSON.
std::string ShardedRunSeries(int threads) {
  constexpr int kServers = 64;
  constexpr int kRack = 16;
  sim::FluidSimulator sim;
  sim.set_threads(threads);
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kRack);

  TimeSeriesRecorder::Config rc;
  rc.interval = Microseconds(50);
  rc.horizon = Milliseconds(1);
  TimeSeriesRecorder rec(&sim, rc);
  rec.AddGauge("active_flows", [&sim] {
    return static_cast<double>(sim.active_flow_count());
  });
  rec.AddCounter("solver.recompute_calls",
                 [&sim] { return sim.solver_stats().recompute_calls; });
  rec.AddCounter("solver.shard_tasks",
                 [&sim] { return sim.solver_stats().shard_tasks; });
  rec.AddCounter("solver.flows_touched",
                 [&sim] { return sim.solver_stats().flows_touched; });
  rec.Start();

  for (int wave = 0; wave < 2; ++wave) {
    sim.ScheduleAt(wave * Microseconds(200), [&](SimTime) {
      sim.BeginBatch();
      for (int s = 0; s < kServers; ++s) {
        const int rack_base = (s / kRack) * kRack;
        const auto next = static_cast<fabric::ServerIndex>(
            rack_base + (s - rack_base + 1) % kRack);
        sim.StartFlow(1e5,
                      topo.RemotePath(static_cast<fabric::ServerIndex>(s),
                                      0, next));
      }
      sim.EndBatch();
    });
  }
  sim.Run();
  return SeriesJson({&rec});
}

TEST(SeriesJsonTest, ReplayIsByteIdentical) {
  const std::string a = ShardedRunSeries(1);
  const std::string b = ShardedRunSeries(1);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SeriesJsonTest, ThreadCountInvariant) {
  // The sampled probes read simulation state only; the parallel sharded
  // solver produces identical rates and counters for any worker count, so
  // the series file is byte-identical too.
  const std::string one = ShardedRunSeries(1);
  const std::string four = ShardedRunSeries(4);
  EXPECT_EQ(one, four);
}

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(Microseconds(i), "tick", "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
}

TEST(FlightRecorderTest, PostmortemFreezesTheRing) {
  FlightRecorder rec(8);
  rec.Record(Microseconds(1), "fault.crash", "server s1");
  rec.Record(Microseconds(2), "recovery.start", "segment 7");
  rec.SnapshotPostmortem("server_crash:s1", Microseconds(2));
  // Later events do not leak into the frozen snapshot.
  rec.Record(Microseconds(3), "recovery.done", "segment 7");
  rec.SnapshotPostmortem("server_crash:s2", Microseconds(3));
  EXPECT_EQ(rec.postmortem_count(), 2u);

  const std::string json = rec.PostmortemJson();
  const auto first = json.find("server_crash:s1");
  ASSERT_NE(first, std::string::npos);
  // The first snapshot (rendered before the second) has no recovery.done.
  const auto second = json.find("server_crash:s2");
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  const auto done = json.find("recovery.done");
  ASSERT_NE(done, std::string::npos);
  EXPECT_GT(done, second);
}

TEST(FlightRecorderTest, SequenceNumbersAreGlobal) {
  FlightRecorder rec(2);
  rec.Record(0, "a", "");
  rec.Record(0, "b", "");
  rec.Record(0, "c", "");  // drops "a"
  rec.SnapshotPostmortem("end", 0);
  const std::string json = rec.PostmortemJson();
  // Ring holds seq 1 and 2; seq 0 fell off.
  EXPECT_EQ(json.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":2"), std::string::npos);
}

TEST(FlightRecorderTest, JsonIsDeterministic) {
  auto build = [] {
    FlightRecorder rec(16);
    rec.Record(Microseconds(5), "fault.crash", "server s\"3\"");
    rec.SnapshotPostmortem("server_crash:s3", Microseconds(5));
    return rec.PostmortemJson();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace lmp::obs

namespace lmp::ctrl {
namespace {

// --- SloLedger --------------------------------------------------------------

TEST(SloLedgerTest, LocalFloorAttainment) {
  SloLedger ledger;
  SloTargets targets;
  targets.local_fraction_floor = 0.5;
  ledger.Register("t", targets);
  ledger.RecordLocalFraction("t", 0.9);
  ledger.RecordLocalFraction("t", 0.6);
  ledger.RecordLocalFraction("t", 0.2);  // miss
  ledger.RecordLocalFraction("t", 0.5);  // floor counts as met
  const SloAttainment* a = ledger.Find("t");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->local_samples, 4u);
  EXPECT_EQ(a->local_met, 3u);
  EXPECT_DOUBLE_EQ(a->LocalAttainment(), 0.75);
  EXPECT_DOUBLE_EQ(a->local_min, 0.2);
  EXPECT_FALSE(a->Met());  // one sample missed the floor
}

TEST(SloLedgerTest, BandwidthAndUnavailabilityBudgets) {
  SloLedger ledger;
  SloTargets targets;
  targets.min_bandwidth_gbps = 4.0;
  targets.max_unavailability = Milliseconds(1);
  ledger.Register("t", targets);
  ledger.RecordBandwidth("t", 6.0);
  ledger.AddUnavailability("t", Microseconds(400));
  ledger.AddUnavailability("t", Microseconds(500));
  const SloAttainment* a = ledger.Find("t");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->BandwidthAttainment(), 1.0);
  EXPECT_EQ(a->unavailability_windows, 2u);
  EXPECT_TRUE(a->UnavailabilityMet());
  EXPECT_TRUE(a->Met());
  // Blow the budget: 0.9ms + another 0.2ms > 1ms.
  ledger.AddUnavailability("t", Microseconds(200));
  EXPECT_FALSE(ledger.Find("t")->UnavailabilityMet());
  EXPECT_FALSE(ledger.Find("t")->Met());
}

TEST(SloLedgerTest, UnobservedTargetsAreVacuouslyMet) {
  SloLedger ledger;
  SloTargets targets;
  targets.local_fraction_floor = 0.99;
  ledger.Register("idle", targets);
  const SloAttainment* a = ledger.Find("idle");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->LocalAttainment(), 1.0);
  EXPECT_TRUE(a->Met());
}

TEST(SloLedgerTest, ObservationsAutoRegister) {
  SloLedger ledger;
  ledger.RecordBandwidth("walk-in", 2.0);
  EXPECT_EQ(ledger.tenant_count(), 1u);
  const SloAttainment* a = ledger.Find("walk-in");
  ASSERT_NE(a, nullptr);
  // Default targets are no-ops, so the walk-in tenant meets trivially.
  EXPECT_TRUE(a->Met());
}

TEST(SloLedgerTest, JsonSortsByNameAndIsStable) {
  auto build = [] {
    SloLedger ledger;
    ledger.RecordBandwidth("zeta", 1.0);
    ledger.RecordLocalFraction("alpha", 0.5);
    return ledger;
  };
  const SloLedger ledger = build();
  const std::string json = ledger.Json();
  ASSERT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_EQ(json, build().Json());
  EXPECT_NE(ledger.ReportTable().find("alpha"), std::string::npos);
}

}  // namespace
}  // namespace lmp::ctrl

namespace lmp {
namespace {

// --- Wall-clock segregation -------------------------------------------------

// Regression for the wall-clock determinism leak: wall-clock readings go
// to the "wall." namespace and the deterministic metrics export must not
// contain them — two identical runs whose wall readings differ still
// produce byte-identical metrics JSON.
TEST(WallMetricsTest, DeterministicExportExcludesWallNamespace) {
  auto build = [](double wall_ns) {
    MetricsRegistry registry;
    registry.Increment("lmp.ops", 3);
    registry.SetGauge("lmp.util", 0.25);
    registry.RecordValue("lmp.latency_ns", 1200);
    registry.SetGauge("wall.solve_ns", wall_ns);
    registry.SetGauge("wall.explicit_ns", 123456.0);
    return trace::MetricsJson(registry);
  };
  const std::string a = build(1000.0);
  const std::string b = build(2000.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("wall."), std::string::npos);
  EXPECT_NE(a.find("lmp.ops"), std::string::npos);
  EXPECT_NE(a.find("lmp.latency_ns"), std::string::npos);
}

TEST(WallMetricsTest, ReportStillShowsWallMetrics) {
  MetricsRegistry registry;
  registry.SetGauge("wall.solve_ns", 1000.0);
  EXPECT_NE(registry.Report().find("wall.solve_ns"), std::string::npos);
}

}  // namespace
}  // namespace lmp
