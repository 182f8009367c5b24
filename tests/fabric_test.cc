// Tests for fabric/: link profiles calibrated from Tables 1–2, the
// load-latency curve, and topology resource paths.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fabric/link.h"
#include "fabric/topology.h"
#include "sim/fluid.h"
#include "sim/stream.h"

namespace lmp::fabric {
namespace {

// --- LinkProfile calibration (paper Tables 1 and 2) -------------------------

TEST(LinkProfileTest, Link0MatchesTable2) {
  const LinkProfile link = LinkProfile::Link0();
  EXPECT_DOUBLE_EQ(link.min_latency_ns, 163.0);
  EXPECT_DOUBLE_EQ(link.max_latency_ns, 418.0);
  EXPECT_DOUBLE_EQ(link.bandwidth, GBps(34.5));
}

TEST(LinkProfileTest, Link1MatchesTable2) {
  const LinkProfile link = LinkProfile::Link1();
  EXPECT_DOUBLE_EQ(link.min_latency_ns, 261.0);
  EXPECT_DOUBLE_EQ(link.max_latency_ns, 527.0);
  EXPECT_DOUBLE_EQ(link.bandwidth, GBps(21.0));
}

TEST(LinkProfileTest, CxlProfilesMatchTable1) {
  EXPECT_DOUBLE_EQ(LinkProfile::PondCxl().min_latency_ns, 280.0);
  EXPECT_DOUBLE_EQ(LinkProfile::PondCxl().bandwidth, GBps(31.0));
  EXPECT_DOUBLE_EQ(LinkProfile::FpgaCxl().min_latency_ns, 303.0);
  EXPECT_DOUBLE_EQ(LinkProfile::FpgaCxl().bandwidth, GBps(20.0));
  EXPECT_DOUBLE_EQ(LinkProfile::LocalDram().min_latency_ns, 82.0);
  EXPECT_DOUBLE_EQ(LinkProfile::LocalDram().bandwidth, GBps(97.0));
}

TEST(LinkProfileTest, LoadedLatencyEndpoints) {
  const LinkProfile link = LinkProfile::Link0();
  EXPECT_DOUBLE_EQ(link.LoadedLatency(0.0), 163.0);
  EXPECT_DOUBLE_EQ(link.LoadedLatency(1.0), 418.0);
}

TEST(LinkProfileTest, LoadedLatencyMonotoneAndConvex) {
  const LinkProfile link = LinkProfile::Link1();
  double prev = 0, prev_slope = 0;
  for (int i = 0; i <= 10; ++i) {
    const double u = i / 10.0;
    const double lat = link.LoadedLatency(u);
    EXPECT_GE(lat, prev);
    if (i >= 2) {
      const double slope = lat - prev;
      EXPECT_GE(slope, prev_slope - 1e-9);  // convex: slope non-decreasing
      prev_slope = slope;
    } else if (i == 1) {
      prev_slope = lat - prev;
    }
    prev = lat;
  }
}

TEST(LinkProfileTest, LoadedLatencyClampsOutOfRange) {
  const LinkProfile link = LinkProfile::Link0();
  EXPECT_DOUBLE_EQ(link.LoadedLatency(-1.0), 163.0);
  EXPECT_DOUBLE_EQ(link.LoadedLatency(2.0), 418.0);
}

// §4.3: the paper quotes max loaded remote latency as 2.8x (Link0) and
// 3.6x (Link1) max loaded local latency.  Check the derived local max is
// consistent with both quotes.
TEST(LinkProfileTest, LoadedLatencyRatiosMatchSection43) {
  const double local_max = LinkProfile::LocalDram().max_latency_ns;
  EXPECT_NEAR(LinkProfile::Link0().max_latency_ns / local_max, 2.8, 0.05);
  EXPECT_NEAR(LinkProfile::Link1().max_latency_ns / local_max, 3.6, 0.07);
}

// --- Topology -----------------------------------------------------------------

class TopologyTest : public ::testing::Test {
 protected:
  // Two racks of two Link0 servers joined by `uplink`-wide rack uplinks.
  Topology MakeDualRack(BytesPerSec uplink) {
    Topology t = Topology::MakeLogical(&sim_, 4, LinkProfile::Link0());
    t.AssignRackShards(2);
    t.ProvisionSpine(uplink);
    return t;
  }

  // Runs one 10 GB DMA pull per (puller, source) pair at once; returns
  // the aggregate GB/s.
  double Pull(const Topology& t,
              const std::vector<std::pair<ServerIndex, ServerIndex>>& pulls) {
    std::vector<std::unique_ptr<sim::SpanStream>> streams;
    for (const auto& [puller, source] : pulls) {
      streams.push_back(std::make_unique<sim::SpanStream>(
          &sim_, std::vector<sim::Span>{
                     sim::Span{10e9, t.DmaRemotePath(puller, source)}}));
    }
    return sim::RunStreams(&sim_, std::move(streams)).gbps;
  }

  sim::FluidSimulator sim_;
};

TEST_F(TopologyTest, LogicalHasNoPool) {
  Topology t = Topology::MakeLogical(&sim_, 4, LinkProfile::Link0());
  EXPECT_EQ(t.kind(), TopologyKind::kLogical);
  EXPECT_EQ(t.num_servers(), 4);
  EXPECT_FALSE(t.has_pool());
}

TEST_F(TopologyTest, PhysicalHasPool) {
  Topology t = Topology::MakePhysical(&sim_, 4, LinkProfile::Link0());
  EXPECT_TRUE(t.has_pool());
  EXPECT_EQ(t.pool_port(0), t.pool_port(1));  // one port serves everyone
}

TEST_F(TopologyTest, LocalPathTouchesCoreAndDram) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link0());
  const auto path = t.LocalPath(0, 3);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], t.core(0, 3));
  EXPECT_EQ(path[1], t.dram(0));
}

TEST_F(TopologyTest, RemotePathCrossesBothPorts) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link0());
  const auto path = t.RemotePath(0, 1, 1);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], t.core(0, 1));
  EXPECT_EQ(path[1], t.port(0));
  EXPECT_EQ(path[2], t.port(1));
  EXPECT_EQ(path[3], t.dram(1));
}

TEST_F(TopologyTest, PoolPathUsesPoolResources) {
  Topology t = Topology::MakePhysical(&sim_, 4, LinkProfile::Link1());
  const auto path = t.PoolPath(2, 0);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], t.core(2, 0));
  EXPECT_EQ(path[1], t.port(2));
  EXPECT_EQ(path[2], t.pool_port(2));
  EXPECT_EQ(path[3], t.pool_dram());
}

TEST_F(TopologyTest, MultiPortPoolSpreadsByServer) {
  Topology t = Topology::MakePhysical(&sim_, 4, LinkProfile::Link0(), {}, 2);
  EXPECT_EQ(t.pool_port(0), t.pool_port(2));  // wraps modulo port count
  EXPECT_NE(t.pool_port(0), t.pool_port(1));
}

TEST_F(TopologyTest, PortCapacityMatchesLink) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link1());
  EXPECT_DOUBLE_EQ(sim_.capacity(t.port(0)), GBps(21.0));
  EXPECT_DOUBLE_EQ(sim_.capacity(t.dram(0)), GBps(97.0));
}

TEST_F(TopologyTest, DmaPathsHaveNoCore) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link0());
  const auto path = t.DmaRemotePath(0, 1);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], t.port(0));
}

TEST_F(TopologyTest, CrossRackPathsTakeBothUplinks) {
  Topology t = MakeDualRack(GBps(34.5));
  EXPECT_EQ(t.DmaRemotePath(0, 1).size(), 3u);  // same rack: no uplink
  const auto path = t.DmaRemotePath(0, 2);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[1], t.rack_uplink(0));
  EXPECT_EQ(path[2], t.rack_uplink(1));
}

// A core's access across the spine is the longest route; Route holds it
// inline and RemotePath returns the same hops.
TEST_F(TopologyTest, CrossRackCoreRouteFillsTheInlinePath) {
  Topology t = MakeDualRack(GBps(34.5));
  const sim::Path path = t.Route(0, 1, 2);
  const sim::Path expected = {t.core(0, 1),      t.port(0), t.rack_uplink(0),
                              t.rack_uplink(1), t.port(2), t.dram(2)};
  ASSERT_EQ(path.size(), sim::Path::kMaxHops);
  EXPECT_EQ(path, expected);
  EXPECT_EQ(t.RemotePath(0, 1, 2), expected);
}

TEST_F(TopologyTest, RouteFromADmaEngineToThePoolOrLocalDram) {
  Topology t = Topology::MakePhysical(&sim_, 4, LinkProfile::Link1());
  const sim::Path to_pool = {t.port(2), t.pool_port(2), t.pool_dram()};
  EXPECT_EQ(t.Route(2, Topology::kDmaEngine, Topology::kPoolHome), to_pool);
  EXPECT_EQ(t.Route(1, Topology::kDmaEngine, 1), sim::Path{t.dram(1)});
}

// Both rack-0 servers pull from rack 1 at once: the two flows share the
// 21 GB/s uplinks.
TEST_F(TopologyTest, TrunkBottleneckUnderCrossRackLoad) {
  Topology t = MakeDualRack(GBps(21.0));
  EXPECT_NEAR(Pull(t, {{0, 2}, {1, 3}}), 21.0, 0.1);
}

TEST_F(TopologyTest, SameRackTrafficAvoidsTrunk) {
  Topology t = MakeDualRack(GBps(1.0));  // tiny uplinks
  EXPECT_NEAR(Pull(t, {{0, 1}}), 34.5, 0.1);  // full port speed
  EXPECT_DOUBLE_EQ(t.SpineBytesServed(), 0.0);
}

TEST_F(TopologyTest, UnloadedLatencyIsMinimum) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link0());
  EXPECT_NEAR(t.RemoteLoadedLatency(0, 1), 163.0, 1.0);
  EXPECT_NEAR(t.LocalLoadedLatency(0), 82.0, 1.0);
}

TEST_F(TopologyTest, LoadedLatencyRisesUnderTraffic) {
  Topology t = Topology::MakeLogical(&sim_, 2, LinkProfile::Link0());
  // Saturate the remote path for a while.
  for (int c = 0; c < 14; ++c) {
    sim_.StartFlow(1e9, t.RemotePath(0, c, 1));
  }
  sim_.Run();
  EXPECT_GT(t.RemoteLoadedLatency(0, 1), 300.0);  // near max under load
}

}  // namespace
}  // namespace lmp::fabric
