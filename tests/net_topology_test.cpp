#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/simulator.hpp"

namespace multiedge::net {
namespace {

FramePtr addressed(MacAddr src, MacAddr dst, std::size_t bytes = 128) {
  auto f = std::make_shared<Frame>();
  f->src = src;
  f->dst = dst;
  f->payload.resize(bytes);
  return f;
}

TEST(Topology, BuildsRequestedShape) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.num_nodes = 4;
  cfg.rails = 2;
  Network net(sim, cfg);
  EXPECT_EQ(net.num_nodes(), 4);
  EXPECT_EQ(net.rails(), 2);
  EXPECT_EQ(net.rail_switch(0).num_ports(), 4u);
  EXPECT_EQ(net.rail_switch(1).num_ports(), 4u);
  EXPECT_NE(net.nic(0, 0).mac(), net.nic(0, 1).mac());
}

TEST(Topology, NicGbpsFollowsLinkSpec) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.link.gbps = 10.0;
  cfg.nic = myricom_10g_config();
  Network net(sim, cfg);
  EXPECT_DOUBLE_EQ(net.nic(0, 0).config().gbps, 10.0);
}

TEST(Topology, EndToEndDeliveryAcrossSwitch) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.num_nodes = 3;
  Network net(sim, cfg);
  net.nic(0, 0).tx(addressed(net.nic(0, 0).mac(), net.nic(2, 0).mac()));
  sim.run();
  // First frame floods (unknown destination) but reaches node 2.
  EXPECT_EQ(net.nic(2, 0).rx_pending(), 1u);
}

TEST(Topology, RailsAreIsolated) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.num_nodes = 2;
  cfg.rails = 2;
  Network net(sim, cfg);
  net.nic(0, 0).tx(addressed(net.nic(0, 0).mac(), net.nic(1, 0).mac()));
  sim.run();
  EXPECT_EQ(net.nic(1, 0).rx_pending(), 1u);
  EXPECT_EQ(net.nic(1, 1).rx_pending(), 0u);  // rail 1 never sees rail 0 traffic
}

TEST(Topology, FaultInjectionOnUplink) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.num_nodes = 2;
  Network net(sim, cfg);
  net.uplink(0, 0).faults().drop_prob = 1.0;
  net.nic(0, 0).tx(addressed(net.nic(0, 0).mac(), net.nic(1, 0).mac()));
  sim.run();
  EXPECT_EQ(net.nic(1, 0).rx_pending(), 0u);
  EXPECT_EQ(net.uplink(0, 0).stats().frames_dropped, 1u);
}

TEST(Topology, TwoLevelAndFatTreeHelpersBuildRequestedShape) {
  sim::Simulator sim;
  Network two(sim, two_level_topology(/*nodes=*/8, /*rails=*/1, /*groups=*/4));
  EXPECT_TRUE(two.has_core());
  EXPECT_EQ(two.num_spines(), 1);
  // Each edge: 2 local nodes + 1 uplink; the core: one port per edge.
  EXPECT_EQ(two.edge_switch(0, 0).num_ports(), 3u);
  EXPECT_EQ(two.edge_switch(0, 0).num_uplinks(), 1u);
  EXPECT_EQ(two.core_switch(0).num_ports(), 4u);

  Network fat(sim, fat_tree_topology(/*nodes=*/12, /*rails=*/2, /*groups=*/3,
                                     /*spines=*/2));
  EXPECT_TRUE(fat.has_core());
  EXPECT_EQ(fat.num_spines(), 2);
  for (int r = 0; r < 2; ++r) {
    for (int g = 0; g < 3; ++g) {
      // 4 local nodes + one trunk per spine.
      EXPECT_EQ(fat.edge_switch(r, g).num_ports(), 6u);
      EXPECT_EQ(fat.edge_switch(r, g).num_uplinks(), 2u);
    }
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(fat.spine_switch(r, s).num_ports(), 3u);
    }
  }
}

TEST(Topology, FatTreeReachesAllPairs) {
  sim::Simulator sim;
  constexpr int kN = 12;
  Network net(sim, fat_tree_topology(kN, /*rails=*/1, /*groups=*/3,
                                     /*spines=*/2));
  // Warm-up: one flood per source teaches switches where sources live (the
  // tables stay partial — forwarded frames only teach the path they take).
  for (int s = 0; s < kN; ++s) {
    net.nic(s, 0).tx(
        addressed(net.nic(s, 0).mac(), net.nic((s + 1) % kN, 0).mac()));
  }
  sim.run();
  // Every ordered pair, one frame at a time: whether the fabric floods or
  // unicast-forwards (possibly ECMP-steered through either spine), the
  // destination must receive EXACTLY one copy — anything else is loss, a
  // forwarding loop, or flood duplication across the spine layer.
  for (int s = 0; s < kN; ++s) {
    for (int d = 0; d < kN; ++d) {
      if (s == d) continue;
      const std::size_t before = net.nic(d, 0).rx_pending();
      net.nic(s, 0).tx(addressed(net.nic(s, 0).mac(), net.nic(d, 0).mac()));
      sim.run();
      ASSERT_EQ(net.nic(d, 0).rx_pending(), before + 1)
          << "pair " << s << " -> " << d;
    }
  }
}

TEST(Topology, FatTreeSpreadsFlowsAcrossSpineUplinks) {
  sim::Simulator sim;
  constexpr int kN = 16;
  Network net(sim, fat_tree_topology(kN, /*rails=*/1, /*groups=*/4,
                                     /*spines=*/2));
  // Learning pass, then enough distinct cross-group flows that the FNV flow
  // hash must land on both uplinks of each edge.
  for (int s = 0; s < kN; ++s) {
    net.nic(s, 0).tx(
        addressed(net.nic(s, 0).mac(), net.nic((s + 1) % kN, 0).mac()));
  }
  sim.run();
  for (int round = 0; round < 4; ++round) {
    for (int s = 0; s < kN; ++s) {
      for (int d = 0; d < kN; ++d) {
        if (s == d) continue;
        net.nic(s, 0).tx(addressed(net.nic(s, 0).mac(), net.nic(d, 0).mac()));
      }
    }
  }
  sim.run();
  std::uint64_t steered = 0;
  for (int g = 0; g < 4; ++g) {
    Switch& edge = net.edge_switch(0, g);
    steered += edge.stats().ecmp_steered;
    // Counter-based spread assertion: both uplink ports actually carried
    // frames, not just one hot trunk.
    int used = 0;
    for (std::size_t p = 0; p < edge.num_ports(); ++p) {
      if (edge.port_uplink(p) && edge.port_tx_frames(p) > 0) ++used;
    }
    EXPECT_EQ(used, 2) << "edge " << g << " left an uplink idle";
  }
  EXPECT_GT(steered, 0u) << "ECMP steering never engaged";
}

TEST(Topology, PaperConfigurationsConstruct) {
  sim::Simulator sim;
  // 1L-1G: 16 nodes, one 1G rail.
  TopologyConfig c1;
  c1.num_nodes = 16;
  c1.rails = 1;
  c1.nic = broadcom_tg3_config();
  Network n1(sim, c1);
  EXPECT_EQ(n1.rail_switch(0).num_ports(), 16u);

  // 2L-1G: 16 nodes, two 1G rails.
  TopologyConfig c2 = c1;
  c2.rails = 2;
  Network n2(sim, c2);
  EXPECT_EQ(n2.rails(), 2);

  // 1L-10G: 4 nodes, one 10G rail with the Myricom quirk.
  TopologyConfig c3;
  c3.num_nodes = 4;
  c3.link.gbps = 10.0;
  c3.nic = myricom_10g_config();
  Network n3(sim, c3);
  EXPECT_FALSE(n3.nic(0, 0).config().tx_irq_maskable);
}

// Past 255 nodes the node id needs a second MAC byte: with one byte, node n
// and node n + 256 shared a MAC, so the switches delivered each one's frames
// to both.
TEST(Topology, MacsStayDistinctPast255Nodes) {
  sim::Simulator sim;
  TopologyConfig cfg;
  cfg.num_nodes = 300;
  cfg.rails = 2;
  Network net(sim, cfg);
  std::set<MacAddr> macs;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    for (int r = 0; r < cfg.rails; ++r) macs.insert(net.nic(n, r).mac());
  }
  EXPECT_EQ(macs.size(), std::size_t{300} * 2);
}

}  // namespace
}  // namespace multiedge::net
