// Tests for the API/protocol extensions beyond the paper's core design:
// scatter writes, operation progress queries, memory registration,
// solicited acknowledgments, DSM flush(), multi-switch topologies, and the
// protocol-offload cost model.
#include <gtest/gtest.h>

#include <cstring>

#include "core/api.hpp"
#include "core/microbench.hpp"
#include "dsm/dsm.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge {
namespace {

TEST(Scatter, SegmentsApplyAtCorrectOffsets) {
  Cluster cluster(config_1l_1g(2));
  const std::uint64_t src = cluster.memory(0).alloc(1024);
  const std::uint64_t dst = cluster.memory(1).alloc(8192);
  auto s = cluster.memory(0).view_mut(src, 1024);
  for (int i = 0; i < 1024; ++i) s[i] = static_cast<std::byte>(i & 0xff);
  // Pre-fill destination so untouched gaps are detectable.
  auto d0 = cluster.memory(1).view_mut(dst, 8192);
  for (int i = 0; i < 8192; ++i) d0[i] = std::byte{0xee};

  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    ScatterSegment segs[3] = {
        {100, src, 64},
        {4000, src + 64, 128},
        {7500, src + 192, 256},
    };
    c.rdma_scatter_write(dst, segs, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();

  auto d = cluster.memory(1).view(dst, 8192);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(d[100 + i], static_cast<std::byte>(i & 0xff));
  }
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(d[4000 + i], static_cast<std::byte>((64 + i) & 0xff));
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(d[7500 + i], static_cast<std::byte>((192 + i) & 0xff));
  }
  // Gaps untouched.
  EXPECT_EQ(d[99], std::byte{0xee});
  EXPECT_EQ(d[164], std::byte{0xee});
  EXPECT_EQ(d[3999], std::byte{0xee});
}

TEST(Scatter, LargeScatterFragmentsAcrossFrames) {
  Cluster cluster(config_2lu_1g(2));  // out-of-order mode too
  constexpr int kSegs = 40;
  const std::uint64_t src = cluster.memory(0).alloc(kSegs * 256);
  const std::uint64_t dst = cluster.memory(1).alloc(kSegs * 512);
  auto s = cluster.memory(0).view_mut(src, kSegs * 256);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<std::byte>((i * 7) & 0xff);
  }
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    std::vector<ScatterSegment> segs;
    for (int i = 0; i < kSegs; ++i) {
      segs.push_back({static_cast<std::uint64_t>(i) * 512,
                      src + static_cast<std::uint64_t>(i) * 256, 256});
    }
    c.rdma_scatter_write(dst, segs, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) {
    Notification n = ep.wait_notification();
    EXPECT_GT(n.size, proto::WireHeader::kMaxData);  // really multi-frame
  });
  cluster.run();
  auto d = cluster.memory(1).view(dst, kSegs * 512);
  for (int i = 0; i < kSegs; ++i) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(d[i * 512 + b],
                static_cast<std::byte>(((i * 256 + b) * 7) & 0xff));
    }
  }
}

TEST(Progress, BytesAckedGrowMonotonically) {
  Cluster cluster(config_1l_1g(2));
  constexpr std::uint32_t kSize = 512 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);

  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    OpHandle h = c.rdma_write(dst, src, kSize);
    EXPECT_EQ(h.total_bytes(), kSize);
    std::uint32_t last = 0;
    bool saw_partial = false;
    while (!h.test()) {
      const std::uint32_t p = h.progress_bytes();
      EXPECT_GE(p, last);
      EXPECT_LE(p, kSize);
      if (p > 0 && p < kSize) saw_partial = true;
      last = p;
      ep.compute(sim::us(200));
    }
    EXPECT_TRUE(saw_partial) << "never observed partial progress";
    EXPECT_EQ(h.progress_bytes(), kSize);
  });
  cluster.run();
}

TEST(Registration, RegisteredSourceSkipsCopyCost) {
  Cluster cluster(config_1l_10g(2));
  constexpr std::uint32_t kSize = 256 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);

  sim::Time unreg = 0, reg = 0;
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    sim::Time t0 = ep.cluster().sim().now();
    c.rdma_write(dst, src, kSize).wait();
    unreg = ep.cluster().sim().now() - t0;

    ep.register_memory(src, kSize);
    EXPECT_TRUE(ep.is_registered(src, kSize));
    EXPECT_FALSE(ep.is_registered(src + 1, kSize));  // extends past the region
    t0 = ep.cluster().sim().now();
    c.rdma_write(dst, src, kSize).wait();
    reg = ep.cluster().sim().now() - t0;

    ep.deregister_memory(src, kSize);
    EXPECT_FALSE(ep.is_registered(src, kSize));
  });
  cluster.run();
  // The registered transfer avoids the user->kernel copy on the app CPU.
  EXPECT_LT(reg, unreg);
}

TEST(SolicitedAck, CompletionFasterThanDelayedAckTimer) {
  ClusterConfig cfg = config_1l_1g(2);
  Cluster cluster(cfg);
  const std::uint64_t src = cluster.memory(0).alloc(4096);
  const std::uint64_t dst = cluster.memory(1).alloc(4096);
  sim::Time wait_time = 0;
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    // Solicited write: completion should come within roughly one RTT plus
    // the solicited-ack delay, far below the 500us delayed-ack timer.
    const sim::Time t0 = ep.cluster().sim().now();
    c.rdma_write(dst, src, 4096, kOpFlagSolicit).wait();
    wait_time = ep.cluster().sim().now() - t0;
  });
  cluster.run();
  EXPECT_LT(wait_time, proto::kAckTimeout);
  EXPECT_GT(wait_time, 0);
}

TEST(UrgentFlag, LoneFrameBypassesInterruptModeration) {
  // A lone small notified write normally idles for the NIC's interrupt
  // coalescing delay before the receiver sees it; kOpFlagUrgent marks its
  // frame as a solicited event that fires the rx interrupt immediately.
  auto one_way = [](std::uint16_t flags) {
    ClusterConfig cfg = config_1l_1g(2);
    Cluster cluster(cfg);
    const std::uint64_t src = cluster.memory(0).alloc(64);
    const std::uint64_t dst = cluster.memory(1).alloc(64);
    sim::Time delivered = 0;
    cluster.spawn(0, "w", [&](Endpoint& ep) {
      Connection c = ep.connect(1);
      c.rdma_write(dst, src, 8, flags);
    });
    cluster.spawn(1, "r", [&](Endpoint& ep) {
      const sim::Time t0 = ep.cluster().sim().now();
      ep.wait_notification();
      delivered = ep.cluster().sim().now() - t0;
    });
    cluster.run();
    return delivered;
  };
  const sim::Time coalesce = net::NicConfig{}.irq_coalesce_delay;
  const sim::Time plain = one_way(kOpFlagNotify);
  const sim::Time urgent =
      one_way(static_cast<std::uint16_t>(kOpFlagNotify | kOpFlagUrgent));
  EXPECT_LT(urgent + coalesce / 2, plain);  // saves most of the delay
  EXPECT_GT(urgent, 0);
}

TEST(DsmFlush, PublishesWithoutSyncOperation) {
  Cluster cluster(config_1l_1g(2));
  dsm::DsmConfig dcfg;
  dcfg.shared_bytes = 1 << 20;
  dsm::DsmSystem sys(cluster, dcfg);
  const std::uint64_t va = sys.shared_alloc(8192, 4096);

  sys.run([&](dsm::Dsm& d) {
    dsm::SharedArray<int> a(&d, va, 2048);
    if (d.rank() == 1) {  // non-home writer for page 0's home (node 0)
      int* w = a.write(0, 2048);
      for (int i = 0; i < 2048; ++i) w[i] = i * 5;
      d.flush();  // diffs reach the homes without a lock/barrier
    }
    d.barrier();
    const int* r = a.read(0, 2048);
    for (int i = 0; i < 2048; ++i) ASSERT_EQ(r[i], i * 5);
    d.barrier();
  });
  EXPECT_GT(sys.node_stats(1).diffs_flushed, 0u);
}

TEST(MultiSwitch, TreeTopologyDeliversAcrossCore) {
  ClusterConfig cfg = config_1l_1g(8);
  cfg.topology.edge_groups = 4;  // nodes 0..7 round-robin over 4 groups
  Cluster cluster(cfg);
  constexpr std::uint32_t kSize = 64 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  auto s = cluster.memory(0).view_mut(src, kSize);
  for (std::size_t i = 0; i < kSize; ++i) {
    s[i] = static_cast<std::byte>((i * 13) & 0xff);
  }
  // Node 0 (group 0) -> node 1 (group 1): must cross the core switch.
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  auto d = cluster.memory(1).view(dst, kSize);
  for (std::size_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(d[i], static_cast<std::byte>((i * 13) & 0xff));
  }
  EXPECT_TRUE(cluster.network().has_core());
  EXPECT_GT(cluster.network().core_switch(0).stats().forwarded +
                cluster.network().core_switch(0).stats().flooded,
            0u);
}

TEST(MultiSwitch, SameGroupTrafficStaysOffCore) {
  ClusterConfig cfg = config_1l_1g(8);
  cfg.topology.edge_groups = 4;
  Cluster cluster(cfg);
  const std::uint64_t src = cluster.memory(0).alloc(4096);
  const std::uint64_t dst = cluster.memory(4).alloc(4096);
  // Nodes 0 and 4 share group 0 (round-robin by node % groups).
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(4).rdma_write(dst, src, 4096, kOpFlagNotify).wait();
  });
  cluster.spawn(4, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  // After MAC learning, unicast frames between group members are forwarded
  // locally; only the initial flood may have touched the core.
  const auto& core = cluster.network().core_switch(0).stats();
  EXPECT_LE(core.forwarded, 2u);
}

TEST(Offload, CostModelRaisesThroughputAndCutsCpu) {
  MicroParams p;
  p.message_bytes = 256 * 1024;
  p.iterations = 16;
  MicroResult host = run_micro(config_1l_10g(2), MicroBench::kOneWay, p);
  ClusterConfig off = config_1l_10g(2);
  off.costs = proto::HostCostModel::offload();
  MicroResult nic = run_micro(off, MicroBench::kOneWay, p);
  EXPECT_GE(nic.throughput_mbs, host.throughput_mbs);
  EXPECT_LT(nic.cpu_utilization, host.cpu_utilization * 0.5);
}

}  // namespace
}  // namespace multiedge
