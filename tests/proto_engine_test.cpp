// Engine-level protocol behaviour: interrupt-driven thread batching, ack
// piggy-backing, NACK fast retransmit, handshake robustness, striping
// policies, backlog under ring pressure, and counter bookkeeping.
#include <gtest/gtest.h>
#include <malloc.h>

#include <stdexcept>

#include "core/api.hpp"

namespace multiedge {
namespace {

void fill(proto::MemorySpace& mem, std::uint64_t va, std::size_t n,
          std::uint8_t seed) {
  auto s = mem.view_mut(va, n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<std::byte>((seed + i * 31) & 0xff);
  }
}

bool check(const proto::MemorySpace& mem, std::uint64_t va, std::size_t n,
           std::uint8_t seed) {
  auto s = mem.view(va, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] != static_cast<std::byte>((seed + i * 31) & 0xff)) return false;
  }
  return true;
}

// Cluster with the protocol invariant checker enabled; verifies on teardown
// that no invariant was violated during the test.
struct CheckedCluster : Cluster {
  explicit CheckedCluster(ClusterConfig cfg) : Cluster(enable(std::move(cfg))) {}
  ~CheckedCluster() {
    const std::vector<std::string> v = invariant_violations();
    EXPECT_TRUE(v.empty()) << "first invariant violation: "
                           << (v.empty() ? "" : v.front());
  }
  static ClusterConfig enable(ClusterConfig cfg) {
    cfg.protocol.check_invariants = true;
    return cfg;
  }
};

TEST(Engine, InterruptsAreCoalescedUnderStreaming) {
  CheckedCluster cluster(config_1l_1g(2));
  constexpr std::size_t kSize = 1 << 20;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();

  const auto& nic = cluster.network().nic(1, 0).stats();
  ASSERT_GT(nic.rx_frames, 700u);
  // §2.6 + Figure 5: the moderation window batches multiple frames per
  // interrupt (at 1G line rate the 18us tg3 timer covers ~1.5-2 frames).
  const double factor =
      static_cast<double>(nic.rx_frames) / static_cast<double>(nic.interrupts);
  EXPECT_GT(factor, 1.4);
}

TEST(Engine, ThreadBatchingCoalescesEventsPerWakeup) {
  // The protocol-thread counters expose the measured coalescing factor
  // (events handled per wakeup); under a pipelined 1MB write it must be > 1,
  // i.e. each wakeup amortizes over several frames/completions (§2.6).
  CheckedCluster cluster(config_1l_1g(2));
  constexpr std::size_t kSize = 1 << 20;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();

  for (int n = 0; n < 2; ++n) {
    const stats::Counters agg = cluster.engine(n).aggregate_counters();
    const std::uint64_t wakeups = agg.get("thread_wakeups");
    const std::uint64_t events = agg.get("thread_events");
    ASSERT_GT(wakeups, 0u) << "node " << n;
    const double factor =
        static_cast<double>(events) / static_cast<double>(wakeups);
    EXPECT_GT(factor, 1.0) << "node " << n;
  }
}

TEST(Engine, PiggybackCarriesAcksInRequestResponseTraffic) {
  // Ping-pong style traffic: almost all acks should ride data frames.
  CheckedCluster cluster(config_1l_1g(2));
  const std::uint64_t a = cluster.memory(0).alloc(4096);
  const std::uint64_t b = cluster.memory(1).alloc(4096);
  constexpr int kRounds = 50;
  cluster.spawn(0, "a", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    for (int i = 0; i < kRounds; ++i) {
      c.rdma_write(b, a, 4096, kOpFlagNotify);
      ep.wait_notification();
    }
  });
  cluster.spawn(1, "b", [&](Endpoint& ep) {
    Connection c = ep.accept(0);
    for (int i = 0; i < kRounds; ++i) {
      ep.wait_notification();
      c.rdma_write(a, b, 4096, kOpFlagNotify);
    }
  });
  cluster.run();
  stats::Counters agg = cluster.engine(0).aggregate_counters();
  agg.merge(cluster.engine(1).aggregate_counters());
  // Replies piggy-back the acks; explicit acks stay a small fraction.
  EXPECT_LT(agg.get("ack_frames_sent") * 10, agg.get("data_frames_rcvd"));
}

TEST(Engine, NackTriggersFastRetransmitBeforeRto) {
  ClusterConfig cfg = config_1l_1g(2);
  cfg.topology.link.drop_prob = 0.02;
  cfg.protocol.retransmit_timeout = sim::sec(1);  // RTO effectively disabled
  CheckedCluster cluster(cfg);
  constexpr std::size_t kSize = 512 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  fill(cluster.memory(0), src, kSize, 9);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  EXPECT_TRUE(check(cluster.memory(1), dst, kSize, 9));
  // With RTO out of the picture, recovery must have come from NACKs, and
  // the whole transfer finishes in far less than the RTO.
  const auto agg = cluster.engine(0).aggregate_counters();
  EXPECT_GT(agg.get("nacks_rcvd"), 0u);
  EXPECT_EQ(agg.get("rto_events"), 0u);
  EXPECT_LT(cluster.sim().now(), sim::ms(500));
}

TEST(Engine, DuplicateSynDoesNotCreateDuplicateConnections) {
  ClusterConfig cfg = config_1l_1g(2);
  CheckedCluster cluster(cfg);
  // Lose the first SYN-ACK: initiator re-SYNs; responder must reuse its
  // connection, not create a second one.
  cluster.network().uplink(1, 0).faults().outages.push_back({0, sim::ms(15)});
  cluster.spawn(0, "c", [&](Endpoint& ep) { ep.connect(1); });
  cluster.run();
  EXPECT_EQ(cluster.engine(1).connections().size(), 1u);
  EXPECT_GT(cluster.engine(1).counters().get("dup_syn"), 0u);
}

TEST(Engine, WindowStallsAreCountedWhenPipeIsThin) {
  ClusterConfig cfg = config_1l_10g(2);
  cfg.protocol.window_frames = 4;  // far below the 10G bandwidth-delay product
  CheckedCluster cluster(cfg);
  constexpr std::size_t kSize = 1 << 20;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  const auto agg = cluster.engine(0).aggregate_counters();
  EXPECT_GT(agg.get("window_stalls"), 100u);
}

class StripingPolicyTest
    : public ::testing::TestWithParam<proto::StripingPolicy> {};

TEST_P(StripingPolicyTest, DeliversCorrectlyAndUsesBothRails) {
  ClusterConfig cfg = config_2lu_1g(2);
  cfg.protocol.striping = GetParam();
  CheckedCluster cluster(cfg);
  constexpr std::size_t kSize = 1 << 19;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  fill(cluster.memory(0), src, kSize, 77);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  EXPECT_TRUE(check(cluster.memory(1), dst, kSize, 77));
  // Both rails carried a nontrivial share.
  const auto& n0 = cluster.network().nic(0, 0).stats();
  const auto& n1 = cluster.network().nic(0, 1).stats();
  EXPECT_GT(n0.tx_frames, 50u);
  EXPECT_GT(n1.tx_frames, 50u);
}

INSTANTIATE_TEST_SUITE_P(Policies, StripingPolicyTest,
                         ::testing::Values(proto::StripingPolicy::kRoundRobin,
                                           proto::StripingPolicy::kRandom,
                                           proto::StripingPolicy::kShortestQueue),
                         [](const auto& info) {
                           switch (info.param) {
                             case proto::StripingPolicy::kRoundRobin:
                               return "RoundRobin";
                             case proto::StripingPolicy::kRandom:
                               return "Random";
                             default:
                               return "ShortestQueue";
                           }
                         });

TEST(Engine, BacklogDrainsWhenNicRingIsTiny) {
  ClusterConfig cfg = config_1l_1g(2);
  cfg.topology.nic.tx_ring_slots = 4;  // extreme ring pressure
  CheckedCluster cluster(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  fill(cluster.memory(0), src, kSize, 3);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  EXPECT_TRUE(check(cluster.memory(1), dst, kSize, 3));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    ClusterConfig cfg = config_2lu_1g(2);
    cfg.topology.link.drop_prob = 0.01;
    CheckedCluster cluster(cfg);
    const std::uint64_t src = cluster.memory(0).alloc(1 << 18);
    const std::uint64_t dst = cluster.memory(1).alloc(1 << 18);
    cluster.spawn(0, "w", [&](Endpoint& ep) {
      ep.connect(1).rdma_write(dst, src, 1 << 18, kOpFlagNotify).wait();
    });
    cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
    cluster.run();
    stats::Counters agg = cluster.engine(0).aggregate_counters();
    agg.merge(cluster.engine(1).aggregate_counters());
    return std::make_pair(cluster.sim().now(), agg.get("retransmissions"));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first) << "simulation is not deterministic";
  EXPECT_EQ(a.second, b.second);
}

TEST(Engine, AggregateCountersIncludeConnections) {
  CheckedCluster cluster(config_1l_1g(2));
  const std::uint64_t src = cluster.memory(0).alloc(4096);
  const std::uint64_t dst = cluster.memory(1).alloc(4096);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, 4096).wait();
  });
  cluster.run();
  const auto agg = cluster.engine(0).aggregate_counters();
  EXPECT_EQ(agg.get("ops_submitted"), 1u);
  EXPECT_EQ(agg.get("ops_completed"), 1u);
  EXPECT_GE(agg.get("data_frames_sent"), 3u);  // 4096 / 1428 -> 3 frames
  EXPECT_GT(agg.get("thread_wakeups"), 0u);
  EXPECT_GT(agg.get("interrupts"), 0u);
}

// Node ids travel in 16-bit wire fields, so a larger cluster is refused
// before anything is built.
TEST(ClusterSize, RejectsMoreNodesThanTheWireCarries) {
  EXPECT_THROW({ Cluster cluster(config_1l_1g(Cluster::kMaxNodes + 1)); },
               std::invalid_argument);
}

// Heap held by one end of an idle established connection: the window-sized
// seq rings (the unacked ring, retransmit dedupe, gaps, and the one receive
// ring the delivery mode reads), three deques and three timers. At the
// default 64-frame window, 15,390 bytes in in-order mode and 7,642 out of
// order (glibc 2.36, x86-64); sizing both receive rings cost 15,918 and
// 15,854 (DESIGN.md §11 "Connection heap").
std::size_t heap_per_idle_connection(ClusterConfig cfg) {
  constexpr int kConnects = 64;
  Cluster cluster(std::move(cfg));
  std::size_t grown = 0;
  cluster.spawn(0, "c", [&](Endpoint& ep) {
    ep.connect(1);  // first-use growth of the engines' own tables
    const auto heap = [] {
      const struct mallinfo2 mi = mallinfo2();
      return mi.uordblks + mi.hblkhd;
    };
    const std::size_t before = heap();
    for (int i = 0; i < kConnects; ++i) ep.connect(1);
    grown = heap() - before;
  });
  cluster.run();
  return grown / (2 * kConnects);
}

TEST(ConnectionHeap, IdleConnectionHoldsOnlyItsModesReceiveRing) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator does not report through mallinfo2";
#endif
  EXPECT_LT(heap_per_idle_connection(config_1l_1g(2)), 15872u);
  EXPECT_LT(heap_per_idle_connection(config_2lu_1g(2)), 8192u);
}

}  // namespace
}  // namespace multiedge
