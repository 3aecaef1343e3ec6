// src/member tests: SWIM convergence (single-node crash detected by every
// survivor within the configured bound at 16/64/128 nodes, flat and
// hierarchical topologies), robustness (zero false positives over a long
// idle run under Gilbert-Elliott burst loss and delay jitter), the
// suspicion -> refutation path across a transient isolation, passive probe
// suppression under application traffic, the legacy mesh baseline, and the
// membership-aware fail-fast collective barrier — all with the protocol
// invariant checker armed.
#include <gtest/gtest.h>

#include <vector>

#include "coll/coll.hpp"
#include "core/api.hpp"
#include "member/member.hpp"
#include "sim/process.hpp"

namespace multiedge {
namespace {

struct CheckedCluster : Cluster {
  explicit CheckedCluster(ClusterConfig cfg) : Cluster(arm(std::move(cfg))) {}
  ~CheckedCluster() {
    EXPECT_TRUE(invariant_violations().empty())
        << invariant_violations().front();
    EXPECT_GT(invariant_checks_run(), 0u);
  }
  static ClusterConfig arm(ClusterConfig cfg) {
    cfg.protocol.check_invariants = true;
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// detection_bound shape
// ---------------------------------------------------------------------------

TEST(MemberBound, GrowsLogarithmicallyWithClusterSize) {
  member::MemberConfig m;
  const sim::Time b16 = member::detection_bound(m, 16);
  const sim::Time b64 = member::detection_bound(m, 64);
  const sim::Time b128 = member::detection_bound(m, 128);
  EXPECT_GT(b16, 0);
  EXPECT_LE(b16, b64);
  EXPECT_LE(b64, b128);
  // O(log n), not O(n): going 16 -> 128 (8x nodes) must not 8x the bound.
  EXPECT_LT(b128, 3 * b16);
}

// ---------------------------------------------------------------------------
// Crash convergence at 16 / 64 / 128 nodes
// ---------------------------------------------------------------------------

struct CrashOutcome {
  bool converged = false;        // every survivor marked the victim Dead
  sim::Time latency = 0;         // crash -> last survivor's down-mark
  int false_positives = 0;       // survivor-pair down-marks (must be 0)
  int marked = 0;                // survivors that marked the victim Dead
  std::uint64_t probe_msgs = 0;  // aggregate dedicated probe messages
  std::string debug;
};

// One node loses every rail at `crash_at` and stays dark. A supervisor
// fiber polls until all survivors' views agree, bounded by the service's
// own advertised detection_bound().
CrashOutcome run_crash(ClusterConfig ccfg, member::MemberConfig mcfg,
                       sim::Time crash_at) {
  const int nodes = ccfg.topology.num_nodes;
  const int victim = nodes / 2;
  for (int r = 0; r < ccfg.topology.rails; ++r) {
    ccfg.topology.rail_outages.push_back(
        {/*rail=*/r, /*node=*/victim, crash_at, sim::sec(100)});
  }
  CheckedCluster cluster(std::move(ccfg));
  member::Service svc(cluster, mcfg);
  const sim::Time bound = svc.detection_bound();

  CrashOutcome out;
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    const sim::Time deadline = crash_at + bound;
    for (;;) {
      bool all = true;
      for (int n = 0; n < nodes && all; ++n) {
        if (n != victim && !svc.view(n).is_down(victim)) all = false;
      }
      if (all) {
        out.converged = true;
        out.latency = cluster.sim().now() - crash_at;
        break;
      }
      if (cluster.sim().now() > deadline) break;
      sim::Process::current()->delay(sim::us(50));
    }
    svc.stop();
  });
  cluster.run();

  for (int n = 0; n < nodes; ++n) {
    if (n == victim) continue;
    if (svc.view(n).is_down(victim)) ++out.marked;
    for (int p = 0; p < nodes; ++p) {
      if (p != victim && svc.view(n).is_down(p)) ++out.false_positives;
    }
  }
  const stats::Counters agg = svc.aggregate_counters();
  out.probe_msgs = agg.get("member_probe_msgs");
  for (const char* k :
       {"member_pings_sent", "member_acks_sent", "member_msgs_rx",
        "member_msgs_unroutable", "member_ping_reqs_sent", "member_suspects",
        "member_dead_marks", "member_probes_suppressed"}) {
    out.debug += std::string(k) + "=" + std::to_string(agg.get(k)) + " ";
  }
  return out;
}

TEST(MemberConvergence, CrashDetected16FlatSwitch) {
  ClusterConfig cfg = config_1l_1g(16);
  const CrashOutcome out = run_crash(std::move(cfg), {}, sim::ms(2));
  EXPECT_TRUE(out.converged) << "survivors never agreed within the bound";
  EXPECT_GT(out.latency, 0);
  EXPECT_EQ(out.false_positives, 0);
}

TEST(MemberConvergence, CrashDetected64TwoLevelTree) {
  ClusterConfig cfg = config_1l_1g(64);
  cfg.memory_bytes_per_node = std::size_t{2} << 20;
  cfg.topology.edge_groups = 4;  // 64 nodes behind 4 edge switches + 1 core
  const CrashOutcome out = run_crash(std::move(cfg), {}, sim::ms(2));
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.false_positives, 0);
}

TEST(MemberConvergence, CrashDetected128FatTree) {
  ClusterConfig cfg = config_1l_1g(128);
  cfg.memory_bytes_per_node = std::size_t{2} << 20;
  cfg.topology.edge_groups = 8;  // fat-tree pod: 8 edges x 2 spines
  cfg.topology.spines = 2;
  const CrashOutcome out = run_crash(std::move(cfg), {}, sim::ms(2));
  EXPECT_TRUE(out.converged) << "only " << out.marked << "/127 survivors saw it; "
                             << out.debug;
  EXPECT_EQ(out.false_positives, 0);
}

TEST(MemberConvergence, MeshBaselineDetectsCrash) {
  ClusterConfig cfg = config_1l_1g(8);
  member::MemberConfig m;
  m.mesh = true;
  // Crash after the all-pairs handshake warm-up so the mesh's counters flow.
  const CrashOutcome out = run_crash(std::move(cfg), m, sim::ms(4));
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.false_positives, 0);
}

// The asymptotic point of SWIM: per-node probe traffic is O(1) per period,
// where the mesh pays O(n). Same cluster, same wall of simulated time —
// the mesh must send many times more probe messages.
TEST(MemberConvergence, SwimSendsFewerProbesThanMesh) {
  auto probes = [](bool mesh) {
    ClusterConfig cfg = config_1l_1g(16);
    CheckedCluster cluster(std::move(cfg));
    member::MemberConfig m;
    m.mesh = mesh;
    member::Service svc(cluster, m);
    cluster.spawn(0, "supervisor", [&](Endpoint&) {
      sim::Process::current()->delay(sim::ms(10));
      svc.stop();
    });
    cluster.run();
    return svc.aggregate_counters().get("member_probe_msgs");
  };
  const std::uint64_t swim = probes(false);
  const std::uint64_t mesh = probes(true);
  EXPECT_GT(swim, 0u);
  EXPECT_GT(mesh, 4 * swim)
      << "mesh=" << mesh << " swim=" << swim
      << " — SWIM's probe volume should be far below the all-pairs mesh";
}

// ---------------------------------------------------------------------------
// Robustness: no false positives under burst loss + jitter
// ---------------------------------------------------------------------------

TEST(MemberRobustness, NoFalsePositivesUnderBurstLossAndJitter) {
  ClusterConfig cfg = config_1l_1g(16);
  cfg.topology.link.jitter_max = sim::us(100);  // reorders back-to-back frames
  cfg.topology.link.burst.enabled = true;
  cfg.topology.link.burst.p_good_to_bad = 0.02;
  cfg.topology.link.burst.p_bad_to_good = 0.2;
  cfg.topology.link.burst.drop_bad = 0.5;
  CheckedCluster cluster(std::move(cfg));

  member::MemberConfig m;
  // A dropped ping is only retransmitted by the reliability layer after its
  // 5ms retransmit timeout; the suspicion maturity must dominate that (plus
  // a burst's worth of repeats) or loss alone reads as death.
  m.suspect_timeout = sim::ms(15);
  member::Service svc(cluster, m);
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    sim::Process::current()->delay(sim::ms(120));
    svc.stop();
  });
  cluster.run();

  const stats::Counters agg = svc.aggregate_counters();
  EXPECT_GT(agg.get("member_pings_sent"), 0u) << "the detector never ran";
  EXPECT_EQ(agg.get("member_dead_marks"), 0u);
  EXPECT_EQ(agg.get("member_self_declared_dead"), 0u);
  for (int n = 0; n < 16; ++n) {
    EXPECT_EQ(svc.view(n).num_down(), 0) << "node " << n;
    for (int p = 0; p < 16; ++p) {
      EXPECT_FALSE(svc.view(n).is_down(p)) << n << " -> " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Suspicion -> refutation across a transient isolation
// ---------------------------------------------------------------------------

TEST(MemberRobustness, TransientIsolationSuspectsThenRefutes) {
  ClusterConfig cfg = config_1l_1g(8);
  const int victim = 3;
  // 4ms of total silence: long enough that every prober gives up on both
  // the direct ping AND the indirect ping-req fan-out, far shorter than the
  // suspicion maturity.
  cfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/victim, sim::ms(2), sim::ms(6)});
  CheckedCluster cluster(std::move(cfg));

  member::MemberConfig m;
  m.suspect_timeout = sim::ms(25);
  member::Service svc(cluster, m);

  int suspect_events = 0;
  svc.add_on_transition(
      [&](int, int peer, member::PeerState st, sim::Time) {
        if (peer == victim && st == member::PeerState::kSuspect) {
          ++suspect_events;
        }
      });
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    sim::Process::current()->delay(sim::ms(40));
    svc.stop();
  });
  cluster.run();

  const stats::Counters agg = svc.aggregate_counters();
  EXPECT_GT(suspect_events, 0) << "nobody ever suspected the isolated node";
  EXPECT_GT(agg.get("member_ping_reqs_sent"), 0u)
      << "the indirect probe path was never exercised";
  EXPECT_EQ(agg.get("member_dead_marks"), 0u)
      << "a refutable suspicion must not mature across a short outage";
  EXPECT_GT(agg.get("member_refutes") + agg.get("member_suspicions_cleared"),
            0u);
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(svc.view(n).num_down(), 0) << "node " << n;
    EXPECT_EQ(svc.view(n).state(victim), member::PeerState::kAlive)
        << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// Passive liveness: probes suppressed while application traffic flows
// ---------------------------------------------------------------------------

TEST(MemberPassive, ProbesSuppressedUnderApplicationTraffic) {
  ClusterConfig cfg = config_1l_1g(4);
  CheckedCluster cluster(std::move(cfg));
  member::Service svc(cluster, {});

  // Symmetric scratch: same alloc on every node, after the service's own.
  std::uint64_t va = 0;
  for (int i = 0; i < 4; ++i) va = cluster.memory(i).alloc(4096);

  for (int node = 0; node < 4; ++node) {
    cluster.spawn(node, "traffic-" + std::to_string(node),
                  [&, node](Endpoint& ep) {
                    std::vector<Connection> conns;
                    for (int p = 0; p < 4; ++p) {
                      if (p != node) conns.push_back(ep.connect(p));
                    }
                    for (int round = 0; round < 100; ++round) {
                      for (auto& c : conns) c.rdma_write(va, va, 256);
                      sim::Process::current()->delay(sim::us(200));
                    }
                  });
  }
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    sim::Process::current()->delay(sim::ms(22));
    svc.stop();
  });
  cluster.run();

  const stats::Counters agg = svc.aggregate_counters();
  EXPECT_GT(agg.get("member_probes_suppressed"), 0u);
  // With every pair exchanging frames every 200us (well inside the
  // kSuppressWindow), the detector rides the application's traffic: probe
  // rounds overwhelmingly resolve without a dedicated ping.
  EXPECT_GT(agg.get("member_probes_suppressed"), agg.get("member_pings_sent"));
  EXPECT_EQ(agg.get("member_dead_marks"), 0u);
}

// ---------------------------------------------------------------------------
// Membership-aware collectives: barrier fails fast instead of hanging
// ---------------------------------------------------------------------------

TEST(MemberColl, BarrierFailsFastOnPeerCrash) {
  ClusterConfig cfg = config_1l_1g(4);
  const int victim = 3;
  cfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/victim, sim::ms(3), sim::sec(100)});
  CheckedCluster cluster(std::move(cfg));

  member::MemberConfig m;
  m.suspect_timeout = sim::ms(2);
  member::Service svc(cluster, m);
  coll::CollDomain dom(cluster, {});

  int failures = 0;
  int done = 0;
  for (int node = 0; node < 4; ++node) {
    cluster.spawn(node, "bar-" + std::to_string(node), [&, node](Endpoint& ep) {
      coll::Communicator comm(dom, ep);
      comm.set_membership(&svc.view(node));
      try {
        for (int round = 0; round < 1'000'000; ++round) comm.barrier();
        ADD_FAILURE() << "rank " << node << " never observed the crash";
      } catch (const coll::PeerFailure& f) {
        ++failures;
        if (node != victim) {
          // Survivors must blame the actual victim. (The victim itself is
          // isolated and legitimately blames whichever peer its own view
          // gave up on first.)
          EXPECT_EQ(f.peer, victim) << "rank " << node;
        }
      }
      if (++done == 4) svc.stop();
    });
  }
  cluster.run();

  EXPECT_EQ(failures, 4) << "every rank must abort the doomed barrier";
  EXPECT_GT(svc.aggregate_counters().get("member_dead_marks"), 0u);
}

}  // namespace
}  // namespace multiedge
