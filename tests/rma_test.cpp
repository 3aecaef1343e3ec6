// src/rma tests: epoch misuse errors, notify matching by source/address,
// read-only notify peeks, batched-epoch doorbell
// publication, exactly-once notification delivery under Gilbert-Elliott
// burst loss plus a transient rail outage (invariant checker armed), and the
// differential proofs that a Window is wire- and time-identical to the
// hand-rolled idioms it replaced: the coll put+signal profile (urgent fenced
// notify) and the DSM write-notice profile (non-urgent notify, per-call
// fence), plus the KV replication-ack bookkeeping identities the bespoke ack
// path used to guarantee. Channel tests: ring placement (slot-modulo, wrap,
// independent cursors) and one differential per mailbox moved onto a
// Channel (DSM, membership, KV RPCs) against a copy of its old layout.
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "kv/kv.hpp"
#include "resident.hpp"
#include "rma/channel.hpp"
#include "rma/rma.hpp"
#include "sim/process.hpp"
#include "stats/counters.hpp"

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
// Epoch rules: misuse throws, ranges are checked
// ---------------------------------------------------------------------------

TEST(RmaEpochTest, MisuseThrows) {
  CheckedCluster cluster(config_1l_1g(2));
  const std::uint64_t dst = cluster.memory(1).alloc(256);
  const std::uint64_t src = cluster.memory(0).alloc(256);

  cluster.spawn(0, "epochs", [&](Endpoint& ep) {
    rma::Window win(ep, {.base = dst, .bytes = 256, .tag = 4});
    // put/close before any epoch opened.
    EXPECT_THROW(win.put(1, dst, src, 64), std::logic_error);
    EXPECT_THROW(win.close(), std::logic_error);

    win.open();
    EXPECT_THROW(win.open(), std::logic_error);  // double open
    // Range checks (window is [dst, dst+256)).
    EXPECT_THROW(win.put(1, dst + 224, src, 64), std::logic_error);
    win.put(1, dst, src, 64);  // in-range access is fine
    win.flush();
    win.close();
    EXPECT_THROW(win.close(), std::logic_error);      // double close
    EXPECT_THROW(win.put(1, dst, src, 64), std::logic_error);  // epoch over

    // A notified access works outside any epoch — it carries its own sync.
    win.put_notify(1, dst, src, 8).wait();
    EXPECT_EQ(win.counters().get("rma_epochs"), 1u);
    EXPECT_EQ(win.counters().get("rma_puts"), 1u);
    EXPECT_EQ(win.counters().get("rma_notifies_sent"), 1u);
  });
  cluster.run();
}

// ---------------------------------------------------------------------------
// Notify matching: source and address filters
// ---------------------------------------------------------------------------

TEST(RmaNotifyTest, MatchesBySourceAndAddress) {
  CheckedCluster cluster(config_1l_1g(3));
  const std::uint64_t dst = cluster.memory(0).alloc(64);
  const std::uint64_t src1 = cluster.memory(1).alloc(8);
  const std::uint64_t src2 = cluster.memory(2).alloc(8);
  *cluster.memory(1).as<std::uint64_t>(src1) = 0x111;
  *cluster.memory(2).as<std::uint64_t>(src2) = 0x222;

  kv::HostBarrier sent;
  cluster.spawn(1, "src1", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    win.put_notify(0, dst, src1, 8).wait();
    sent.arrive_and_wait(3);
  });
  cluster.spawn(2, "src2", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    win.put_notify(0, dst + 8, src2, 8).wait();
    sent.arrive_and_wait(3);
  });
  cluster.spawn(0, "sink", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    rma::NotifyEvent ev;
    EXPECT_FALSE(win.test_notify(&ev));  // nothing sent yet
    sent.arrive_and_wait(3);             // both puts acked -> both delivered
    // Match node 2 first even though node 1's access may be queued ahead.
    ev = win.wait_notify(/*src=*/2);
    EXPECT_EQ(ev.src, 2);
    EXPECT_EQ(ev.va, dst + 8);
    EXPECT_EQ(ev.bytes, 8u);
    EXPECT_EQ(*ep.memory().as<std::uint64_t>(ev.va), 0x222u);
    // The stashed mismatch is still matchable by address.
    EXPECT_TRUE(win.test_notify(&ev, rma::kAnySrc, dst));
    EXPECT_EQ(ev.src, 1);
    EXPECT_EQ(*ep.memory().as<std::uint64_t>(ev.va), 0x111u);
    EXPECT_FALSE(win.test_notify(&ev));  // drained
    EXPECT_EQ(win.counters().get("rma_notifies_matched"), 2u);
  });
  cluster.run();
}

TEST(RmaNotifyTest, PendingPeekAgreesWithTestAndConsumesNothing) {
  CheckedCluster cluster(config_1l_1g(3));
  const std::uint64_t dst = cluster.memory(0).alloc(64);
  const std::uint64_t src1 = cluster.memory(1).alloc(8);
  const std::uint64_t src2 = cluster.memory(2).alloc(8);

  // Node 1's access is delivered strictly before node 2's.
  kv::HostBarrier first, sent;
  cluster.spawn(1, "src1", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    win.put_notify(0, dst, src1, 8).wait();
    first.arrive_and_wait(2);
    sent.arrive_and_wait(3);
  });
  cluster.spawn(2, "src2", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    first.arrive_and_wait(2);
    win.put_notify(0, dst + 8, src2, 8).wait();
    sent.arrive_and_wait(3);
  });
  cluster.spawn(0, "sink", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 9});
    stats::Counters ctrs;
    const stats::CounterId matched =
        stats::CounterRegistry::intern("test_nq_matched");
    const stats::CounterId queued =
        stats::CounterRegistry::intern("test_nq_queued");
    rma::NotifyQueue nq(ep, 9, ctrs, matched, queued);
    EXPECT_FALSE(win.notify_pending());
    EXPECT_FALSE(nq.pending());
    sent.arrive_and_wait(3);  // both puts acked -> both delivered

    // Peeks see both queued accesses, by any/exact source and address, and
    // consume nothing: repeating them changes no answer and no counter.
    for (int round = 0; round < 2; ++round) {
      EXPECT_TRUE(win.notify_pending());
      EXPECT_TRUE(win.notify_pending(2));
      EXPECT_TRUE(win.notify_pending(rma::kAnySrc, dst));
      EXPECT_FALSE(win.notify_pending(1, dst + 8));
      EXPECT_TRUE(nq.pending(1, dst));
    }
    EXPECT_EQ(win.counters().get("rma_notifies_matched"), 0u);
    EXPECT_EQ(ctrs.get(matched), 0u);

    // A blocking wait for node 2 stashes node 1's access in `nq`; the peek
    // finds stashed accesses too and still leaves stash and counters alone.
    EXPECT_EQ(nq.wait(2).src, 2);
    ASSERT_EQ(nq.stashed(), 1u);
    const std::uint64_t matched_before = ctrs.get(matched);
    EXPECT_TRUE(nq.pending(1, dst));
    EXPECT_FALSE(nq.pending(2));
    EXPECT_EQ(nq.stashed(), 1u);
    EXPECT_EQ(ctrs.get(matched), matched_before);

    // Each peek agrees with the test() that follows it.
    rma::NotifyEvent ev;
    const std::pair<int, std::uint64_t> probes[] = {
        {2, rma::kAnyVa}, {1, dst + 8}, {1, dst}, {rma::kAnySrc, rma::kAnyVa}};
    for (const auto& [src, va] : probes) {
      const bool peek = nq.pending(src, va);
      EXPECT_EQ(peek, nq.test(&ev, src, va)) << src << " " << va;
    }
    EXPECT_EQ(nq.stashed(), 0u);
    EXPECT_FALSE(win.notify_pending());
  });
  cluster.run();
}

// ---------------------------------------------------------------------------
// Batched epochs: one doorbell publishes the whole epoch
// ---------------------------------------------------------------------------

TEST(RmaEpochTest, BatchedEpochPublishesThroughOneDoorbell) {
  ClusterConfig ccfg = config_1l_1g(2);
  ccfg.protocol.batch_submission = true;
  CheckedCluster cluster(std::move(ccfg));
  constexpr int kWords = 8;
  const std::uint64_t dst = cluster.memory(0).alloc(64 + 8);
  const std::uint64_t src = cluster.memory(1).alloc(64 + 8);
  for (int i = 0; i < kWords; ++i) {
    *cluster.memory(1).as<std::uint64_t>(src + 8 * i) = 100 + i;
  }
  *cluster.memory(1).as<std::uint64_t>(src + 64) = 1;  // the signal token

  cluster.spawn(1, "producer", [&](Endpoint& ep) {
    rma::Window win(ep, {.base = dst, .bytes = 72, .tag = 6, .batched = true});
    win.open();
    for (int i = 0; i < kWords; ++i) {
      win.put(0, dst + 8 * i, src + 8 * i, 8);  // parked in the ring
    }
    // The fenced notify publishes the epoch's puts; close() rings the
    // doorbell that releases everything in one kernel entry.
    win.put_notify(0, dst + 64, src + 64, 8);
    win.close();
    win.flush();
    EXPECT_EQ(win.counters().get("rma_puts"),
              static_cast<std::uint64_t>(kWords));
    EXPECT_EQ(win.counters().get("rma_flushes"), 1u);
  });
  cluster.spawn(0, "consumer", [&](Endpoint& ep) {
    rma::Window win(ep, {.base = dst, .bytes = 72, .tag = 6, .batched = true});
    const rma::NotifyEvent ev = win.wait_notify(/*src=*/1, dst + 64);
    EXPECT_EQ(ev.bytes, 8u);
    // The notify is backward-fenced: every parked put is already applied.
    for (int i = 0; i < kWords; ++i) {
      EXPECT_EQ(*ep.memory().as<std::uint64_t>(dst + 8 * i),
                static_cast<std::uint64_t>(100 + i));
    }
  });
  cluster.run();
}

// ---------------------------------------------------------------------------
// Exactly-once under burst loss + a rail outage
// ---------------------------------------------------------------------------

// Three producers stream notified puts at a sink through Gilbert-Elliott
// burst loss while one producer's rail drops off the fabric mid-run. The
// transport retransmits (asserted below), but the notification layer must
// deliver exactly one NotifyEvent per put: per-source counts match, no op id
// is ever matched twice, and the queue drains empty.
TEST(RmaNotifyTest, ExactlyOnceUnderBurstLossAndRailOutage) {
  constexpr int kN = 4;
  constexpr int kPerSrc = 40;
  ClusterConfig ccfg = config_2l_1g(kN);
  ccfg.topology.link.burst.enabled = true;
  ccfg.topology.link.burst.p_good_to_bad = 0.02;
  ccfg.topology.link.burst.p_bad_to_good = 0.2;
  ccfg.topology.link.burst.drop_bad = 0.5;
  // Node 1 additionally loses rail 0 for 3ms mid-stream.
  ccfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/1, /*start=*/sim::ms(3), /*end=*/sim::ms(6)});
  CheckedCluster cluster(std::move(ccfg));

  const std::uint64_t dst = cluster.memory(0).alloc(8 * kN);
  std::vector<std::uint64_t> srcs(kN);
  for (int n = 1; n < kN; ++n) srcs[n] = cluster.memory(n).alloc(8);

  for (int n = 1; n < kN; ++n) {
    cluster.spawn(n, "prod" + std::to_string(n), [&, n](Endpoint& ep) {
      rma::Window win(ep, {.tag = 12});
      for (int i = 0; i < kPerSrc; ++i) {
        *ep.memory().as<std::uint64_t>(srcs[n]) = i + 1;
        win.put_notify(0, dst + 8 * n, srcs[n], 8).wait();
        // Pace the stream across the outage window.
        sim::Process::current()->delay(sim::us(150));
      }
    });
  }
  cluster.spawn(0, "sink", [&](Endpoint& ep) {
    rma::Window win(ep, {.tag = 12});
    std::map<int, int> per_src;
    std::set<std::pair<int, std::uint64_t>> ids;
    for (int i = 0; i < (kN - 1) * kPerSrc; ++i) {
      const rma::NotifyEvent ev = win.wait_notify();
      ++per_src[ev.src];
      EXPECT_TRUE(ids.insert({ev.src, ev.op_id}).second)
          << "op " << ev.op_id << " from node " << ev.src << " notified twice";
    }
    for (int n = 1; n < kN; ++n) EXPECT_EQ(per_src[n], kPerSrc);
    rma::NotifyEvent ev;
    EXPECT_FALSE(win.test_notify(&ev));  // nothing left over
    EXPECT_EQ(win.counters().get("rma_notifies_matched"),
              static_cast<std::uint64_t>((kN - 1) * kPerSrc));
  });
  cluster.run();

  stats::Counters all;
  for (int n = 0; n < kN; ++n) all.merge(cluster.engine(n).aggregate_counters());
  // The fault model really fired: losses forced retransmissions, yet every
  // notification above was still delivered exactly once.
  EXPECT_GT(all.get("retransmissions"), 0u);
}

// ---------------------------------------------------------------------------
// Differential: a Window is wire-identical to the idioms it replaced
// ---------------------------------------------------------------------------

using CounterMaps = std::vector<std::map<std::string, std::uint64_t>>;

struct RunResult {
  CounterMaps counters;  // per-node protocol-engine counters
  sim::Time end_time = 0;
};

void expect_identical(const RunResult& raw, const RunResult& win) {
  ASSERT_EQ(raw.counters.size(), win.counters.size());
  for (std::size_t n = 0; n < raw.counters.size(); ++n) {
    const auto& a = raw.counters[n];
    const auto& b = win.counters[n];
    for (const auto& [name, value] : a) {
      const auto it = b.find(name);
      EXPECT_TRUE(it != b.end() && it->second == value)
          << "node " << n << " counter " << name << ": hand-rolled " << value
          << ", rebased " << (it == b.end() ? 0 : it->second);
    }
    EXPECT_EQ(a.size(), b.size()) << "node " << n << " counter sets differ";
  }
  EXPECT_EQ(raw.end_time, win.end_time)
      << "the rebased run took a different amount of simulated time";
}

RunResult harvest(Cluster& cluster, int nodes) {
  RunResult r;
  for (int n = 0; n < nodes; ++n) {
    std::map<std::string, std::uint64_t> m;
    for (const auto& [name, value] :
         cluster.engine(n).aggregate_counters().all()) {
      m.emplace(name, value);
    }
    r.counters.push_back(std::move(m));
  }
  r.end_time = cluster.sim().now();
  return r;
}

// The collectives' put+signal pair before the rebase: un-awaited plain
// writes, then an 8-byte generation token as an urgent backward-fenced
// notified write; the consumer waits on the signal tag and trusts the fence
// to have published the data. Both runs push the same traffic; every
// per-node engine counter — frames, acks, interrupts, fences, syscalls —
// and the final simulated clock must match exactly.
TEST(RmaDifferentialTest, CollSignalProfileIsWireIdentical) {
  constexpr int kTag = 3;
  constexpr int kRounds = 24;
  constexpr std::uint32_t kChunk = 256;

  auto layout = [&](Cluster& cluster, std::uint64_t* data_dst,
                    std::uint64_t* flag_dst, std::uint64_t* data_src,
                    std::uint64_t* tok_src) {
    *data_dst = cluster.memory(0).alloc(kChunk + 8);
    *flag_dst = *data_dst + kChunk;
    *data_src = cluster.memory(1).alloc(kChunk + 8);
    *tok_src = *data_src + kChunk;
  };

  RunResult raw;
  {
    CheckedCluster cluster(config_1l_1g(2));
    std::uint64_t data_dst, flag_dst, data_src, tok_src;
    layout(cluster, &data_dst, &flag_dst, &data_src, &tok_src);
    cluster.spawn(1, "producer", [&](Endpoint& ep) {
      auto conn = ep.connect(0);
      for (int k = 1; k <= kRounds; ++k) {
        *ep.memory().as<std::uint64_t>(data_src) = k;
        conn.rdma_write(data_dst, data_src, kChunk, kOpFlagNone);
        *ep.memory().as<std::uint64_t>(tok_src) = k;
        conn.rdma_write(flag_dst, tok_src, 8,
                        kOpFlagNotify | kOpFlagUrgent | kOpFlagBackwardFence |
                            op_tag_flags(kTag));
      }
    });
    cluster.spawn(0, "consumer", [&](Endpoint& ep) {
      for (int k = 1; k <= kRounds; ++k) {
        const Notification n = ep.wait_notification(kTag);
        ASSERT_EQ(n.va, flag_dst);
        // Publication lower bound: the fence guarantees at least the data
        // write covered by this signal has been applied (the un-awaited
        // producer may already have landed later rounds).
        EXPECT_GE(*ep.memory().as<std::uint64_t>(data_dst),
                  *ep.memory().as<std::uint64_t>(flag_dst));
      }
    });
    cluster.run();
    raw = harvest(cluster, 2);
  }

  RunResult win;
  {
    CheckedCluster cluster(config_1l_1g(2));
    std::uint64_t data_dst, flag_dst, data_src, tok_src;
    layout(cluster, &data_dst, &flag_dst, &data_src, &tok_src);
    cluster.spawn(1, "producer", [&](Endpoint& ep) {
      rma::Window w(ep, {.tag = kTag});  // urgent + fenced defaults
      for (int k = 1; k <= kRounds; ++k) {
        *ep.memory().as<std::uint64_t>(data_src) = k;
        w.open();
        w.put(0, data_dst, data_src, kChunk);
        w.close();
        *ep.memory().as<std::uint64_t>(tok_src) = k;
        w.put_notify(0, flag_dst, tok_src, 8);
      }
      EXPECT_EQ(w.counters().get("rma_notifies_sent"),
                static_cast<std::uint64_t>(kRounds));
    });
    cluster.spawn(0, "consumer", [&](Endpoint& ep) {
      rma::Window w(ep, {.tag = kTag});
      for (int k = 1; k <= kRounds; ++k) {
        const rma::NotifyEvent ev = w.wait_notify(/*src=*/1, flag_dst);
        EXPECT_GE(*ep.memory().as<std::uint64_t>(data_dst),
                  *ep.memory().as<std::uint64_t>(ev.va));
      }
    });
    cluster.run();
    win = harvest(cluster, 2);
  }
  expect_identical(raw, win);
}

// The DSM's mailbox write-notice before the rebase: non-urgent tag-0
// notified writes, the last one in a release batch backward-fenced behind
// the diffs it covers. Same exact-equality bar as above.
TEST(RmaDifferentialTest, DsmNoticeProfileIsWireIdentical) {
  constexpr int kMsgs = 16;
  constexpr std::uint32_t kMsgBytes = 48;

  auto layout = [&](Cluster& cluster, std::uint64_t* ring,
                    std::uint64_t* src) {
    *ring = cluster.memory(0).alloc(kMsgBytes * (kMsgs + 1));
    *src = cluster.memory(1).alloc(kMsgBytes);
  };

  RunResult raw;
  {
    CheckedCluster cluster(config_1l_1g(2));
    std::uint64_t ring, src;
    layout(cluster, &ring, &src);
    cluster.spawn(1, "releaser", [&](Endpoint& ep) {
      auto conn = ep.connect(0);
      for (int i = 0; i < kMsgs; ++i) {
        *ep.memory().as<std::uint64_t>(src) = i + 1;
        conn.rdma_write(ring + kMsgBytes * i, src, kMsgBytes,
                        kOpFlagNotify | op_tag_flags(0));
      }
      // The release notice rides a backward fence behind the batch.
      conn.rdma_write(ring + kMsgBytes * kMsgs, src, kMsgBytes,
                      kOpFlagNotify | kOpFlagBackwardFence | op_tag_flags(0));
    });
    cluster.spawn(0, "service", [&](Endpoint& ep) {
      for (int i = 0; i <= kMsgs; ++i) {
        const Notification n = ep.wait_notification(0);
        EXPECT_EQ(n.va, ring + kMsgBytes * i);
      }
    });
    cluster.run();
    raw = harvest(cluster, 2);
  }

  RunResult win;
  {
    CheckedCluster cluster(config_1l_1g(2));
    std::uint64_t ring, src;
    layout(cluster, &ring, &src);
    cluster.spawn(1, "releaser", [&](Endpoint& ep) {
      rma::Window w(ep, {.tag = 0, .urgent = false, .fenced = false});
      for (int i = 0; i < kMsgs; ++i) {
        *ep.memory().as<std::uint64_t>(src) = i + 1;
        w.put_notify(0, ring + kMsgBytes * i, src, kMsgBytes);
      }
      w.put_notify(0, ring + kMsgBytes * kMsgs, src, kMsgBytes,
                   /*fenced=*/true);
    });
    cluster.spawn(0, "service", [&](Endpoint& ep) {
      rma::Window w(ep, {.tag = 0, .urgent = false, .fenced = false});
      for (int i = 0; i <= kMsgs; ++i) {
        const rma::NotifyEvent ev = w.wait_notify();
        EXPECT_EQ(ev.va, ring + kMsgBytes * i);
      }
    });
    cluster.run();
    win = harvest(cluster, 2);
  }
  expect_identical(raw, win);
}

// The KV replication-ack path deliberately changed wire shape in the rebase
// (acks now carry a notification on ack_tag), so its differential is
// semantic: the bookkeeping identities the bespoke ack loop guaranteed must
// still hold exactly — every replication sent is acked by value, nothing is
// abandoned or duplicated on a healthy fabric, and cross-node reads observe
// every replicated put.
TEST(RmaDifferentialTest, KvReplicationAckBookkeepingHolds) {
  constexpr int kN = 3;
  constexpr int kKeys = 30;
  CheckedCluster cluster(config_2l_1g(kN));
  kv::KvConfig cfg;
  cfg.clients_per_node = 1;
  cfg.replication = 2;
  kv::System sys(cluster, cfg);

  kv::HostBarrier barrier;
  for (int node = 0; node < kN; ++node) {
    sys.spawn_client(node, "cli", [&barrier, node](kv::Client& c) {
      const std::string pfx = "n" + std::to_string(node) + "-";
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_EQ(c.put(pfx + std::to_string(i),
                        "v" + std::to_string(node * 1000 + i)),
                  kv::Status::kOk);
      }
      barrier.arrive_and_wait(kN);
      // Read the next node's keys: every replicated put is observable.
      const int peer = (node + 1) % kN;
      const std::string ppfx = "n" + std::to_string(peer) + "-";
      for (int i = 0; i < kKeys; ++i) {
        std::string got;
        ASSERT_EQ(c.get(ppfx + std::to_string(i), &got), kv::Status::kOk);
        ASSERT_EQ(got, "v" + std::to_string(peer * 1000 + i));
      }
    });
  }
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_repl_sent"), 0u);
  EXPECT_EQ(agg.get("kv_repl_acked"), agg.get("kv_repl_sent"));
  EXPECT_EQ(agg.get("kv_repl_abandoned"), 0u);
  EXPECT_EQ(agg.get("kv_repl_applied"), agg.get("kv_repl_received"));
  EXPECT_EQ(agg.get("kv_repl_dups"), 0u);
  EXPECT_EQ(agg.get("kv_rejected"), 0u);
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);
}

// ---------------------------------------------------------------------------
// Channel: ring placement
// ---------------------------------------------------------------------------

// A fixed reserve is slot-modulo addressing: message k from a source lands
// in slot k % kSlots of that source's ring and stages in slot k % kSlots of
// the sender's staging ring.
TEST(RmaChannelTest, FixedReserveIsSlotModulo) {
  constexpr std::uint64_t kSlot = 192;
  constexpr int kSlots = 8;
  Cluster cluster(config_1l_1g(3));
  rma::Channel ch(cluster, kSlots * kSlot, kTagMember);
  EXPECT_EQ(ch.rings_bytes(), 3 * kSlots * kSlot);
  EXPECT_EQ(ch.tag(), kTagMember);
  const std::uint64_t ring = ch.rings_va() + 2 * kSlots * kSlot;  // node 2's
  std::uint64_t staging = 0;
  for (int k = 0; k < 3 * kSlots; ++k) {
    const rma::Channel::Slot s = ch.place(/*self=*/2, /*dst=*/0, kSlot);
    if (k == 0) staging = s.staging_va;
    EXPECT_EQ(s.remote_va, ring + (k % kSlots) * kSlot) << "message " << k;
    EXPECT_EQ(s.staging_va, staging + (k % kSlots) * kSlot) << "message " << k;
  }
  EXPECT_GE(staging, ch.rings_va() + ch.rings_bytes());
}

// Variable-length messages never split across the ring end: one that would
// cross it restarts at offset 0; one that exactly fills the rest fits.
TEST(RmaChannelTest, MessageThatWouldCrossTheEndRestartsAtZero) {
  Cluster cluster(config_1l_1g(2));
  rma::Channel ch(cluster, 100, kTagDsm);
  const std::uint64_t ring = ch.rings_va() + 100;  // node 1's ring
  EXPECT_EQ(ch.place(1, 0, 40).remote_va, ring);
  EXPECT_EQ(ch.place(1, 0, 40).remote_va, ring + 40);
  EXPECT_EQ(ch.place(1, 0, 30).remote_va, ring);  // 80 + 30 > 100
  EXPECT_EQ(ch.place(1, 0, 70).remote_va, ring + 30);
  EXPECT_EQ(ch.place(1, 0, 1).remote_va, ring);
  EXPECT_THROW(ch.place(1, 0, 101), std::length_error);
}

// Each ordered (src, dst) pair has its own cursor; each node has one staging
// cursor shared by all its destinations.
TEST(RmaChannelTest, CursorsAreIndependentPerPairAndPerStagingRing) {
  constexpr std::uint64_t kRing = 256;
  Cluster cluster(config_1l_1g(3));
  rma::Channel ch(cluster, kRing, kTagDsm);
  const rma::Channel::Slot a = ch.place(0, 1, 64);
  const rma::Channel::Slot b = ch.place(0, 2, 64);
  const rma::Channel::Slot c = ch.place(1, 2, 64);
  const rma::Channel::Slot d = ch.place(0, 1, 64);
  // Node 0's ring at node 1 and at node 2: the same VA, fresh cursors.
  EXPECT_EQ(a.remote_va, ch.rings_va());
  EXPECT_EQ(b.remote_va, ch.rings_va());
  EXPECT_EQ(c.remote_va, ch.rings_va() + kRing);
  EXPECT_EQ(d.remote_va, ch.rings_va() + 64);
  // Node 0's staging cursor advanced across destinations; node 1's is its own.
  EXPECT_EQ(b.staging_va, a.staging_va + 64);
  EXPECT_EQ(c.staging_va, a.staging_va);
  EXPECT_EQ(d.staging_va, a.staging_va + 128);
}

// The rings and the staging ring are reserved, not committed: one notified
// write faults in one page of the destination's ring and one of the
// sender's staging ring, and the slot reads back.
TEST(RmaChannelTest, RingPagesFaultInOnlyWhenASlotIsWritten) {
  constexpr std::size_t kRing = std::size_t{2} << 20;
  constexpr std::uint32_t kLen = 200;
  Cluster cluster(config_1l_1g(2));
  rma::Channel ch(cluster, kRing, kTagDsm);
  const auto rings_resident = [&](int node) {
    return testing_util::resident_pages(
        cluster.memory(node).view(ch.rings_va(), ch.rings_bytes()).data(),
        ch.rings_bytes());
  };
  // The staging ring follows the rings.
  const auto staging_resident = [&](int node) {
    return testing_util::resident_pages(
        cluster.memory(node)
            .view(ch.rings_va() + ch.rings_bytes(), kRing)
            .data(),
        kRing);
  };
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(rings_resident(node), 0u) << "node " << node;
    EXPECT_EQ(staging_resident(node), 0u) << "node " << node;
  }

  ch.place(0, 1, kLen);  // the second slot, 200 bytes into the ring
  const rma::Channel::Slot slot = ch.place(0, 1, kLen);
  cluster.spawn(0, "sender", [&](Endpoint& ep) {
    std::memset(ep.memory().as<std::byte>(slot.staging_va), 0x3c, kLen);
    rma::Window w(ep, {.tag = kTagDsm, .urgent = false, .fenced = false});
    w.put_notify(1, slot.remote_va, slot.staging_va, kLen, false);
  });
  cluster.spawn(1, "receiver",
                [](Endpoint& ep) { ep.wait_notification(kTagDsm); });
  cluster.run();

  EXPECT_EQ(rings_resident(0), 0u);
  EXPECT_EQ(rings_resident(1), 1u);
  EXPECT_EQ(staging_resident(0), 1u);
  EXPECT_EQ(staging_resident(1), 0u);
  const auto got = cluster.memory(1).view(slot.remote_va, kLen);
  EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()),
            std::vector<std::byte>(kLen, std::byte{0x3c}));
}

// ---------------------------------------------------------------------------
// Differential: each mailbox moved onto a Channel is wire-identical to a copy
// of the hand-rolled layout it replaced
// ---------------------------------------------------------------------------

/// Where one message goes, by layout under test: (self, dst, reserve).
using Placer = std::function<rma::Channel::Slot(int, int, std::size_t)>;

Placer channel_placer(Cluster& cluster, std::size_t ring_bytes,
                      std::uint8_t tag) {
  auto ch = std::make_shared<rma::Channel>(cluster, ring_bytes, tag);
  return [ch](int self, int dst, std::size_t reserve) {
    return ch->place(self, dst, reserve);
  };
}

/// Lazily connected per-fiber connection cache.
class Conns {
 public:
  explicit Conns(Endpoint& ep) : ep_(ep) {}
  Connection& to(int peer) {
    auto it = conns_.find(peer);
    if (it == conns_.end()) it = conns_.emplace(peer, ep_.connect(peer)).first;
    return it->second;
  }

 private:
  Endpoint& ep_;
  std::map<int, Connection> conns_;
};

/// Destination of message i from `self`: round-robin over the peers.
int mailbox_peer(int self, int i, int n) {
  return (self + 1 + i % (n - 1)) % n;
}

struct MailboxRun {
  RunResult result;
  std::vector<rma::Channel::Slot> slots;  // every placement, in issue order
};

/// Every node's `sender` pushes `per_node` messages to mailbox_peer(self,
/// i), each placed by the layout under test; every node's receiver consumes
/// its arrivals on `tag`.
MailboxRun run_mailbox(
    int n, int per_node, std::uint8_t tag,
    const std::function<Placer(Cluster&)>& layout,
    const std::function<void(Endpoint&, const Placer&)>& sender) {
  MailboxRun run;
  CheckedCluster cluster(config_2l_1g(n));
  const Placer place = layout(cluster);
  const Placer logged = [&](int self, int dst, std::size_t reserve) {
    run.slots.push_back(place(self, dst, reserve));
    return run.slots.back();
  };
  std::vector<int> arrivals(n, 0);
  for (int node = 0; node < n; ++node) {
    for (int i = 0; i < per_node; ++i) ++arrivals[mailbox_peer(node, i, n)];
  }
  for (int node = 0; node < n; ++node) {
    cluster.spawn(node, "sender",
                  [&](Endpoint& ep) { sender(ep, logged); });
    cluster.spawn(node, "receiver", [&, node](Endpoint& ep) {
      for (int i = 0; i < arrivals[node]; ++i) ep.wait_notification(tag);
    });
  }
  cluster.run();
  run.result = harvest(cluster, n);
  return run;
}

// The DSM's old mailboxes: one MailboxWriter cursor per destination over the
// sender's ring, one over the node's staging ring. Variable-length messages
// on small rings wrap many times; the channel must place every one at the
// same VAs, and the notified writes (non-urgent kTagDsm window, fence on
// every fourth) must match counter for counter.
TEST(RmaChannelDifferentialTest, DsmMailboxIsWireIdentical) {
  constexpr int kN = 3;
  constexpr int kMsgs = 40;
  constexpr std::size_t kRing = 512;

  struct MailboxWriter {  // the DSM's hand-rolled cursor, verbatim
    std::uint64_t base = 0;
    std::size_t cap = 0;
    std::uint64_t tail = 0;
    std::uint64_t place(std::size_t len) {
      if (tail + len > cap) tail = 0;
      const std::uint64_t va = base + tail;
      tail += len;
      return va;
    }
  };
  const auto hand_rolled = [](Cluster& cluster) -> Placer {
    std::uint64_t rings = 0, staging = 0;
    for (int i = 0; i < kN; ++i) {
      const std::uint64_t mb = cluster.memory(i).alloc(kRing * kN, 64);
      const std::uint64_t st = cluster.memory(i).alloc(kRing, 64);
      if (i == 0) rings = mb, staging = st;
    }
    auto to = std::make_shared<std::vector<MailboxWriter>>();
    auto stage = std::make_shared<std::vector<MailboxWriter>>();
    for (int self = 0; self < kN; ++self) {
      stage->push_back({staging, kRing});
      for (int dst = 0; dst < kN; ++dst) {
        to->push_back({rings + self * kRing, kRing});
      }
    }
    return [to, stage](int self, int dst, std::size_t len) {
      const std::uint64_t remote = (*to)[self * kN + dst].place(len);
      return rma::Channel::Slot{remote, (*stage)[self].place(len)};
    };
  };
  const auto send = [](Endpoint& ep, const Placer& place) {
    rma::Window w(ep, {.tag = kTagDsm, .urgent = false, .fenced = false});
    for (int i = 0; i < kMsgs; ++i) {
      const int dst = mailbox_peer(ep.node_id(), i, kN);
      const auto len = static_cast<std::uint32_t>(24 + 8 * ((i * 5) % 23));
      const rma::Channel::Slot s = place(ep.node_id(), dst, len);
      std::memset(ep.memory().as<std::byte>(s.staging_va), i, len);
      w.put_notify(dst, s.remote_va, s.staging_va, len, /*fenced=*/i % 4 == 3);
    }
  };

  const MailboxRun ref = run_mailbox(kN, kMsgs, kTagDsm, hand_rolled, send);
  const MailboxRun ch = run_mailbox(
      kN, kMsgs, kTagDsm,
      [](Cluster& c) { return channel_placer(c, kRing, kTagDsm); }, send);
  ASSERT_EQ(ref.slots.size(), ch.slots.size());
  for (std::size_t k = 0; k < ref.slots.size(); ++k) {
    EXPECT_EQ(ref.slots[k].remote_va, ch.slots[k].remote_va) << "message " << k;
    EXPECT_EQ(ref.slots[k].staging_va, ch.slots[k].staging_va)
        << "message " << k;
  }
  expect_identical(ref.result, ch.result);
}

// The membership service's old inboxes: kInboxSlots fixed-stride slots per
// source (inbox_slot_va(src, cursor), cursor per peer) and one build buffer.
// The channel stages in a ring instead of the one buffer, so only the
// remote slots must agree; the urgent, fenced kTagMember writes must match
// counter for counter.
TEST(RmaChannelDifferentialTest, MemberInboxIsWireIdentical) {
  constexpr int kN = 4;
  constexpr int kMsgs = 30;
  constexpr int kSlots = 8;
  constexpr std::uint64_t kStride = 192;  // align64(16 + 8 * 16)

  const auto hand_rolled = [](Cluster& cluster) -> Placer {
    std::uint64_t inbox = 0, build = 0;
    for (int i = 0; i < kN; ++i) {
      const std::uint64_t in =
          cluster.memory(i).alloc(kN * kSlots * kStride, 64);
      const std::uint64_t b = cluster.memory(i).alloc(kStride, 64);
      if (i == 0) inbox = in, build = b;
    }
    auto cursor = std::make_shared<std::vector<int>>(kN * kN, 0);
    return [=](int self, int dst, std::size_t) {
      int& c = (*cursor)[self * kN + dst];
      const std::uint64_t slot =
          inbox + (static_cast<std::uint64_t>(self) * kSlots + c) * kStride;
      c = (c + 1) % kSlots;
      return rma::Channel::Slot{slot, build};
    };
  };
  const auto send = [](Endpoint& ep, const Placer& place) {
    Conns conns(ep);
    for (int i = 0; i < kMsgs; ++i) {
      const int dst = mailbox_peer(ep.node_id(), i, kN);
      const auto len = static_cast<std::uint32_t>(16 + 16 * (1 + i % 8));
      const rma::Channel::Slot s = place(ep.node_id(), dst, kStride);
      std::memset(ep.memory().as<std::byte>(s.staging_va), i, len);
      conns.to(dst).rdma_write(s.remote_va, s.staging_va, len,
                               kOpFlagNotify | kOpFlagUrgent |
                                   kOpFlagBackwardFence |
                                   op_tag_flags(kTagMember));
    }
  };

  const MailboxRun ref = run_mailbox(kN, kMsgs, kTagMember, hand_rolled, send);
  const MailboxRun ch = run_mailbox(
      kN, kMsgs, kTagMember,
      [](Cluster& c) {
        return channel_placer(c, kSlots * kStride, kTagMember);
      },
      send);
  ASSERT_EQ(ref.slots.size(), ch.slots.size());
  for (std::size_t k = 0; k < ref.slots.size(); ++k) {
    EXPECT_EQ(ref.slots[k].remote_va, ch.slots[k].remote_va) << "message " << k;
  }
  expect_identical(ref.result, ch.result);
}

// The KV store's old RPC mailboxes: a request slot per (client node, slot)
// on every server, a response slot per (slot, server) on every client, one
// replication slot per primary, and three build buffers. The channels move
// every mailbox, so the wire alone is compared: kClients fibers per node
// send requests round-robin to the other nodes and wait for each response;
// a server replicates every request to all other nodes, then responds.
TEST(RmaChannelDifferentialTest, KvRpcMailboxesAreWireIdentical) {
  static constexpr int kN = 3;
  static constexpr int kClients = 2;
  static constexpr int kOps = 8;
  static constexpr std::uint64_t kReqStride = 256;
  static constexpr std::uint64_t kRespStride = 128;

  using Slot = rma::Channel::Slot;
  struct Mailboxes {
    std::function<Slot(int cslot, int self, int server)> request;
    std::function<Slot(int cslot, int self, int client)> response;
    std::function<Slot(int self, int backup)> replication;
  };
  struct Req {
    std::uint32_t client, cslot, seq, len;
  };

  const auto hand_rolled = [](Cluster& cluster) {
    const std::uint64_t bytes[] = {kN * kClients * kReqStride,
                                   kClients * kN * kRespStride,
                                   kN * kReqStride,
                                   kRespStride,
                                   kReqStride,
                                   kClients * kReqStride};
    std::uint64_t va[std::size(bytes)] = {};
    for (int i = 0; i < kN; ++i) {
      for (std::size_t r = 0; r < std::size(bytes); ++r) {
        const std::uint64_t v = cluster.memory(i).alloc(bytes[r], 64);
        if (i == 0) va[r] = v;
      }
    }
    const auto [req, resp, repl, resp_build, repl_build, req_build] = va;
    return Mailboxes{
        [=](int cslot, int self, int) {
          return Slot{req + (self * kClients + cslot) * kReqStride,
                      req_build + cslot * kReqStride};
        },
        [=](int cslot, int self, int) {
          return Slot{resp + (cslot * kN + self) * kRespStride, resp_build};
        },
        [=](int self, int) {
          return Slot{repl + self * kReqStride, repl_build};
        }};
  };
  const auto channels = [](Cluster& cluster) {
    auto req = std::make_shared<std::vector<rma::Channel>>();
    auto resp = std::make_shared<std::vector<rma::Channel>>();
    for (int c = 0; c < kClients; ++c) {
      req->emplace_back(cluster, kReqStride, kTagKvRequest);
      resp->emplace_back(cluster, kRespStride,
                         static_cast<std::uint8_t>(kTagKvResponseBase + c));
    }
    auto repl =
        std::make_shared<rma::Channel>(cluster, kReqStride, kTagKvReplication);
    return Mailboxes{
        [req](int cslot, int self, int server) {
          return (*req)[cslot].place(self, server, kReqStride);
        },
        [resp](int cslot, int self, int client) {
          return (*resp)[cslot].place(self, client, kRespStride);
        },
        [repl](int self, int backup) {
          return repl->place(self, backup, kReqStride);
        }};
  };

  const auto run = [](const std::function<Mailboxes(Cluster&)>& layout) {
    CheckedCluster cluster(config_2l_1g(kN));
    const Mailboxes m = layout(cluster);
    const auto server_of = [](int client, int cslot, int op) {
      return (client + 1 + (op + cslot) % (kN - 1)) % kN;
    };
    std::vector<int> requests(kN, 0);
    for (int c = 0; c < kN; ++c) {
      for (int s = 0; s < kClients; ++s) {
        for (int op = 0; op < kOps; ++op) ++requests[server_of(c, s, op)];
      }
    }
    const auto stage = [](Endpoint& ep, const Slot& s, const auto& value) {
      std::memcpy(ep.memory().as<std::byte>(s.staging_va), &value,
                  sizeof value);
    };
    for (int node = 0; node < kN; ++node) {
      cluster.spawn(node, "server", [&, node](Endpoint& ep) {
        Conns conns(ep);
        for (int k = 0; k < requests[node]; ++k) {
          const Notification n = ep.wait_notification(kTagKvRequest);
          Req r;  // copied out before anything yields
          std::memcpy(&r, ep.memory().as<std::byte>(n.va), sizeof r);
          for (int b = 0; b < kN; ++b) {
            if (b == node) continue;
            const Slot s = m.replication(node, b);
            stage(ep, s, r);
            conns.to(b).rdma_write(
                s.remote_va, s.staging_va, r.len,
                kOpFlagNotify | kOpFlagUrgent | kOpFlagQuietNotify |
                    kOpFlagBackwardFence | op_tag_flags(kTagKvReplication));
          }
          const Slot s = m.response(static_cast<int>(r.cslot), node,
                                    static_cast<int>(r.client));
          stage(ep, s, r.seq);
          conns.to(static_cast<int>(r.client))
              .rdma_write(s.remote_va, s.staging_va, 16 + r.len / 4,
                          kOpFlagNotify | kOpFlagUrgent | kOpFlagQuietNotify |
                              kOpFlagBackwardFence |
                              op_tag_flags(static_cast<std::uint8_t>(
                                  kTagKvResponseBase + r.cslot)));
        }
      });
      const int replicas = kN * kClients * kOps - requests[node];
      cluster.spawn(node, "backup", [replicas](Endpoint& ep) {
        for (int k = 0; k < replicas; ++k) {
          ep.wait_notification(kTagKvReplication);
        }
      });
      for (int c = 0; c < kClients; ++c) {
        cluster.spawn(node, "client", [&, node, c](Endpoint& ep) {
          Conns conns(ep);
          const auto resp_tag =
              static_cast<std::uint8_t>(kTagKvResponseBase + c);
          for (int op = 0; op < kOps; ++op) {
            const int server = server_of(node, c, op);
            const Req r{static_cast<std::uint32_t>(node),
                        static_cast<std::uint32_t>(c),
                        static_cast<std::uint32_t>(op),
                        static_cast<std::uint32_t>(32 + 16 * ((op + c) % 12))};
            const Slot s = m.request(c, node, server);
            stage(ep, s, r);
            conns.to(server).rdma_write(
                s.remote_va, s.staging_va, r.len,
                kOpFlagNotify | kOpFlagUrgent | kOpFlagBackwardFence |
                    op_tag_flags(kTagKvRequest));
            const Notification n = ep.wait_notification(resp_tag);
            std::uint32_t seq = 0;
            std::memcpy(&seq, ep.memory().as<std::byte>(n.va), sizeof seq);
            EXPECT_EQ(seq, r.seq);
          }
        });
      }
    }
    cluster.run();
    return harvest(cluster, kN);
  };
  expect_identical(run(hand_rolled), run(channels));
}

}  // namespace
}  // namespace multiedge
