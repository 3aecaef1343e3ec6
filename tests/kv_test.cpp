// src/kv tests: FiberLock state peeks, consistent-hash ring unit checks,
// record checksum coverage (bit flips, key/value boundary, sequence),
// differential correctness of the partitioned store against a host-side
// reference map across node counts and topologies, the one-sided GET
// torn-read retry protocol and its checksum check, the 8-bit response-tag
// range of client slots, replication under
// Gilbert-Elliott burst loss, and failover (backup promotion) across a
// scheduled rail outage — all with the protocol invariant checker armed —
// and what the store's symmetric regions commit.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "kv/kv.hpp"
#include "resident.hpp"
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
// FiberLock
// ---------------------------------------------------------------------------

TEST(KvFiberLockTest, HeldAndWaitersTrackLockTryLockUnlock) {
  sim::Simulator sim;
  kv::FiberLock lock;
  std::vector<std::string> log;
  sim::Process owner(sim, "owner", [&] {
    EXPECT_FALSE(lock.held());
    lock.lock();
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(lock.try_lock());
    EXPECT_TRUE(lock.held());
    sim::Process::current()->delay(sim::ns(10));  // contender queues up
    EXPECT_TRUE(lock.has_waiters());
    lock.unlock();
    EXPECT_FALSE(lock.held());
    EXPECT_FALSE(lock.has_waiters());  // handed to the contender's wakeup
    log.push_back("owner released");
  });
  sim::Process contender(sim, "contender", [&] {
    sim::Process::current()->delay(sim::ns(5));
    lock.lock();
    EXPECT_TRUE(lock.held());
    log.push_back("contender acquired");
    lock.unlock();
    EXPECT_FALSE(lock.held());
    EXPECT_TRUE(lock.try_lock());
    EXPECT_TRUE(lock.held());
    lock.unlock();
  });
  owner.start();
  contender.start();
  sim.run();
  EXPECT_FALSE(lock.held());
  EXPECT_FALSE(lock.has_waiters());
  EXPECT_EQ(log, (std::vector<std::string>{"owner released",
                                           "contender acquired"}));
}

// The serve loop's wait counts a free lock with queued waiters as work: its
// try_lock/unlock pair then hands the lock on (wakes a waiter). That state
// lasts only within the instant of an unlock, so the test queues the serve
// loop's check (a touch) ahead of an unlock, and looks at the queue after
// the check but before the woken fibers run.
TEST(KvFiberLockTest, ServeLoopStepHandsOnAFreeLockWithWaiters) {
  Cluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.clients_per_node = 3;
  kv::System sys(cluster, cfg);
  kv::FiberLock& lock = sys.server(0).node_lock();
  const sim::Time g = sim::us(10);
  bool queue_at_g = true;
  std::vector<std::string> order;
  sys.spawn_client(0, "holder", [&](kv::Client&) {
    sim::Process::current()->delay(sim::ns(500));
    lock.lock();
    sim::Process::current()->delay(g - sim::ns(500));
    lock.unlock();  // wakes the first waiter; the second stays queued
  });
  for (const char* name : {"w1", "w2"}) {
    sys.spawn_client(0, name, [&, name](kv::Client&) {
      sim::Process::current()->delay(sim::us(1) + sim::ns(300));
      lock.lock();
      order.push_back(name);
      lock.unlock();
    });
  }
  // Runs at g ahead of the unlock: the touch queues node 0's serve-loop
  // check, then the look at the queue, both ahead of the unlock's wakeups.
  cluster.sim().at(g, [&] {
    lock.signal().touch();
    cluster.sim().at(g, [&] { queue_at_g = lock.has_waiters(); });
  });
  cluster.run();
  EXPECT_FALSE(queue_at_g);  // the check took w2 off the queue
  EXPECT_EQ(order, (std::vector<std::string>{"w1", "w2"}));
  EXPECT_FALSE(lock.held());
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(KvRingTest, ReplicaListsAreDistinctValidAndStable) {
  const kv::Ring ring(5, 32, 3, 8, 42);
  const kv::Ring same(5, 32, 3, 8, 42);
  EXPECT_EQ(ring.replication(), 3);
  for (int p = 0; p < ring.partitions(); ++p) {
    const auto& reps = ring.replicas(p);
    ASSERT_EQ(reps.size(), 3u) << "partition " << p;
    std::set<int> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u) << "partition " << p;
    for (int r : reps) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 5);
      EXPECT_TRUE(ring.is_replica(p, r));
    }
    EXPECT_EQ(reps, same.replicas(p)) << "ring must be seed-deterministic";
  }
}

TEST(KvRingTest, PartitionOfCoversAllPartitions) {
  const kv::Ring ring(4, 16, 2, 8, 7);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 20000; ++i) {
    const int p = ring.partition_of(kv::fnv1a64("key-" + std::to_string(i)));
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
    ++hits[p];
  }
  for (int p = 0; p < 16; ++p) {
    EXPECT_GT(hits[p], 0) << "partition " << p << " never chosen";
  }
}

TEST(KvRingTest, PrimarySkipsDownReplicas) {
  const kv::Ring ring(6, 8, 3, 8, 3);
  for (int p = 0; p < 8; ++p) {
    const auto& reps = ring.replicas(p);
    std::vector<bool> down(6, false);
    EXPECT_EQ(ring.primary_of(p, down), reps[0]);
    down[reps[0]] = true;
    EXPECT_EQ(ring.primary_of(p, down), reps[1]);
    down[reps[1]] = true;
    EXPECT_EQ(ring.primary_of(p, down), reps[2]);
    down[reps[2]] = true;
    EXPECT_EQ(ring.primary_of(p, down), -1);
  }
}

TEST(KvRingTest, ReplicationClampedToClusterSize) {
  const kv::Ring ring(2, 8, 3, 4, 1);
  EXPECT_EQ(ring.replication(), 2);
  for (int p = 0; p < 8; ++p) EXPECT_EQ(ring.replicas(p).size(), 2u);
}

// ---------------------------------------------------------------------------
// Record checksum
// ---------------------------------------------------------------------------

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(kv::mix64(seed + i));
  }
  return out;
}

TEST(KvChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  const std::vector<std::byte> key = pattern_bytes(16, 1);
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 67; ++n) lens.push_back(n);
  lens.push_back(4096);
  for (std::size_t n : lens) {
    // Key then value in one buffer, the way a record slot stores them.
    std::vector<std::byte> rec = key;
    const std::vector<std::byte> val = pattern_bytes(n, 2 + n);
    rec.insert(rec.end(), val.begin(), val.end());
    const auto sum = [&] {
      return kv::record_checksum(9, 16, static_cast<std::uint32_t>(n),
                                 rec.data(), rec.data() + 16);
    };
    const std::uint64_t clean = sum();
    for (std::size_t byte = 0; byte < rec.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        rec[byte] ^= std::byte{1} << bit;
        ASSERT_NE(sum(), clean) << "val_len " << n << ", byte " << byte
                                << ", bit " << bit;
        rec[byte] ^= std::byte{1} << bit;
      }
    }
    ASSERT_EQ(sum(), clean);
  }
}

TEST(KvChecksumTest, BoundaryAndSequenceAreCovered) {
  for (std::size_t total : {std::size_t{17}, std::size_t{48},
                            std::size_t{16 + 4096}}) {
    const std::vector<std::byte> rec = pattern_bytes(total, total);
    const auto sum = [&](std::uint64_t seq, std::uint32_t key_len) {
      return kv::record_checksum(seq, key_len,
                                 static_cast<std::uint32_t>(total - key_len),
                                 rec.data(), rec.data() + key_len);
    };
    const std::uint64_t base = sum(5, 16);
    EXPECT_NE(sum(5, 15), base) << "total " << total;
    EXPECT_NE(sum(5, 17), base) << "total " << total;
    EXPECT_NE(sum(6, 16), base) << "total " << total;
    EXPECT_NE(sum(5ull << 32, 16), base) << "total " << total;
    EXPECT_EQ(sum(5, 16), base);
  }
}

// ---------------------------------------------------------------------------
// Differential correctness vs. a host-side reference map
// ---------------------------------------------------------------------------

ClusterConfig kv_topo(int which, int nodes) {
  switch (which) {
    case 0: return config_1l_1g(nodes);
    case 1: return config_2l_1g(nodes);
    default: return config_1l_10g(nodes);
  }
}

struct OpSpec {
  int op;  // 0=get 1=put 2=del
  std::string key;
  std::string value;       // put only
  kv::Status want;
  std::string want_value;  // successful gets only
};

// Per-client deterministic op tape over a private keyspace, with expected
// results precomputed against a reference std::map. Disjoint keyspaces make
// the final state independent of cross-client interleaving.
std::vector<OpSpec> make_tape(int client_id, int ops, std::mt19937& rng) {
  std::vector<OpSpec> tape;
  std::map<std::string, std::string> ref;
  const int keys = 6;
  auto key_of = [&](int j) {
    return "c" + std::to_string(client_id) + "-k" + std::to_string(j);
  };
  for (int i = 0; i < ops; ++i) {
    const int j = static_cast<int>(rng() % keys);
    const std::string k = key_of(j);
    OpSpec s;
    s.key = k;
    switch (rng() % 4) {
      case 0:  // get
        s.op = 0;
        if (auto it = ref.find(k); it != ref.end()) {
          s.want = kv::Status::kOk;
          s.want_value = it->second;
        } else {
          s.want = kv::Status::kNotFound;
        }
        break;
      case 3:  // delete
        s.op = 2;
        s.want = ref.erase(k) ? kv::Status::kOk : kv::Status::kNotFound;
        break;
      default:  // put (insert or overwrite)
        s.op = 1;
        s.value = "v" + std::to_string(client_id) + "." + std::to_string(i) +
                  std::string(rng() % 60, 'x');
        s.want = kv::Status::kOk;
        ref[k] = s.value;
        break;
    }
    tape.push_back(std::move(s));
  }
  // Verification phase: read back the whole keyspace plus one absent key.
  for (int j = 0; j < keys; ++j) {
    OpSpec s;
    s.op = 0;
    s.key = key_of(j);
    if (auto it = ref.find(s.key); it != ref.end()) {
      s.want = kv::Status::kOk;
      s.want_value = it->second;
    } else {
      s.want = kv::Status::kNotFound;
    }
    tape.push_back(std::move(s));
  }
  tape.push_back(
      {0, "absent-" + std::to_string(client_id), "", kv::Status::kNotFound, ""});
  return tape;
}

void run_tape(kv::Client& c, const std::vector<OpSpec>& tape) {
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const OpSpec& s = tape[i];
    std::string got;
    kv::Status st;
    switch (s.op) {
      case 0: st = c.get(s.key, &got); break;
      case 1: st = c.put(s.key, s.value); break;
      default: st = c.del(s.key); break;
    }
    ASSERT_EQ(st, s.want) << "op " << i << " key " << s.key << " got "
                          << kv::status_str(st);
    if (s.op == 0 && s.want == kv::Status::kOk) {
      ASSERT_EQ(got, s.want_value) << "op " << i << " key " << s.key;
    }
  }
}

using KvParams = std::tuple<int, int>;  // (topology, nodes)

std::string kv_param_name(const ::testing::TestParamInfo<KvParams>& info) {
  static const char* kTopos[] = {"1L1G", "2L1G", "1L10G"};
  return std::string(kTopos[std::get<0>(info.param)]) + "N" +
         std::to_string(std::get<1>(info.param));
}

class KvDifferentialTest : public ::testing::TestWithParam<KvParams> {};

TEST_P(KvDifferentialTest, MatchesReferenceMap) {
  const auto [topology, n] = GetParam();
  CheckedCluster cluster(kv_topo(topology, n));
  kv::KvConfig cfg;
  cfg.clients_per_node = 2;
  kv::System sys(cluster, cfg);

  std::mt19937 rng(1234 + 17 * topology + n);
  std::vector<std::vector<OpSpec>> tapes;
  for (int node = 0; node < n; ++node) {
    for (int c = 0; c < cfg.clients_per_node; ++c) {
      tapes.push_back(make_tape(static_cast<int>(tapes.size()), 24, rng));
    }
  }
  for (int node = 0; node < n; ++node) {
    for (int c = 0; c < cfg.clients_per_node; ++c) {
      const auto& tape = tapes[node * cfg.clients_per_node + c];
      sys.spawn_client(node, "cli", [&tape](kv::Client& cl) {
        run_tape(cl, tape);
      });
    }
  }
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_puts_applied"), 0u);
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);  // R=2: every put replicated
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);  // no failures injected
}

INSTANTIATE_TEST_SUITE_P(TopologiesNodes, KvDifferentialTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 5, 16)),
                         kv_param_name);

// ---------------------------------------------------------------------------
// Torn-read retry: one-sided GETs racing in-place PUTs
// ---------------------------------------------------------------------------

TEST(KvTornReadTest, OneSidedGetRetriesThroughInPlaceUpdates) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;        // isolate the read/update race
  cfg.clients_per_node = 1;
  cfg.put_pause = sim::us(30);  // widen the odd-version window
  kv::System sys(cluster, cfg);

  // A key whose primary is node 1, so node 0 reads it one-sided.
  std::string key;
  for (int i = 0;; ++i) {
    key = "torn-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(key));
    if (sys.ring().replicas(p)[0] == 1) break;
  }
  const std::string a(100, 'A'), b(100, 'B');
  constexpr int kPuts = 200;
  bool writer_done = false;
  kv::HostBarrier start;

  sys.spawn_client(1, "writer", [&](kv::Client& c) {
    ASSERT_EQ(c.put(key, a), kv::Status::kOk);
    start.arrive_and_wait(2);
    for (int i = 0; i < kPuts; ++i) {
      ASSERT_EQ(c.put(key, i % 2 ? b : a), kv::Status::kOk);
      // Think time between updates: without it the widened odd-version
      // windows tile the timeline and every reader snapshot lands torn.
      c.pause(sim::us(100));
    }
    writer_done = true;
  });
  sys.spawn_client(0, "reader", [&](kv::Client& c) {
    start.arrive_and_wait(2);
    std::uint64_t reads = 0;
    while (!writer_done) {
      std::string got;
      ASSERT_EQ(c.get(key, &got), kv::Status::kOk);
      // Every successful read must be a clean snapshot: one of the two
      // values in full, never a mix.
      ASSERT_TRUE(got == a || got == b) << "torn value leaked: " << got;
      ++reads;
    }
    EXPECT_GT(reads, 50u);
  });
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_get_torn"), 0u)
      << "the race window was never observed — the retry path is untested";
  EXPECT_GT(agg.get("kv_get_retries"), 0u);
}

TEST(KvTornReadTest, ChecksumRejectsCorruptionBehindAnEvenVersion) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;
  cfg.clients_per_node = 1;
  kv::System sys(cluster, cfg);

  std::string key;
  int partition = 0;
  for (int i = 0;; ++i) {
    key = "corrupt-k" + std::to_string(i);
    partition = sys.ring().partition_of(kv::fnv1a64(key));
    if (sys.ring().replicas(partition)[0] == 1) break;
  }
  const std::string value(100, 'V');
  proto::MemorySpace& primary_mem = cluster.endpoint(1).memory();

  sys.spawn_client(0, "reader", [&](kv::Client& c) {
    ASSERT_EQ(c.put(key, value), kv::Status::kOk);
    // The only stored record is the first slot of the one non-empty bucket
    // of the key's partition.
    const kv::KvDomain& dom = sys.domain();
    std::uint64_t sva = 0;
    for (std::uint32_t b = 0; b < cfg.buckets_per_partition; ++b) {
      const auto* e =
          primary_mem.as<std::uint64_t>(dom.bucket_entry_va(partition, b));
      if (e[0] != 0) sva = e[1];
    }
    ASSERT_NE(sva, 0u);
    // RecordHeader: version, checksum, seq, key_len | val_len (32 bytes).
    const auto* hdr = primary_mem.as<std::uint64_t>(sva);
    ASSERT_EQ(hdr[0] % 2, 0u) << "record must be stable before the flip";
    std::byte* vbyte =
        primary_mem.as<std::byte>(sva + 32 + key.size() + value.size() / 2);
    ASSERT_EQ(*vbyte, std::byte{'V'});
    *vbyte ^= std::byte{0x04};  // version stays even: only the checksum sees it

    std::string got = "untouched";
    EXPECT_EQ(c.get(key, &got), kv::Status::kUnavailable);
    EXPECT_EQ(got, "untouched") << "corrupted bytes leaked to the caller";

    *vbyte ^= std::byte{0x04};  // repaired: the same read now validates
    ASSERT_EQ(hdr[0] % 2, 0u);
    EXPECT_EQ(c.get(key, &got), kv::Status::kOk);
    EXPECT_EQ(got, value);
  });
  cluster.run();

  // Client counters merge when the client returns. Every attempt of the
  // corrupted GET was rejected, and the repaired GET validated first time.
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_EQ(agg.get("kv_get_torn"),
            static_cast<std::uint64_t>(kv::kMaxAttempts));
  EXPECT_EQ(agg.get("kv_get_retries"),
            static_cast<std::uint64_t>(kv::kMaxAttempts - 1));
}

// ---------------------------------------------------------------------------
// Mailbox seal: a stale notification never applies a torn request
// ---------------------------------------------------------------------------

// A client slot's request mailbox holds one message, so a server that
// consumes a notification late can find a newer message landing over the
// one it announced. The test holds the primary's node lock while a PUT's
// notification is queued, overwrites the back half of the value in the
// slot as such a landing would, and releases the lock: the seal must drop
// the torn request unanswered, and the client's resend must apply the
// value whole.
TEST(KvMailboxSealTest, TornRequestIsDroppedNotApplied) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;
  cfg.clients_per_node = 1;
  cfg.rpc_timeout = sim::us(200);
  kv::System sys(cluster, cfg);

  // A key whose primary is node 1, so node 0 sends it a request.
  std::string key;
  for (int i = 0;; ++i) {
    key = "seal-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(key));
    if (sys.ring().replicas(p)[0] == 1) break;
  }
  std::string value;
  for (int i = 0; i < 96; ++i) value.push_back(static_cast<char>('a' + i % 26));

  bool scribbled = false;
  cluster.spawn(1, "lock-holder", [&](Endpoint& ep) {
    kv::FiberLock& lock = sys.server(1).node_lock();
    lock.lock();
    sim::Process::current()->wait(
        {&ep.notification_signal(kTagKvRequest)},
        [&] { return ep.has_notification(kTagKvRequest); });
    // Node 0's ring of client slot 0's request mailbox, at node 1: one
    // slot of req_stride() bytes.
    const std::uint64_t ring = sys.domain().requests(0).rings_va();
    std::byte* slot = cluster.memory(1).as<std::byte>(ring);
    std::byte* end = slot + sys.domain().req_stride();
    std::byte* at = std::search(
        slot, end, reinterpret_cast<const std::byte*>(value.data()),
        reinterpret_cast<const std::byte*>(value.data() + value.size()));
    ASSERT_NE(at, end);
    std::memset(at + value.size() / 2, 'X', value.size() / 2);
    scribbled = true;
    lock.unlock();
  });
  sys.spawn_client(0, "writer", [&](kv::Client& c) {
    ASSERT_EQ(c.put(key, value), kv::Status::kOk);
    std::string got;
    ASSERT_EQ(c.get(key, &got), kv::Status::kOk);
    EXPECT_EQ(got, value);
  });
  cluster.run();

  EXPECT_TRUE(scribbled);
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_EQ(agg.get("kv_torn_messages"), 1u);
  EXPECT_EQ(agg.get("kv_rpc_timeouts"), 1u);  // the dropped request
  EXPECT_EQ(agg.get("kv_puts_applied"), 1u);
}

// ---------------------------------------------------------------------------
// Response-tag range: one 8-bit notification tag per client slot
// ---------------------------------------------------------------------------

TEST(KvResponseTagTest, ClientSlotsPastTagTwoFiftyFiveAreRejected) {
  Cluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  // Slot 240 would answer on tag 256, which wraps to the DSM's tag 0 on the
  // wire while its client polls for 256: every PUT would time out.
  cfg.clients_per_node = 256 - kTagKvResponseBase + 1;
  EXPECT_THROW({ kv::System sys(cluster, cfg); }, std::invalid_argument);
}

TEST(KvResponseTagTest, TopClientSlotRoundTripsOnTagTwoFiftyFive) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;
  cfg.clients_per_node = 256 - kTagKvResponseBase;
  kv::System sys(cluster, cfg);

  // A key whose primary is node 0, so node 1's PUT is an RPC whose response
  // comes back on the client slot's tag.
  std::string key;
  for (int i = 0;; ++i) {
    key = "tag-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(key));
    if (sys.ring().replicas(p)[0] == 0) break;
  }
  // Slots go out in spawn order; only the last one (tag 255) does work.
  for (int c = 0; c < cfg.clients_per_node; ++c) {
    const bool top = c == cfg.clients_per_node - 1;
    sys.spawn_client(1, "cli", [&key, top](kv::Client& cl) {
      if (!top) return;
      ASSERT_EQ(cl.put(key, "v"), kv::Status::kOk);
      std::string got;
      ASSERT_EQ(cl.get(key, &got), kv::Status::kOk);
      EXPECT_EQ(got, "v");
    });
  }
  cluster.run();
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_EQ(agg.get("kv_rpc_sent"), 1u);
  EXPECT_EQ(agg.get("kv_rpc_timeouts"), 0u);
}

// ---------------------------------------------------------------------------
// Replication under Gilbert-Elliott burst loss
// ---------------------------------------------------------------------------

TEST(KvFaultTest, ReplicationSurvivesBurstLoss) {
  ClusterConfig ccfg = config_2l_1g(4);
  ccfg.topology.link.burst.enabled = true;
  ccfg.topology.link.burst.p_good_to_bad = 0.02;
  ccfg.topology.link.burst.p_bad_to_good = 0.2;
  ccfg.topology.link.burst.drop_bad = 0.5;
  CheckedCluster cluster(std::move(ccfg));
  kv::KvConfig cfg;
  cfg.clients_per_node = 1;
  // Bursts stall heartbeats too; a generous timeout keeps the detector from
  // declaring false deaths (failover under real outages is tested below).
  cfg.failure_timeout = sim::sec(1);
  kv::System sys(cluster, cfg);

  kv::HostBarrier barrier;
  for (int node = 0; node < 4; ++node) {
    sys.spawn_client(node, "cli", [&barrier, node](kv::Client& c) {
      const std::string pfx = "n" + std::to_string(node) + "-";
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(c.put(pfx + std::to_string(i),
                        "val" + std::to_string(node * 100 + i)),
                  kv::Status::kOk);
      }
      barrier.arrive_and_wait(4);
      for (int i = 0; i < 20; ++i) {
        std::string got;
        ASSERT_EQ(c.get(pfx + std::to_string(i), &got), kv::Status::kOk);
        ASSERT_EQ(got, "val" + std::to_string(node * 100 + i));
      }
    });
  }
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);
  EXPECT_GT(agg.get("kv_repl_applied"), 0u);
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);
}

// ---------------------------------------------------------------------------
// Failover: scheduled rail outage, backup promotion, exactly-once writes
// ---------------------------------------------------------------------------

TEST(KvFaultTest, BackupPromotionAcrossRailOutage) {
  constexpr int kN = 5;
  ClusterConfig ccfg = config_1l_1g(kN);
  // Node 1 loses its only rail at 4ms and stays dark well past the end of
  // client activity: a full node-silence failure from the cluster's view.
  ccfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/1, /*start=*/sim::ms(4), /*end=*/sim::sec(1)});
  CheckedCluster cluster(std::move(ccfg));

  kv::KvConfig cfg;
  cfg.replication = 3;
  cfg.clients_per_node = 1;
  cfg.heartbeat_period = sim::us(100);
  cfg.failure_timeout = sim::ms(1);
  kv::System sys(cluster, cfg);

  // Keys that will fail over (primary = node 1) and keys that won't.
  std::vector<std::string> doomed, safe;
  for (int i = 0; doomed.size() < 8 || safe.size() < 8; ++i) {
    const std::string k = "fo-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(k));
    if (sys.ring().replicas(p)[0] == 1) {
      if (doomed.size() < 8) doomed.push_back(k);
    } else if (safe.size() < 8) {
      safe.push_back(k);
    }
  }
  auto all_keys = doomed;
  all_keys.insert(all_keys.end(), safe.begin(), safe.end());

  // Clients live on surviving nodes only; node 1 hosts no client (its own
  // clients would be partitioned with it, which is not what this tests).
  kv::HostBarrier loaded;
  sys.spawn_client(0, "loader", [&](kv::Client& c) {
    for (const auto& k : all_keys) {
      ASSERT_EQ(c.put(k, "v0-" + k), kv::Status::kOk);  // replicated 3-way
    }
    loaded.arrive_and_wait(3);
    // Sleep through the cable pull, then rewrite everything: writes to
    // doomed partitions must re-route to the promoted backup.
    c.counters();  // no-op; keep the fiber shape obvious
    for (const auto& k : all_keys) {
      ASSERT_EQ(c.put(k, "v1-" + k), kv::Status::kOk);
    }
    for (const auto& k : all_keys) {
      std::string got;
      ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
      ASSERT_EQ(got, "v1-" + k) << k;
    }
  });
  for (int node : {2, 3}) {
    sys.spawn_client(node, "getter", [&, node](kv::Client& c) {
      loaded.arrive_and_wait(3);
      // Hammer reads from other nodes through the outage window; every
      // successful read must be one of the two committed values.
      for (int round = 0; round < 30; ++round) {
        for (const auto& k : all_keys) {
          std::string got;
          const kv::Status st = c.get(k, &got);
          ASSERT_EQ(st, kv::Status::kOk) << k << " round " << round;
          ASSERT_TRUE(got == "v0-" + k || got == "v1-" + k)
              << k << " -> " << got;
        }
        (void)node;
      }
    });
  }
  cluster.run();

  // Every surviving node's detector must have declared node 1 dead.
  for (int node : {0, 2, 3, 4}) {
    EXPECT_TRUE(sys.detector(node).is_down(1)) << "node " << node;
  }
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_peers_marked_down"), 0u);
  // The reroute machinery actually fired: timeouts or wrong-primary bounces.
  EXPECT_GT(agg.get("kv_rpc_timeouts") + agg.get("kv_get_timeouts") +
                agg.get("kv_wrong_primary"),
            0u);
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);
}

// ---------------------------------------------------------------------------
// Regression: a flapping-but-alive node must NOT be marked down
// ---------------------------------------------------------------------------
// The pre-SWIM mesh detector marked a peer down after one missed heartbeat
// window and the mark was sticky forever — a brief cable wiggle permanently
// evicted a healthy node from every ring. With membership, a short outage
// only raises a refutable suspicion: once the node answers again, the
// suspicion clears everywhere and it keeps serving its buckets.

TEST(KvFaultTest, FlappingNodeKeepsItsBuckets) {
  constexpr int kN = 4;
  ClusterConfig ccfg = config_1l_1g(kN);
  // Node 1 drops off the network for 3ms — much longer than the old mesh
  // failure window, much shorter than the suspicion maturity below.
  ccfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/1, /*start=*/sim::ms(3), /*end=*/sim::ms(6)});
  CheckedCluster cluster(std::move(ccfg));

  kv::KvConfig cfg;
  cfg.replication = 2;
  cfg.clients_per_node = 1;
  cfg.heartbeat_period = sim::us(200);
  cfg.failure_timeout = sim::ms(15);  // suspicion maturity >> the outage
  kv::System sys(cluster, cfg);

  // Keys whose primary is the flapping node.
  std::vector<std::string> owned;
  for (int i = 0; owned.size() < 6; ++i) {
    const std::string k = "flap-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(k));
    if (sys.ring().replicas(p)[0] == 1) owned.push_back(k);
  }

  sys.spawn_client(0, "cli", [&](kv::Client& c) {
    for (const auto& k : owned) {
      ASSERT_EQ(c.put(k, "pre-" + k), kv::Status::kOk);
    }
    // Sleep across the outage AND past the point where the old sticky
    // detector would have declared node 1 dead many times over.
    c.pause(sim::ms(20));
    for (const auto& k : owned) {
      std::string got;
      ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
      ASSERT_EQ(got, "pre-" + k) << k;  // still served by node 1's buckets
      ASSERT_EQ(c.put(k, "post-" + k), kv::Status::kOk) << k;
    }
  });
  cluster.run();

  // Nobody ever promoted a backup: the flap never became a down-mark.
  for (int node = 0; node < kN; ++node) {
    EXPECT_FALSE(sys.detector(node).is_down(1)) << "node " << node;
    EXPECT_EQ(sys.detector(node).num_down(), 0) << "node " << node;
  }
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);
  const stats::Counters mem = sys.membership().aggregate_counters();
  EXPECT_EQ(mem.get("member_dead_marks"), 0u);
  EXPECT_GT(mem.get("member_suspects"), 0u)
      << "the outage was never even noticed — the scenario is too gentle to "
         "regress the sticky-down bug";
}

// ---------------------------------------------------------------------------
// Capacity: chain overflow, delete/free, slot reuse
// ---------------------------------------------------------------------------

TEST(KvCapacityTest, NoSpaceDeleteAndSlotReuse) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.partitions = 1;
  cfg.buckets_per_partition = 1;  // every key shares the one bucket chain
  cfg.chain_slots = 2;
  cfg.slots_per_partition = 4;
  cfg.replication = 1;
  cfg.vnodes = 4;
  cfg.clients_per_node = 1;
  kv::System sys(cluster, cfg);

  const int primary = sys.ring().replicas(0)[0];
  sys.spawn_client(1 - primary, "cli", [&](kv::Client& c) {
    ASSERT_EQ(c.put("k1", "v1"), kv::Status::kOk);
    ASSERT_EQ(c.put("k2", "v2"), kv::Status::kOk);
    ASSERT_EQ(c.put("k3", "v3"), kv::Status::kNoSpace);  // chain full
    ASSERT_EQ(c.get("k3", nullptr), kv::Status::kNotFound);
    ASSERT_EQ(c.del("k1"), kv::Status::kOk);
    ASSERT_EQ(c.del("k1"), kv::Status::kNotFound);
    ASSERT_EQ(c.put("k3", "v3"), kv::Status::kOk);  // freed slot reused
    std::string got;
    ASSERT_EQ(c.get("k3", &got), kv::Status::kOk);
    ASSERT_EQ(got, "v3");
    ASSERT_EQ(c.put("k2", "v2b"), kv::Status::kOk);  // in-place overwrite
    ASSERT_EQ(c.get("k2", &got), kv::Status::kOk);
    ASSERT_EQ(got, "v2b");
    ASSERT_EQ(c.get("k1", nullptr), kv::Status::kNotFound);
  });
  cluster.run();

  EXPECT_GT(sys.aggregate_counters().get("kv_no_space"), 0u);
  EXPECT_GT(sys.aggregate_counters().get("kv_deletes_applied"), 0u);
}

// ---------------------------------------------------------------------------
// Signal waits: host cost of an idle-heavy brokered mix
// ---------------------------------------------------------------------------

struct MixRun {
  std::uint64_t events = 0;     // Simulator::events_executed()
  std::uint64_t frames = 0;     // frames every uplink put on the wire
  std::map<std::string, stats::Counters::Value> kv;
  sim::Time end = 0;
};

// Four nodes on 2L-1G, four brokered clients each, an open-loop PUT/GET
// mix with think times: the shape of perfbench's kv-write, small. `lossy`
// drops 1 % of frames, so rails get loss history and the dispatchers wake
// every kDispatchPoll.
MixRun run_brokered_mix(bool check_wakeups, bool lossy = false) {
  ClusterConfig ccfg = config_2l_1g(4);
  if (lossy) ccfg.topology.link.drop_prob = 0.01;
  CheckedCluster cluster(ccfg);
  cluster.sim().set_check_wakeups(check_wakeups);
  kv::KvConfig cfg;
  cfg.clients_per_node = 4;
  cfg.conn_mode = kv::ConnMode::kBroker;
  kv::System sys(cluster, cfg);
  for (int node = 0; node < 4; ++node) {
    for (int c = 0; c < cfg.clients_per_node; ++c) {
      const int id = node * cfg.clients_per_node + c;
      sys.spawn_client(node, "cli", [id](kv::Client& cl) {
        std::mt19937 rng(77 + id);
        std::exponential_distribution<double> think(1.0 / 60.0);  // us
        std::string got;
        for (int i = 0; i < 24; ++i) {
          cl.pause(sim::us_d(think(rng)));
          const std::string key = "k" + std::to_string(rng() % 32);
          const kv::Status st =
              rng() % 2 ? cl.put(key, std::string(64, 'a' + id % 26))
                        : cl.get(key, &got);
          ASSERT_TRUE(st == kv::Status::kOk || st == kv::Status::kNotFound)
              << kv::status_str(st);
        }
      });
    }
  }
  cluster.run();
  MixRun run;
  run.events = cluster.sim().events_executed();
  for (int n = 0; n < 4; ++n) {
    for (int r = 0; r < cluster.network().rails(); ++r) {
      run.frames += cluster.network().uplink(n, r).stats().frames_sent;
    }
  }
  run.kv = sys.aggregate_counters().all();
  run.end = cluster.sim().now();
  return run;
}

// Idle waiters have no events, so the simulator runs a handful of events
// per wire frame (about 90 per frame under the old 500 ns poll grid), and
// the wakeup oracle, which checks every blocked wait after every event,
// does not change the run.
TEST(KvWaitTest, BrokeredMixRunsAtMostTwentyEventsPerFrame) {
  const MixRun plain = run_brokered_mix(false);
  const MixRun checked = run_brokered_mix(true);
  EXPECT_EQ(plain.events, checked.events);
  EXPECT_EQ(plain.frames, checked.frames);
  EXPECT_EQ(plain.kv, checked.kv);
  EXPECT_EQ(plain.end, checked.end);
  ASSERT_GT(plain.frames, 0u);
  EXPECT_LE(plain.events, 20 * plain.frames)
      << static_cast<double>(plain.events) / plain.frames
      << " events per frame";
}

// With loss the dispatchers also wake every kDispatchPoll to re-read the
// rail health; the run must still match the oracle's exactly.
TEST(KvWaitTest, LossyBrokeredMixMatchesTheOracleRun) {
  const MixRun plain = run_brokered_mix(false, /*lossy=*/true);
  const MixRun checked = run_brokered_mix(true, /*lossy=*/true);
  EXPECT_EQ(plain.events, checked.events);
  EXPECT_EQ(plain.frames, checked.frames);
  EXPECT_EQ(plain.kv, checked.kv);
  EXPECT_EQ(plain.end, checked.end);
  EXPECT_GT(plain.kv.at("svc_rail_throttled"), 0u);
}

// ---------------------------------------------------------------------------
// Node memory: the store commits only the records it writes
// ---------------------------------------------------------------------------

// perfbench kv-write's store: 4 nodes on 2L-1G with 128 MiB each, 8
// brokered clients per node, 4 KiB values, R = 2, 1024 keys.
constexpr int kMemNodes = 4;
constexpr int kMemClients = 8;
constexpr int kMemKeys = 1024;
constexpr std::size_t kMemValueBytes = 4096;

ClusterConfig kv_write_cluster() {
  ClusterConfig ccfg = config_2l_1g(kMemNodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;
  return ccfg;
}

kv::KvConfig kv_write_store() {
  kv::KvConfig cfg;
  cfg.clients_per_node = kMemClients;
  cfg.max_value_bytes = kMemValueBytes;
  cfg.replication = 2;
  cfg.conn_mode = kv::ConnMode::kBroker;
  return cfg;
}

/// One capacity-sized region of the store on `node`.
std::span<const std::byte> slab_of(Cluster& cluster, const kv::System& sys,
                                   int node) {
  const kv::KvConfig& cfg = sys.config();
  const std::size_t bytes = std::size_t{1} * cfg.partitions *
                            cfg.slots_per_partition *
                            sys.domain().record_stride();
  return cluster.memory(node).view(sys.domain().slot_va(0, 0), bytes);
}
std::span<const std::byte> buckets_of(Cluster& cluster, const kv::System& sys,
                                      int node) {
  const kv::KvConfig& cfg = sys.config();
  const std::size_t bytes = std::size_t{1} * cfg.partitions *
                            cfg.buckets_per_partition *
                            sys.domain().bucket_entry_bytes();
  return cluster.memory(node).view(sys.domain().bucket_entry_va(0, 0), bytes);
}

/// The whole pages of every client slot's GET landing buffers on `node`:
/// the region is 64-byte aligned, so its first and last pages also hold the
/// regions carved next to it (ack words, membership words), which other
/// writes fault in. The arena is page-aligned, so VA pages are pages.
std::span<const std::byte> get_bufs_of(Cluster& cluster, const kv::System& sys,
                                       int node) {
  const std::uint64_t page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  const std::uint64_t va = sys.domain().get_buf_va(0, 0);
  const std::uint64_t end = va + std::uint64_t{1} *
                                     sys.config().clients_per_node *
                                     kv::KvDomain::kGetBufSets *
                                     sys.domain().get_buf_stride();
  const std::uint64_t first = (va + page - 1) / page * page;
  return cluster.memory(node).view(first, end / page * page - first);
}

std::size_t resident(std::span<const std::byte> region) {
  return testing_util::resident_pages(region.data(), region.size());
}

/// Spawn kv-write's clients: each PUTs its share of the keys, then calls
/// `after_preload(client, id)`.
void spawn_preload(kv::System& sys,
                   std::function<void(kv::Client&, int)> after_preload) {
  for (int node = 0; node < kMemNodes; ++node) {
    for (int c = 0; c < kMemClients; ++c) {
      const int id = node * kMemClients + c;
      sys.spawn_client(node, "cli", [id, after_preload](kv::Client& cl) {
        const std::string value(kMemValueBytes,
                                static_cast<char>('a' + id % 26));
        for (int k = id; k < kMemKeys; k += kMemNodes * kMemClients) {
          ASSERT_EQ(cl.put("k" + std::to_string(k), value), kv::Status::kOk);
        }
        after_preload(cl, id);
      });
    }
  }
}

// The slab is 32 partitions x 256 slots x a ~4.1 KiB stride, about 32.5 MiB
// a node; preload writes 1024 keys x R = 2 records over the four nodes. The
// store commits those records' pages, not the capacity (about 130 MiB).
TEST(KvMemory, SetupCommitsOnlyWhatPreloadWrites) {
  Cluster cluster(kv_write_cluster());
  const long before = testing_util::resident_kib();
  ASSERT_GE(before, 0);
  kv::System sys(cluster, kv_write_store());
  spawn_preload(sys, [](kv::Client&, int) {});
  cluster.run();
  const long grown = testing_util::resident_kib() - before;
  const long records_kib =
      2L * kMemKeys * sys.domain().record_stride() / 1024;
  // Slack: a partially written page at each partition's slab end, bucket
  // and seq-table pages, rings, fiber stacks and the heap of the run (about
  // 5 MiB); under ASan, that heap's shadow, redzones and quarantine (about
  // 46 MiB).
  EXPECT_LT(grown, records_kib + 8 * 1024 + testing_util::kShadowPerGibKib / 2)
      << "records " << records_kib << " KiB";
  std::size_t slab_pages = 0;
  for (int n = 0; n < kMemNodes; ++n) {
    slab_pages += resident(slab_of(cluster, sys, n));
  }
  // Each record's pages, and at most one more per (node, partition).
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t written = 2 * std::size_t{kMemKeys} *
                              sys.domain().record_stride() / page;
  EXPECT_GE(slab_pages, written);
  EXPECT_LE(slab_pages,
            written + std::size_t{kMemNodes} * 2 * sys.config().partitions);
}

// A PUT to an existing key overwrites its slot in place, so a window of
// overwrites (all of kv-write's measured PUTs) faults in no slab or bucket
// page.
TEST(KvMemory, OverwritesTakeNoFreshSlot) {
  Cluster cluster(kv_write_cluster());
  kv::System sys(cluster, kv_write_store());
  constexpr int kClients = kMemNodes * kMemClients;
  kv::HostBarrier loaded, measured, done;
  std::vector<std::size_t> slab_before(kMemNodes), slab_after(kMemNodes);
  std::vector<std::size_t> buckets_before(kMemNodes), buckets_after(kMemNodes);
  const auto snapshot = [&](std::vector<std::size_t>& slab,
                            std::vector<std::size_t>& buckets) {
    for (int n = 0; n < kMemNodes; ++n) {
      slab[n] = resident(slab_of(cluster, sys, n));
      buckets[n] = resident(buckets_of(cluster, sys, n));
    }
  };
  spawn_preload(sys, [&](kv::Client& cl, int id) {
    loaded.arrive_and_wait(kClients);
    if (id == 0) snapshot(slab_before, buckets_before);
    measured.arrive_and_wait(kClients);
    const std::string value(kMemValueBytes, 'z');
    for (int round = 0; round < 2; ++round) {
      for (int k = (id + 7 * round) % kClients; k < kMemKeys; k += kClients) {
        ASSERT_EQ(cl.put("k" + std::to_string(k), value), kv::Status::kOk);
      }
    }
    done.arrive_and_wait(kClients);
    if (id == 0) snapshot(slab_after, buckets_after);
  });
  cluster.run();
  // Most of each slab is still unfaulted after preload, so a fresh slot
  // would show.
  const std::size_t slab_total = slab_of(cluster, sys, 0).size() /
                                 static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  for (int n = 0; n < kMemNodes; ++n) {
    EXPECT_GT(slab_before[n], 0u) << "node " << n;
    EXPECT_LT(slab_before[n], slab_total / 4) << "node " << n;
  }
  EXPECT_EQ(slab_after, slab_before);
  EXPECT_EQ(buckets_after, buckets_before);
}

// A GET lands its bucket entry and `count` records in one set of its
// client's landing buffers, the first set no timed-out read still holds:
// set 0 on a clean fabric. Setup and preload (PUTs only) commit none of the
// region's pages, and a window of GETs commits at most each client's set 0.
TEST(KvMemory, GetsCommitOnlyTheLandingSetTheyWrite) {
  Cluster cluster(kv_write_cluster());
  kv::System sys(cluster, kv_write_store());
  constexpr int kClients = kMemNodes * kMemClients;
  constexpr int kGetsPerClient = 32;
  const auto snapshot = [&](std::vector<std::size_t>& pages) {
    pages.resize(kMemNodes);
    for (int n = 0; n < kMemNodes; ++n) {
      pages[n] = resident(get_bufs_of(cluster, sys, n));
    }
  };
  std::vector<std::size_t> after_setup, after_preload, after_gets;
  snapshot(after_setup);
  kv::HostBarrier loaded, measured, done;
  spawn_preload(sys, [&](kv::Client& cl, int id) {
    loaded.arrive_and_wait(kClients);
    if (id == 0) snapshot(after_preload);
    measured.arrive_and_wait(kClients);
    std::string got;
    for (int i = 0; i < kGetsPerClient; ++i) {
      const int k = (id + i * kClients) % kMemKeys;
      ASSERT_EQ(cl.get("k" + std::to_string(k), &got), kv::Status::kOk);
    }
    done.arrive_and_wait(kClients);
    if (id == 0) snapshot(after_gets);
  });
  cluster.run();
  EXPECT_EQ(sys.aggregate_counters().get("kv_get_timeouts"), 0u);

  // The pages each client's set 0 overlaps.
  const std::uint64_t page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  std::set<std::uint64_t> set0_pages;
  for (int c = 0; c < kMemClients; ++c) {
    const std::uint64_t va = sys.domain().get_buf_va(c, 0);
    const std::uint64_t end = va + sys.domain().get_buf_stride();
    for (std::uint64_t p = va / page; p <= (end - 1) / page; ++p) {
      set0_pages.insert(p);
    }
  }
  const std::size_t region_pages =
      get_bufs_of(cluster, sys, 0).size() / page;
  ASSERT_LT(set0_pages.size(), region_pages / 4);
  std::size_t landed = 0;
  for (int n = 0; n < kMemNodes; ++n) {
    EXPECT_EQ(after_setup[n], 0u) << "node " << n;
    EXPECT_EQ(after_preload[n], 0u) << "node " << n;
    EXPECT_LE(after_gets[n], set0_pages.size()) << "node " << n;
    landed += after_gets[n];
  }
  EXPECT_GT(landed, 0u);
}

// A slot no PUT has written is reserved, not committed, and reads as a zero
// header: version 0, even, so a one-sided reader never sees it as torn.
TEST(KvMemory, ReservedSlotReadsAsAZeroEvenVersionHeader) {
  Cluster cluster(config_1l_1g(2));
  kv::System sys(cluster);
  const kv::KvConfig& cfg = sys.config();
  const auto header = [&](int node, int partition, std::uint32_t slot) {
    // RecordHeader: version, checksum, seq, key_len, val_len (32 bytes).
    return cluster.memory(node).view(sys.domain().slot_va(partition, slot),
                                     32);
  };
  // Slots far from the ones the PUTs fill, so no written record shares
  // their page, and a different one each time: a read maps the zero page,
  // which mincore counts.
  const auto expect_reserved_zero = [&](std::uint32_t slot, const char* when) {
    for (int n = 0; n < 2; ++n) {
      for (int p = 0; p < cfg.partitions; ++p) {
        EXPECT_EQ(resident(header(n, p, slot)), 0u)
            << when << ": node " << n << " partition " << p;
        const auto h = header(n, p, slot);
        EXPECT_TRUE(std::all_of(h.begin(), h.end(),
                                [](std::byte b) { return b == std::byte{0}; }))
            << when << ": node " << n << " partition " << p;
      }
    }
  };
  expect_reserved_zero(cfg.slots_per_partition / 4, "before any PUT");
  std::string got;
  sys.spawn_client(0, "cli", [&](kv::Client& cl) {
    EXPECT_EQ(cl.get("never-written", &got), kv::Status::kNotFound);
    for (int k = 0; k < 64; ++k) {
      ASSERT_EQ(cl.put("k" + std::to_string(k), "v"), kv::Status::kOk);
    }
  });
  cluster.run();
  expect_reserved_zero(cfg.slots_per_partition / 2, "after 64 PUTs");
  for (int n = 0; n < 2; ++n) {
    std::uint64_t version = 0;
    std::memcpy(&version, header(n, 0, 0).data(), sizeof(version));
    EXPECT_EQ(version % 2, 0u);
  }
}

}  // namespace
}  // namespace multiedge
