// Observability subsystem: TraceRecorder ring semantics, LatencyHistogram
// percentile accuracy, TimeSeries caps, Chrome trace-event export structure,
// zero-cost-when-off, and byte-identical traces across same-seed runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "kv/kv.hpp"
#include "member/member.hpp"
#include "stats/json.hpp"
#include "trace/export.hpp"
#include "trace/histogram.hpp"
#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace multiedge {
namespace {

using trace::Event;
using trace::EventType;
using trace::LatencyHistogram;
using trace::TimeSeries;
using trace::TraceRecorder;

// ---------------------------------------------------------------- ring buffer

TEST(TraceRecorder, RecordsInOrderBelowCapacity) {
  TraceRecorder rec(8);
  for (int i = 0; i < 5; ++i) {
    rec.record(i * 100, EventType::kNicTx, /*node=*/0, /*rail=*/0, -1, i, 0);
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_FALSE(rec.wrapped());
  const std::vector<Event> ev = rec.events();
  ASSERT_EQ(ev.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ev[i].ts, i * 100);
    EXPECT_EQ(ev[i].a, static_cast<std::uint64_t>(i));
  }
}

TEST(TraceRecorder, WraparoundKeepsNewestOldestFirst) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(i, EventType::kNicRx, 0, 0, -1, i, 0);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_TRUE(rec.wrapped());
  const std::vector<Event> ev = rec.events();
  ASSERT_EQ(ev.size(), 4u);
  // The four newest events (6,7,8,9), oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ev[i].a, static_cast<std::uint64_t>(6 + i));
  }
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder rec(4);
  rec.record(1, EventType::kIrq, 0, 0, -1, 0, 3);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EventNamesAndCategoriesCoverAllTypes) {
  for (int t = 0; t <= static_cast<int>(EventType::kDsmDiffFlush); ++t) {
    const auto type = static_cast<EventType>(t);
    EXPECT_NE(trace::event_name(type), "?") << t;
    EXPECT_NE(trace::event_category(type), "?") << t;
  }
}

// ----------------------------------------------------------------- histogram

TEST(LatencyHistogram, ExactBelowSubBucketRange) {
  LatencyHistogram h;
  for (std::uint64_t v : {3u, 7u, 7u, 15u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 15u);
  // Values < 16 land in exact buckets.
  EXPECT_EQ(h.percentile(0.5), 7u);
}

TEST(LatencyHistogram, PercentilesWithinLogBucketError) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  // 16 sub-buckets per power of two: <= 6.25% relative bucketing error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.p95()), 950.0, 950.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.p99()), 990.0, 990.0 * 0.07);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(LatencyHistogram, PercentileClampsToObservedRange) {
  LatencyHistogram h;
  h.record(1'000'000);
  EXPECT_EQ(h.percentile(0.0), 1'000'000u);
  EXPECT_EQ(h.percentile(1.0), 1'000'000u);
  EXPECT_EQ(h.p99(), 1'000'000u);
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

// ---------------------------------------------------------------- timeseries

TEST(TimeSeries, CapsAtMaxSamplesKeepingEarliest) {
  TimeSeries s("q", /*max_samples=*/3);
  for (int i = 0; i < 5; ++i) s.sample(i * 10, i);
  EXPECT_EQ(s.samples().size(), 3u);
  EXPECT_TRUE(s.truncated());
  EXPECT_EQ(s.samples()[0].first, 0);
  EXPECT_EQ(s.samples()[2].first, 20);
}

// ------------------------------------------------------- cluster integration

ClusterConfig traced_config() {
  ClusterConfig cfg = config_2l_1g(2);
  cfg.trace.enabled = true;
  return cfg;
}

// Runs a small workload exercising engine, NIC, connection, and DSM-free
// paths; returns the cluster's chrome trace JSON.
std::string run_traced(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  constexpr std::size_t kSize = 96 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    c.rdma_write(dst, src, kSize, kOpFlagNotify).wait();
    std::uint64_t back = ep.alloc(4096);
    c.rdma_read(back, dst, 4096).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  EXPECT_NE(cluster.tracer(), nullptr);
  EXPECT_GT(cluster.tracer()->size(), 0u);
  std::ostringstream os;
  cluster.write_trace(os);
  return os.str();
}

TEST(ClusterTrace, OffByDefaultAllocatesNothing) {
  Cluster cluster(config_1l_1g(2));
  EXPECT_EQ(cluster.tracer(), nullptr);
  EXPECT_TRUE(cluster.time_series().empty());
  std::ostringstream os;
  cluster.write_trace(os);  // must be a no-op
  EXPECT_TRUE(os.str().empty());
}

TEST(ClusterTrace, ChromeTraceIsStructurallyValidJson) {
  const std::string doc = run_traced(traced_config());
  stats::json::Value v;
  std::string err;
  ASSERT_TRUE(stats::json::parse(doc, v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  const stats::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array.size(), 10u);

  bool saw_meta = false;
  std::vector<std::string> seen_cats;
  for (const auto& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const stats::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      saw_meta = true;
      continue;
    }
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->string == "C") continue;  // counter samples carry args.value
    const stats::json::Value* cat = e.find("cat");
    ASSERT_NE(cat, nullptr);
    seen_cats.push_back(cat->string);
    if (ph->string == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
  }
  EXPECT_TRUE(saw_meta);
  auto saw = [&](const char* c) {
    for (const auto& s : seen_cats) {
      if (s == c) return true;
    }
    return false;
  };
  // Events from the NIC, engine, and connection layers all present.
  EXPECT_TRUE(saw("nic"));
  EXPECT_TRUE(saw("engine"));
  EXPECT_TRUE(saw("conn"));
}

TEST(ClusterTrace, SameSeedRunsProduceIdenticalTraces) {
  const std::string a = run_traced(traced_config());
  const std::string b = run_traced(traced_config());
  EXPECT_EQ(a, b);
}

TEST(ClusterTrace, TimeSeriesSamplersCoverNodesAndRails) {
  ClusterConfig cfg = traced_config();
  Cluster cluster(cfg);
  constexpr std::size_t kSize = 64 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();
  // Per node: window occupancy, outstanding ops, submission-ring occupancy,
  // and one tx/rx pair per rail.
  const auto& series = cluster.time_series();
  ASSERT_EQ(series.size(),
            2u * (3u + 2u * static_cast<unsigned>(cfg.topology.rails)));
  bool any_samples = false;
  for (const auto& s : series) {
    if (!s->samples().empty()) any_samples = true;
  }
  EXPECT_TRUE(any_samples);
}

TEST(ClusterTrace, DsmEventsAppearInTrace) {
  // The DSM layers record page fetches via the cluster tracer; exercise a
  // tiny fetch through the protocol read path used by dsm::fetch_batch.
  // (A full DSM app run is in dsm_test; here we just need the hook live.)
  ClusterConfig cfg = traced_config();
  Cluster cluster(cfg);
  ASSERT_NE(cluster.tracer(), nullptr);
  // Record a synthetic DSM span exactly as dsm.cpp does and check export.
  cluster.tracer()->record_span(1000, 500, trace::EventType::kDsmPageFetch,
                                /*node=*/0, /*rail=*/-1, /*conn=*/-1,
                                /*a=*/7, /*b=*/4096);
  std::ostringstream os;
  cluster.write_trace(os);
  stats::json::Value v;
  ASSERT_TRUE(stats::json::parse(os.str(), v));
  const stats::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_dsm = false;
  for (const auto& e : events->array) {
    const stats::json::Value* cat = e.find("cat");
    if (cat && cat->string == "dsm") saw_dsm = true;
  }
  EXPECT_TRUE(saw_dsm);
}

// --------------------------------------------------------- golden determinism

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenRun {
  std::uint64_t counters_fnv = 0;
  std::uint64_t trace_fnv = 0;
  std::size_t trace_bytes = 0;
  std::uint64_t data_frames_rcvd = 0;
  std::uint64_t retransmissions = 0;
};

// A fixed scenario exercising the whole hot path: striped in-order delivery,
// a small window (forcing seq-ring wraparound), loss + duplication (forcing
// gap tracking and retransmission), a write and a read.
GoldenRun golden_run(bool lossy) {
  ClusterConfig cfg = config_2l_1g(2);
  cfg.trace.enabled = true;
  if (lossy) {
    cfg.topology.link.drop_prob = 0.02;
    cfg.topology.link.dup_prob = 0.01;
    cfg.protocol.window_frames = 8;
  }
  Cluster cluster(cfg);
  constexpr std::size_t kSize = 96 * 1024;
  const std::uint64_t src = cluster.memory(0).alloc(kSize);
  const std::uint64_t dst = cluster.memory(1).alloc(kSize);
  cluster.spawn(0, "w", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    c.rdma_write(dst, src, kSize, kOpFlagNotify).wait();
    std::uint64_t back = ep.alloc(4096);
    c.rdma_read(back, dst, 4096).wait();
  });
  cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
  cluster.run();

  stats::Counters all = cluster.engine(0).aggregate_counters();
  all.merge(cluster.engine(1).aggregate_counters());
  GoldenRun g;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : all.all()) {
    h = fnv1a(name, h);
    h = fnv1a("=", h);
    h = fnv1a(std::to_string(value), h);
    h = fnv1a("\n", h);
  }
  g.counters_fnv = h;
  std::ostringstream os;
  cluster.write_trace(os);
  const std::string doc = os.str();
  g.trace_fnv = fnv1a(doc);
  g.trace_bytes = doc.size();
  g.data_frames_rcvd = all.get("data_frames_rcvd");
  g.retransmissions = all.get("retransmissions");
  return g;
}

// The counters fingerprints were captured from the tree BEFORE the hot-path
// overhaul (frame pool, ring-indexed window state, event-queue rewrite) and
// have been preserved bit-identical by every change since — any drift there
// means protocol behavior changed, not just speed. The trace constants cover
// the Chrome-trace export bytes and were re-captured when the submit_ring
// sampler track was added (a pure-export addition; the counters hashes were
// untouched by it).
//
// The trace hash covers floating-point formatting, so the constants are
// toolchain-sensitive; set MULTIEDGE_SKIP_GOLDEN=1 to skip on other stacks.
TEST(GoldenDeterminism, CleanRunMatchesPreRefactorFingerprint) {
  if (std::getenv("MULTIEDGE_SKIP_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden fingerprints skipped by env";
  }
  const GoldenRun g = golden_run(/*lossy=*/false);
  EXPECT_EQ(g.counters_fnv, 3365255438641469871ull) << "counters drifted";
  EXPECT_EQ(g.trace_fnv, 1681455092980360927ull) << "trace bytes drifted";
  EXPECT_EQ(g.trace_bytes, 183161u);
  EXPECT_EQ(g.data_frames_rcvd, 73u);
  EXPECT_EQ(g.retransmissions, 0u);
}

TEST(GoldenDeterminism, LossyRunMatchesPreRefactorFingerprint) {
  if (std::getenv("MULTIEDGE_SKIP_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden fingerprints skipped by env";
  }
  const GoldenRun g = golden_run(/*lossy=*/true);
  EXPECT_EQ(g.counters_fnv, 17724119311279834208ull) << "counters drifted";
  EXPECT_EQ(g.trace_fnv, 6769585735799952412ull) << "trace bytes drifted";
  EXPECT_EQ(g.trace_bytes, 2106903u);
  EXPECT_EQ(g.data_frames_rcvd, 74u);
  EXPECT_EQ(g.retransmissions, 1u);
}

// The hierarchical topologies (two-level tree, fat-tree with ECMP spines)
// must be exactly as deterministic as the flat switch: two runs of the same
// seeded scenario produce bit-identical counters and trace exports. Unlike
// the fingerprint constants above this compares run-vs-run, so it holds on
// any toolchain.
GoldenRun hierarchical_run(int spines) {
  ClusterConfig cfg = config_1l_1g(8);
  cfg.topology.edge_groups = 4;
  cfg.topology.spines = spines;
  cfg.topology.link.drop_prob = 0.01;  // exercise retransmission too
  cfg.trace.enabled = true;
  Cluster cluster(cfg);
  constexpr std::size_t kSize = 64 * 1024;
  std::uint64_t src = 0, dst = 0;
  for (int i = 0; i < 8; ++i) {
    src = cluster.memory(i).alloc(kSize);
    dst = cluster.memory(i).alloc(kSize);
  }
  // Cross-group traffic from several sources so both spines carry frames.
  for (int s : {0, 1, 2}) {
    cluster.spawn(s, "w" + std::to_string(s), [&, s](Endpoint& ep) {
      ep.connect(s + 5).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
    });
    cluster.spawn(s + 5, "r" + std::to_string(s),
                  [](Endpoint& ep) { ep.wait_notification(); });
  }
  cluster.run();

  stats::Counters all;
  for (int i = 0; i < 8; ++i) all.merge(cluster.engine(i).aggregate_counters());
  GoldenRun g;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : all.all()) {
    h = fnv1a(name, h);
    h = fnv1a("=", h);
    h = fnv1a(std::to_string(value), h);
    h = fnv1a("\n", h);
  }
  g.counters_fnv = h;
  std::ostringstream os;
  cluster.write_trace(os);
  const std::string doc = os.str();
  g.trace_fnv = fnv1a(doc);
  g.trace_bytes = doc.size();
  g.data_frames_rcvd = all.get("data_frames_rcvd");
  g.retransmissions = all.get("retransmissions");
  return g;
}

TEST(GoldenDeterminism, TwoLevelTreeSameSeedRunsAreBitIdentical) {
  const GoldenRun a = hierarchical_run(/*spines=*/1);
  const GoldenRun b = hierarchical_run(/*spines=*/1);
  EXPECT_EQ(a.counters_fnv, b.counters_fnv);
  EXPECT_EQ(a.trace_fnv, b.trace_fnv);
  EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  EXPECT_GT(a.data_frames_rcvd, 0u);
}

TEST(GoldenDeterminism, FatTreeSameSeedRunsAreBitIdentical) {
  const GoldenRun a = hierarchical_run(/*spines=*/2);
  const GoldenRun b = hierarchical_run(/*spines=*/2);
  EXPECT_EQ(a.counters_fnv, b.counters_fnv);
  EXPECT_EQ(a.trace_fnv, b.trace_fnv);
  EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  EXPECT_GT(a.data_frames_rcvd, 0u);
  // And the two shapes are genuinely different fabrics, not aliases.
  const GoldenRun two = hierarchical_run(/*spines=*/1);
  EXPECT_NE(a.counters_fnv, two.counters_fnv);
}

// ------------------------------------------------------ causal span stitching

struct KvTraceRun {
  std::vector<Event> events;
  int primary = -1;
  int backup = -1;
};

// One KV PUT from node 0 to a partition served entirely by nodes 1/2, so the
// request crosses the wire to the primary AND replicates to a distinct
// backup: client op span -> request op -> primary handler -> replication op
// -> backup apply, all under one trace id.
KvTraceRun kv_traced_put() {
  ClusterConfig cfg = config_1l_1g(3);
  cfg.trace.enabled = true;
  Cluster cluster(cfg);
  kv::System sys(cluster);
  KvTraceRun run;
  std::string key;
  for (int i = 0; key.empty() && i < 10000; ++i) {
    std::string k = "span-key-" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(k));
    const auto& reps = sys.ring().replicas(p);
    if (reps[0] != 0 && reps[1] != 0) {
      key = k;
      run.primary = reps[0];
      run.backup = reps[1];
    }
  }
  EXPECT_FALSE(key.empty());
  sys.spawn_client(0, "cli", [&](kv::Client& c) {
    EXPECT_EQ(c.put(key, "stitched"), kv::Status::kOk);
  });
  cluster.run();
  run.events = cluster.tracer()->events();
  return run;
}

TEST(SpanStitching, KvPutStitchesClientHandlerAndReplication) {
  const KvTraceRun run = kv_traced_put();
  ASSERT_GE(run.primary, 1);
  ASSERT_GE(run.backup, 1);

  const Event* op = nullptr;       // client-side root span
  const Event* handler = nullptr;  // primary RPC handler
  const Event* repl = nullptr;     // backup replication apply
  for (const Event& e : run.events) {
    if (e.type == EventType::kKvOp) {
      ASSERT_EQ(op, nullptr) << "one PUT must record exactly one client span";
      op = &e;
    } else if (e.type == EventType::kKvHandler) {
      ASSERT_EQ(handler, nullptr);
      handler = &e;
    } else if (e.type == EventType::kKvRepl) {
      ASSERT_EQ(repl, nullptr);
      repl = &e;
    }
  }
  ASSERT_NE(op, nullptr);
  ASSERT_NE(handler, nullptr);
  ASSERT_NE(repl, nullptr);

  // One distributed PUT = ONE trace id spanning all three nodes.
  EXPECT_NE(op->trace_id, 0u);
  EXPECT_EQ(op->node, 0);
  EXPECT_EQ(op->parent_span, 0u) << "client op is the root span";
  EXPECT_EQ(handler->trace_id, op->trace_id);
  EXPECT_EQ(handler->node, run.primary);
  EXPECT_NE(handler->parent_span, 0u);
  EXPECT_EQ(repl->trace_id, op->trace_id);
  EXPECT_EQ(repl->node, run.backup);
  EXPECT_NE(repl->parent_span, 0u);

  // Every parent link resolves to a recorded event of the SAME trace
  // (op_submit instants anchor fire-and-forget ops whose ack never landed),
  // and walking parents from the backup's apply span reaches the client
  // root — the Perfetto rendering is a single connected tree.
  auto find_span = [&](std::uint64_t span_id) -> const Event* {
    for (const Event& e : run.events) {
      if (e.trace_id == op->trace_id && e.span_id == span_id) return &e;
    }
    return nullptr;
  };
  const Event* cur = repl;
  int hops = 0;
  bool via_handler = false;
  while (cur->parent_span != 0) {
    cur = find_span(cur->parent_span);
    ASSERT_NE(cur, nullptr) << "dangling parent link after " << hops << " hops";
    if (cur == handler) via_handler = true;
    ASSERT_LT(++hops, 16) << "parent chain does not terminate";
  }
  EXPECT_EQ(cur, op) << "replication chain must root at the client span";
  EXPECT_TRUE(via_handler) << "replication must pass through the handler span";

  // Timing sanity: child spans nest inside the trace's causal order.
  EXPECT_LE(op->ts, handler->ts);
  EXPECT_LE(handler->ts, repl->ts);
}

TEST(SpanStitching, SameSeedRunsStitchIdentically) {
  const KvTraceRun a = kv_traced_put();
  const KvTraceRun b = kv_traced_put();
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const Event& x = a.events[i];
    const Event& y = b.events[i];
    ASSERT_EQ(x.ts, y.ts) << "event " << i;
    ASSERT_EQ(x.dur, y.dur) << "event " << i;
    ASSERT_EQ(static_cast<int>(x.type), static_cast<int>(y.type))
        << "event " << i;
    ASSERT_EQ(x.node, y.node) << "event " << i;
    ASSERT_EQ(x.a, y.a) << "event " << i;
    ASSERT_EQ(x.b, y.b) << "event " << i;
    ASSERT_EQ(x.trace_id, y.trace_id) << "event " << i;
    ASSERT_EQ(x.span_id, y.span_id) << "event " << i;
    ASSERT_EQ(x.parent_span, y.parent_span) << "event " << i;
  }
}

// ------------------------------------------------------------ flight recorder

TEST(FlightRecorder, ForcedViolationDumpsPostmortem) {
  const std::string path = ::testing::TempDir() + "multiedge_pm_forced.json";
  std::remove(path.c_str());
  {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.trace.flight_recorder = true;
    cfg.trace.postmortem_path = path;
    cfg.protocol.check_invariants = true;
    Cluster cluster(cfg);
    constexpr std::size_t kSize = 32 * 1024;
    const std::uint64_t src = cluster.memory(0).alloc(kSize);
    const std::uint64_t dst = cluster.memory(1).alloc(kSize);
    member::Service svc(cluster);  // contributes the "membership" section
    cluster.spawn(0, "w", [&](Endpoint& ep) {
      ep.connect(1).rdma_write(dst, src, kSize, kOpFlagNotify).wait();
      svc.stop();
    });
    cluster.spawn(1, "r", [&](Endpoint& ep) { ep.wait_notification(); });
    cluster.run();

    // Flight-recorder mode: the black-box ring is live (hooks attached),
    // but no periodic samplers and no full-trace export machinery.
    ASSERT_NE(cluster.tracer(), nullptr);
    EXPECT_GT(cluster.tracer()->size(), 0u);
    EXPECT_TRUE(cluster.time_series().empty());

    // Tripping the invariant checker must write the black box exactly once.
    ASSERT_NE(cluster.engine(0).checker(), nullptr);
    cluster.engine(0).checker()->force_violation("trace_test forced failure");
    EXPECT_EQ(cluster.trigger_postmortem("second trigger must be ignored"),
              "");
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "postmortem file missing: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  stats::json::Value v;
  std::string err;
  ASSERT_TRUE(stats::json::parse(buf.str(), v, &err)) << err;
  ASSERT_TRUE(v.is_object());

  const stats::json::Value* reason = v.find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_NE(reason->string.find("invariant violation"), std::string::npos);
  EXPECT_NE(reason->string.find("forced failure"), std::string::npos);
  EXPECT_NE(v.find("sim_time_ps"), nullptr);

  const stats::json::Value* events = v.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 0u);

  const stats::json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("data_frames_rcvd"), nullptr);

  const stats::json::Value* rails = v.find("rail_health");
  ASSERT_NE(rails, nullptr);
  const stats::json::Value* node0 = rails->find("node0");
  ASSERT_NE(node0, nullptr);
  EXPECT_EQ(node0->array.size(), 1u);  // config_1l_1g: one rail per node

  const stats::json::Value* viols = v.find("invariant_violations");
  ASSERT_NE(viols, nullptr);
  ASSERT_GE(viols->array.size(), 1u);
  EXPECT_NE(viols->array[0].string.find("forced failure"), std::string::npos);

  const stats::json::Value* membership = v.find("membership");
  ASSERT_NE(membership, nullptr);
  const stats::json::Value* nodes = membership->find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->array.size(), 2u);

  std::remove(path.c_str());
}

TEST(FlightRecorder, PostmortemDisabledWhenRecorderOff) {
  Cluster cluster(config_1l_1g(2));
  EXPECT_EQ(cluster.tracer(), nullptr);
  EXPECT_EQ(cluster.trigger_postmortem("nothing to dump"), "");
}

}  // namespace
}  // namespace multiedge
