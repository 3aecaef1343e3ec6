#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>

#include "apps/harness.hpp"
#include "bench_common.hpp"
#include "dsm/dsm.hpp"
#include "kv/kv.hpp"

namespace perfbench {
namespace {

// --- sizes (one repetition) -------------------------------------------------

constexpr int kStreamWrites = 8000;
constexpr std::size_t kStreamDepth = 8;  // writes in flight
constexpr std::uint32_t kStreamPoolBytes = 1u << 20;   // source pattern
constexpr std::uint32_t kStreamRingBytes = 16u << 20;  // destination ring
constexpr std::uint32_t kBlock = 4096;

constexpr int kKvNodes = 4;
constexpr int kKvClients = 8;  // per node
constexpr int kKvKeys = 1024;
constexpr double kKvTheta = 0.99;
constexpr std::size_t kValueBytes = 4096;
constexpr int kReadOps = 200;  // per client, closed loop
constexpr double kReadGetFrac = 0.95;
constexpr double kWriteGetFrac = 0.50;
/// Per-client mean inter-arrival of kv-write: 32 clients at 1120 us offer
/// 28.6 Kops/s, 0.6x the 47.9 Kops/s this mix saturates at through the
/// broker (closed loop, 32 clients, seed 1). At 0.8x the open-loop p99
/// moved 15-45% from seed to seed; at 0.6x queueing still triples p50 at
/// the tail, and the p99 holds within about 10%.
constexpr double kWriteArrivalUs = 1120.0;
/// Open-loop schedule length: each client's Poisson arrivals up to this
/// simulated horizon, so the window length does not depend on the seed.
constexpr sim::Time kWriteHorizon = sim::ms(250);
/// An arrival this late is shed by the generator. Far beyond the tail at
/// this load, so shedding means the system fell behind, not noise.
constexpr sim::Time kShedAfter = sim::ms(20);

constexpr int kRadixNodes = 8;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return kv::mix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

void apply_trace(ClusterConfig& cfg, const RepOptions& o) {
  if (!o.traced) return;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = o.ring_capacity;
}

/// A window edge: simulated instant, host instant, and counter snapshot.
/// The start mark snapshots before reading the host clock and the end mark
/// after, so snapshot cost stays outside the measured wall time.
struct Mark {
  bool set = false;
  sim::Time t = 0;
  Clock::time_point host;
  Snap snap;
};

void mark_start(Mark& m, Cluster& c, const Upper& u = {}) {
  m.snap = snapshot(c, u);
  m.t = c.sim().now();
  m.set = true;
  m.host = Clock::now();
}

void mark_end(Mark& m, Cluster& c, const Upper& u = {}) {
  m.host = Clock::now();
  m.t = c.sim().now();
  m.set = true;
  m.snap = snapshot(c, u);
}

/// Fill in the window numbers every workload shares, then fold the trace.
void finish(Rep& r, Cluster& c, const Upper& u, const Mark& m0,
            const Mark& m1, Clock::time_point built, const SpanLog& spans) {
  r.warm_s = seconds_between(built, m0.host);
  r.wall_s = seconds_between(m0.host, m1.host);
  r.sim_ms = sim::to_ms(m1.t - m0.t);
  r.window = diff(m1.snap, m0.snap);
  r.total = snapshot(c, u);
  if (trace::TraceRecorder* tr = c.tracer()) {
    r.trace_events = tr->total_recorded();
    r.trace_lost = tr->total_recorded() - tr->size();
    r.fold = fold_trace(tr->events(), c.time_series(), spans.spans());
    const sim::Time every = c.config().trace.sample_interval;
    r.sampler_ticks =
        every > 0 ? static_cast<std::uint64_t>(c.sim().now() / every) : 0;
  }
}

// --- kv values --------------------------------------------------------------
//
// Every value encodes its key, its writer and the writer's version in a
// fixed header, followed by filler derived from those three, so a GET can
// prove the bytes it got are exactly some writer's whole value for its key.

constexpr std::size_t kHeader = 28;

void fill(std::string& v, std::uint64_t x) {
  for (std::size_t i = kHeader; i + 8 <= v.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(&v[i], &x, 8);
  }
}

std::uint64_t filler_seed(int key, int writer, std::uint32_t version) {
  return kv::mix64((static_cast<std::uint64_t>(key) << 40) ^
                   (static_cast<std::uint64_t>(writer) << 32) ^ version) |
         1;
}

std::string make_value(int key, int writer, std::uint32_t version) {
  std::string v(kValueBytes, '\0');
  std::snprintf(v.data(), kHeader, "k%06d w%04d v%010u", key, writer, version);
  fill(v, filler_seed(key, writer, version));
  return v;
}

bool value_ok(int key, const std::string& v, int writers) {
  if (v.size() != kValueBytes) return false;
  int k = -1, w = -1;
  unsigned ver = 0;
  if (std::sscanf(v.c_str(), "k%06d w%04d v%010u", &k, &w, &ver) != 3) {
    return false;
  }
  if (k != key || w < 0 || w >= writers) return false;
  std::string expect(kValueBytes, '\0');
  std::snprintf(expect.data(), kHeader, "k%06d w%04d v%010u", k, w, ver);
  fill(expect, filler_seed(k, w, ver));
  return expect == v;
}

Rep run_kv(const RepOptions& o, bool write_mix) {
  Rep r;
  const auto h0 = Clock::now();
  ClusterConfig ccfg = config_2l_1g(kKvNodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;
  apply_trace(ccfg, o);
  Cluster cluster(ccfg);
  kv::KvConfig kc;
  kc.clients_per_node = kKvClients;
  kc.max_value_bytes = kValueBytes;
  kc.replication = 2;
  kc.rpc_timeout = sim::ms(5);
  kc.get_timeout = sim::ms(5);
  if (write_mix) kc.conn_mode = kv::ConnMode::kBroker;
  kv::System sys(cluster, kc);
  const auto built = Clock::now();
  r.cluster_s = seconds_between(h0, built);

  const int total = kKvNodes * kKvClients;
  const bench::ZipfGen zipf(kKvKeys, kKvTheta);
  const double get_frac = write_mix ? kWriteGetFrac : kReadGetFrac;
  kv::HostBarrier loaded, done;
  Mark m0, m1;
  SpanLog spans(o.traced);
  trace::LatencyHistogram get_h, put_h;

  for (int node = 0; node < kKvNodes; ++node) {
    for (int c = 0; c < kKvClients; ++c) {
      const int id = node * kKvClients + c;
      sys.spawn_client(node, "client" + std::to_string(id), [&, id](
                                                                kv::Client& cl) {
        for (int k = id; k < kKvKeys; k += total) {
          ++r.attempted;
          if (cl.put(bench::bench_key(k), make_value(k, id, 0)) !=
              kv::Status::kOk) {
            r.fail("preload put of key " + std::to_string(k) + " failed");
          }
        }
        loaded.arrive_and_wait(total);
        if (!m0.set) mark_start(m0, cluster);
        cl.get_hist().clear();
        cl.put_hist().clear();
        const int root = spans.open("kv.client", cluster.sim().now());

        std::mt19937_64 rng(derive(o.seed, 100 + id));
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        std::uint32_t version = 0;
        std::string got;
        // One op; kOk only when it completed with a valid value.
        auto one_op = [&]() {
          const int k = static_cast<int>(zipf.next(u01(rng)));
          const bool is_get = u01(rng) < get_frac;
          const int sp = spans.open(is_get ? "kv.get" : "kv.put",
                                    cluster.sim().now(), root);
          const kv::Status st =
              is_get ? cl.get(bench::bench_key(k), &got)
                     : cl.put(bench::bench_key(k), make_value(k, id, ++version));
          spans.close(sp, cluster.sim().now());
          if (st != kv::Status::kOk) {
            r.fail(std::string(is_get ? "GET " : "PUT ") + bench::bench_key(k) +
                   ": " + kv::status_str(st));
            return st == kv::Status::kRejected
                       ? bench::OpenLoopVerdict::kRejected
                       : bench::OpenLoopVerdict::kError;
          }
          if (is_get && !value_ok(k, got, total)) {
            r.fail("GET " + bench::bench_key(k) + " returned a corrupt value");
            return bench::OpenLoopVerdict::kError;
          }
          ++r.ops;
          r.payload_bytes += kValueBytes;
          return bench::OpenLoopVerdict::kOk;
        };

        if (write_mix) {
          bench::ArrivalConfig ac;
          ac.mean_interarrival_us = kWriteArrivalUs;
          ac.count = static_cast<int>(2 * sim::to_us(kWriteHorizon) /
                                      kWriteArrivalUs) + 64;
          ac.seed = derive(o.seed, 200 + id);
          std::vector<std::uint64_t> arrivals = bench::make_arrivals(ac);
          const auto horizon_ns =
              static_cast<std::uint64_t>(sim::to_ns(kWriteHorizon));
          arrivals.erase(std::lower_bound(arrivals.begin(), arrivals.end(),
                                          horizon_ns),
                         arrivals.end());
          const bench::OpenLoopCounts oc = bench::run_open_loop(
              cluster.sim(), cluster.sim().now(), arrivals,
              kShedAfter, one_op,
              [&](sim::Time dt) { r.lat_us.push_back(sim::to_us(dt)); });
          r.attempted += oc.offered;
          // Failed, rejected and shed arrivals count as infinitely late.
          r.lat_us.insert(r.lat_us.end(), oc.offered - oc.ok, kInf);
          for (std::uint64_t i = 0; i < oc.late; ++i) {
            r.fail("arrival shed late");
          }
        } else {
          for (int i = 0; i < kReadOps; ++i) {
            ++r.attempted;
            const sim::Time s = cluster.sim().now();
            const bool ok = one_op() == bench::OpenLoopVerdict::kOk;
            r.lat_us.push_back(ok ? sim::to_us(cluster.sim().now() - s) : kInf);
          }
        }
        spans.close(root, cluster.sim().now());
        get_h.merge(cl.get_hist());
        put_h.merge(cl.put_hist());
        done.arrive_and_wait(total);
        if (!m1.set) mark_end(m1, cluster);
      });
    }
  }
  cluster.run();

  const Upper up{&sys, nullptr};
  finish(r, cluster, up, m0, m1, built, spans);
  for (int n = 0; n < kKvNodes; ++n) {
    ++r.attempted;
    if (sys.detector(n).num_down() != 0) {
      r.fail("node " + std::to_string(n) + " marked a peer dead");
    }
  }
  r.layer["kv.get_p50_us"] = bench::ns_to_us(get_h.p50());
  r.layer["kv.get_p99_us"] = bench::ns_to_us(get_h.p99());
  r.layer["kv.put_p50_us"] = bench::ns_to_us(put_h.p50());
  r.layer["kv.put_p99_us"] = bench::ns_to_us(put_h.p99());
  return r;
}

// --- dsm-radix ----------------------------------------------------------------

/// Radix input size from the seed: 2^20 keys plus up to 127 x 256.
long radix_keys(std::uint64_t seed) {
  return (1L << 20) + 256L * static_cast<long>(derive(seed, 300) % 128);
}

apps::AppParams radix_params(std::uint64_t seed) {
  apps::AppParams p;
  p.n = radix_keys(seed);
  return p;
}

/// Reference digest of the sorted keys, computed host-side from the same
/// key generator the Radix kernel initializes its array with.
std::uint64_t radix_reference(long n) {
  std::size_t keys = std::max<std::size_t>(static_cast<std::size_t>(n), 4096);
  keys = keys / 256 * 256;
  std::vector<std::uint32_t> v(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    std::uint64_t x = i * 0x9e3779b97f4a7c15ull + 77;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    v[i] = static_cast<std::uint32_t>(x);
  }
  std::sort(v.begin(), v.end());
  return apps::fnv1a(reinterpret_cast<const std::byte*>(v.data()), keys * 4);
}

}  // namespace

Rep run_stream(const RepOptions& o) {
  Rep r;
  const auto h0 = Clock::now();
  ClusterConfig cfg = config_2l_1g(2);
  cfg.memory_bytes_per_node = std::size_t{32} << 20;
  apply_trace(cfg, o);
  Cluster cluster(cfg);
  const auto built = Clock::now();
  r.cluster_s = seconds_between(h0, built);

  // Inputs from the seed: the source pattern and each write's size (32 to
  // 64 KiB in 4 KiB steps) and source offset. Destinations run
  // sequentially around a ring, so every block's last writer is known.
  std::mt19937_64 rng(derive(o.seed, 1));
  std::vector<std::byte> pattern(kStreamPoolBytes);
  for (std::size_t i = 0; i < pattern.size(); i += 8) {
    const std::uint64_t x = rng();
    std::memcpy(&pattern[i], &x, 8);
  }
  struct Write {
    std::uint32_t size, src_off, dst_off;
  };
  std::vector<Write> writes(kStreamWrites);
  std::uint32_t cursor = 0;
  for (Write& w : writes) {
    w.size = static_cast<std::uint32_t>(8 + rng() % 9) * kBlock;
    w.src_off = static_cast<std::uint32_t>(
        rng() % ((kStreamPoolBytes - w.size) / 64) * 64);
    if (cursor + w.size > kStreamRingBytes) cursor = 0;
    w.dst_off = cursor;
    cursor += w.size;
  }
  const std::uint64_t src = cluster.memory(0).alloc(kStreamPoolBytes, kBlock);
  const std::uint64_t dst = cluster.memory(1).alloc(kStreamRingBytes, kBlock);
  cluster.memory(0).write(src, pattern);

  std::vector<sim::Time> issued(writes.size(), 0), done(writes.size(), -1);
  Mark m0, m1;
  SpanLog spans(o.traced);
  bool notified = false;
  cluster.spawn(0, "writer", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    mark_start(m0, cluster);
    const int root = spans.open("stream.writer", cluster.sim().now());
    std::vector<OpHandle> handles;
    handles.reserve(writes.size());
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i >= kStreamDepth) handles[i - kStreamDepth].wait();
      const Write& w = writes[i];
      const auto flags = static_cast<std::uint16_t>(
          i + 1 == writes.size() ? kOpFlagNotify : kOpFlagNone);
      issued[i] = cluster.sim().now();
      const int sp = spans.open("core.rdma_write", issued[i], root);
      OpHandle h = c.rdma_write(dst + w.dst_off, src + w.src_off, w.size, flags);
      spans.close(sp, cluster.sim().now());
      h.on_complete([&, i] { done[i] = cluster.sim().now(); });
      handles.push_back(std::move(h));
    }
    for (const OpHandle& h : handles) h.wait();
    mark_end(m1, cluster);
    spans.close(root, cluster.sim().now());
  });
  cluster.spawn(1, "reader", [&](Endpoint& ep) {
    ep.accept(0);
    ep.wait_notification();
    notified = true;
  });
  cluster.run();
  finish(r, cluster, {}, m0, m1, built, spans);

  // Output check: each ring block must hold its last writer's source bytes.
  std::vector<int> last(kStreamRingBytes / kBlock, -1);
  for (std::size_t i = 0; i < writes.size(); ++i) {
    for (std::uint32_t b = 0; b < writes[i].size; b += kBlock) {
      last[(writes[i].dst_off + b) / kBlock] = static_cast<int>(i);
    }
  }
  std::vector<bool> bad(writes.size(), false);
  for (std::size_t blk = 0; blk < last.size(); ++blk) {
    if (last[blk] < 0) continue;
    const Write& w = writes[static_cast<std::size_t>(last[blk])];
    const std::uint32_t off = static_cast<std::uint32_t>(blk) * kBlock;
    const auto got = cluster.memory(1).view(dst + off, kBlock);
    if (std::memcmp(got.data(), &pattern[w.src_off + off - w.dst_off],
                    kBlock) != 0) {
      bad[static_cast<std::size_t>(last[blk])] = true;
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    ++r.attempted;
    if (done[i] < 0) {
      r.lat_us.push_back(kInf);
      r.fail("write " + std::to_string(i) + " never completed");
      continue;
    }
    r.lat_us.push_back(sim::to_us(done[i] - issued[i]));
    if (bad[i]) {
      r.fail("write " + std::to_string(i) + " left wrong destination bytes");
      continue;
    }
    ++r.ops;
    r.payload_bytes += writes[i].size;
  }
  ++r.attempted;
  if (!notified) r.fail("final notification never arrived");
  return r;
}

Rep run_kv_read(const RepOptions& o) { return run_kv(o, false); }
Rep run_kv_write(const RepOptions& o) { return run_kv(o, true); }

Rep run_dsm_radix(const RepOptions& o) {
  Rep r;
  const auto h0 = Clock::now();
  const apps::AppParams params = radix_params(o.seed);
  std::unique_ptr<apps::Application> app = apps::make_app("Radix", params);
  // The configuration apps::run_app derives for this app and node count
  // (run_radix_via_harness cross-checks the two).
  const apps::HarnessOptions opts = apps::setup_2l_1g();
  dsm::DsmConfig dcfg = opts.dsm;
  dcfg.home_block_pages =
      std::max<std::size_t>(1, app->preferred_home_block_pages(kRadixNodes));
  dcfg.shared_bytes =
      std::max(dcfg.shared_bytes, app->footprint_bytes() + (4u << 20));
  ClusterConfig ccfg = opts.cluster;
  ccfg.topology.num_nodes = kRadixNodes;
  ccfg.memory_bytes_per_node = dcfg.mailbox_bytes * (kRadixNodes + 1) +
                               dcfg.shared_bytes + (std::size_t{8} << 20);
  apply_trace(ccfg, o);
  Cluster cluster(ccfg);
  dsm::DsmSystem sys(cluster, dcfg);
  app->setup(sys);
  const auto built = Clock::now();
  r.cluster_s = seconds_between(h0, built);

  const Upper up{nullptr, &sys};
  Mark m0, m1;
  SpanLog spans(o.traced);
  sys.run([&](dsm::Dsm& d) {
    app->init(d);
    d.barrier();
    if (d.rank() == 0) mark_start(m0, cluster, up);
    d.barrier();
    const int sp = spans.open("apps.run", cluster.sim().now());
    app->run(d);
    spans.close(sp, cluster.sim().now());
    d.barrier();
    if (d.rank() == 0) mark_end(m1, cluster, up);
  });
  finish(r, cluster, up, m0, m1, built, spans);

  const std::uint64_t sum = app->checksum(sys);
  r.attempted = 1;
  if (sum != radix_reference(params.n)) {
    r.fail("radix checksum does not match the host-sorted reference");
  } else {
    const double keys = static_cast<double>(params.n / 256 * 256);
    r.ops = keys;
    r.payload_bytes = keys * 4;
  }
  // The op a Radix worker waits on is a page fetch: per node, the mean
  // stall per fetched page over the parallel section.
  for (int n = 0; n < kRadixNodes; ++n) {
    const std::string id = ".n" + std::to_string(n);
    const double pages = get(r.window, "dsm.pages_fetched" + id);
    r.lat_us.push_back(pages > 0 ? get(r.window, "dsm.data_wait_ps" + id) /
                                       pages / 1e6
                                 : 0.0);
  }
  return r;
}

AppCheck run_radix_via_harness(std::uint64_t seed) {
  const apps::AppRunResult a = apps::run_app(apps::setup_2l_1g(), "Radix",
                                             radix_params(seed), kRadixNodes);
  return {a.parallel_ms, a.checksum == radix_reference(radix_keys(seed)),
          a.retransmissions};
}

}  // namespace perfbench
