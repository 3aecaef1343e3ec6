// Key-value store benchmark (src/kv): closed-loop YCSB-style load against
// the partitioned, replicated store across request distributions, GET/PUT
// mixes, node counts, and the paper's network setups (1L-1G single rail,
// 2L-1G striped dual rail, 1L-10G).
//
// Each client fiber is a closed loop: preload its share of the keyspace,
// rendezvous, then issue `ops` requests back to back (zipfian theta=0.99 or
// uniform key choice, configurable GET fraction). Throughput is simulated
// ops/sec over the measured window; latency percentiles come from the
// per-client trace::LatencyHistogram (recorded in simulated ns by kv::Client
// around each op, GETs and mutations separately).
//
// Headline evidence (gated on every run; the tail gate needs --check):
//   * one-sided GETs ride the striped rails: on the zipfian read-heavy mix,
//     2L-1G GET throughput must reach >= 1.5x 1L-1G at 4 nodes;
//   * tail latency stays bounded: zipfian 2L-1G p99 GET latency must not
//     exceed 1.25x the committed baseline (the simulation is deterministic,
//     so drift means the protocol or store changed, not noise; the headroom
//     tolerates cross-platform FP drift in the zipfian generator).
//
// Usage: kv_bench [--quick] [--json[=path]] [--check=<baseline>]
#include <cstdint>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "trace/histogram.hpp"

namespace {

using namespace multiedge;
using bench::Cmp;

constexpr std::size_t kValueBytes = 4096;
constexpr double kZipfTheta = 0.99;

// Gate for the PUT-heavy small-value batched vs unbatched throughput uplift
// (simulated ops/sec; enforced on every run and on --check).
constexpr double kMinPutSmallSpeedup = 1.3;

struct Workload {
  std::string name;
  std::string topo;  // "1L-1G", "2L-1G", "1L-10G"
  int nodes;
  bool zipf;         // false: uniform key choice
  double get_frac;   // GET probability per op
  int clients;       // client fibers per node
  int ops;           // measured ops per client
  int keys;          // preloaded keyspace size
  std::size_t value_bytes = kValueBytes;
  int replication = 2;
  bool hot = false;    // keys homed on node 0; clients on nodes 1..n-1 only
  bool batch = false;  // submission batching + selective signaling + burst
  // Open-loop rows: arrivals come on a fixed schedule (Poisson or Markov
  // on/off bursts) independent of completions; latency is measured from the
  // SCHEDULED arrival, and hopelessly-late arrivals are shed explicitly.
  // For these rows the GET latency columns report arrival-to-completion
  // across ALL ops (the open-loop latency that matters), not per-op GETs.
  bool open_loop = false;
  bool bursty = false;
  double arrival_us = 0;  // mean inter-arrival per client, simulated us
};

ClusterConfig topo_config(const std::string& topo, int nodes) {
  if (topo == "2L-1G") return config_2l_1g(nodes);
  if (topo == "1L-10G") return config_1l_10g(nodes);
  return config_1l_1g(nodes);
}

std::string wl_name(const Workload& w) {
  std::ostringstream os;
  os << "kv-" << (w.zipf ? "zipf" : "unif") << '-'
     << static_cast<int>(w.get_frac * 100) << "g-" << w.topo << "-n"
     << w.nodes;
  return os.str();
}

std::vector<Workload> workloads(bool quick) {
  const int clients = quick ? 4 : 8;
  const int ops = quick ? 30 : 120;
  const int keys = quick ? 256 : 1024;
  std::vector<Workload> ws;
  auto add = [&](const std::string& topo, int nodes, bool zipf,
                 double get_frac) {
    Workload w{"", topo, nodes, zipf, get_frac, clients, ops, keys};
    w.name = wl_name(w);
    ws.push_back(w);
  };
  // Rail scaling on the zipfian read-heavy mix (the headline pair), plus the
  // 10G single-rail point of comparison.
  add("1L-1G", 4, true, 0.95);
  add("2L-1G", 4, true, 0.95);
  add("1L-10G", 4, true, 0.95);
  // Distribution and mix sensitivity on the dual-rail setup.
  add("2L-1G", 4, false, 0.95);
  add("2L-1G", 4, true, 0.50);
  if (!quick) add("2L-1G", 8, true, 0.95);  // node scaling
  // PUT-heavy small-value pair, batching off vs on: 64 B values, 5% GETs,
  // R=1 so no replication round trip hides the host overhead, and a HOT
  // single server — the keyspace is restricted to partitions whose primary
  // is node 0 while the clients all run on the other nodes. This is the
  // service-side overload regime submission batching targets: the hot
  // node's protocol thread and server fiber are the saturated resources,
  // and per-request notify/irq/wakeup/doorbell events are a large fraction
  // of their work (on a symmetric workload the untouchable per-frame wire
  // costs are split across every node and cap the uplift well below the
  // gate). The batched run enables doorbell rings + selective signaling
  // (ProtocolConfig) and the server's burst drain (KvConfig::server_burst);
  // the throughput uplift is gated at kMinPutSmallSpeedup.
  // High client concurrency is the point: batching only amortizes when the
  // server actually finds bursts of queued requests per wakeup — and the op
  // count per client has to dwarf the closed-loop rampdown tail (clients
  // finish at different times; the decaying-concurrency tail is a larger
  // slice of the faster batched window, deflating the measured uplift).
  const int put_clients = 24;
  const int put_ops = quick ? 90 : 150;
  const int put_keys = 256;  // small hot working set in both modes
  auto add_put_small = [&](bool batch) {
    Workload w{batch ? "kv-puthot-small-2L-1G-n4-batched"
                     : "kv-puthot-small-2L-1G-n4",
               "2L-1G", 4, false, 0.05, put_clients, put_ops, put_keys};
    w.value_bytes = 64;
    w.replication = 1;
    w.hot = true;
    w.batch = batch;
    ws.push_back(w);
  };
  add_put_small(false);
  add_put_small(true);
  // Open-loop pair on the dual-rail fabric: same zipfian read-heavy mix,
  // offered at a fixed per-client rate below saturation. The Poisson row is
  // the steady-arrival baseline; the bursty row offers the SAME long-run
  // rate through Markov on/off phases, so the p99 gap between the two is
  // pure burst-absorption headroom. (Overload sweeps live in svc_bench.)
  auto add_open = [&](bool bursty) {
    Workload w{bursty ? "kv-open-bursty-2L-1G-n4" : "kv-open-poisson-2L-1G-n4",
               "2L-1G", 4, true, 0.95, clients, quick ? 40 : 100, keys};
    w.open_loop = true;
    w.bursty = bursty;
    w.arrival_us = 400;  // ~80 Kops/s offered across 32 clients: ~0.8x the
                         // closed-loop capacity of this fabric, so the
                         // Poisson row stays uncongested by construction
    ws.push_back(w);
  };
  add_open(false);
  add_open(true);
  return ws;
}

bench::Row run_workload(const Workload& w) {
  ClusterConfig ccfg = topo_config(w.topo, w.nodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;  // 4KB values + slabs
  if (w.batch) {
    ccfg.protocol.batch_submission = true;
    ccfg.protocol.submit_ring_slots = 16;
    ccfg.protocol.signal_interval = 8;
  }
  Cluster cluster(ccfg);

  kv::KvConfig cfg;
  cfg.clients_per_node = w.clients;
  cfg.max_value_bytes = kValueBytes;
  cfg.replication = w.replication;
  if (w.batch) cfg.server_burst = 8;
  // The hot preset concentrates the whole keyspace onto node 0's partitions
  // (roughly a quarter of them), so widen the bucket arrays to keep the
  // per-bucket chains clear of the kNoSpace limit.
  if (w.hot) cfg.buckets_per_partition = 128;
  // Under full load queueing delay dwarfs the unloaded RTT; generous
  // timeouts keep retry storms from polluting the throughput measurement.
  cfg.rpc_timeout = sim::ms(5);
  cfg.get_timeout = sim::ms(5);
  kv::System sys(cluster, cfg);

  // Hot preset: remap the key indices [0, keys) onto the first `keys` raw
  // keys whose partition primary is node 0, and keep node 0 free of client
  // fibers so its app + protocol CPUs serve requests exclusively.
  std::vector<int> hot_keys;
  if (w.hot) {
    for (int k = 0; static_cast<int>(hot_keys.size()) < w.keys; ++k) {
      const int part =
          sys.ring().partition_of(kv::fnv1a64(bench::bench_key(k)));
      if (sys.ring().replicas(part)[0] == 0) hot_keys.push_back(k);
    }
  }
  const int first_node = w.hot ? 1 : 0;
  const int total = (w.nodes - first_node) * w.clients;
  kv::HostBarrier loaded, done;
  sim::Time t0 = 0, t1 = 0;
  trace::LatencyHistogram get_h, put_h, arr_h;
  std::uint64_t gets = 0, puts = 0, errors = 0;
  bench::OpenLoopCounts open;  // open-loop rows only
  const std::string value(w.value_bytes, 'v');
  const bench::ZipfGen zipf(w.keys, kZipfTheta);
  auto key_of = [&](int k) {
    return bench::bench_key(w.hot ? hot_keys[k] : k);
  };

  for (int node = first_node; node < w.nodes; ++node) {
    for (int c = 0; c < w.clients; ++c) {
      const int id = (node - first_node) * w.clients + c;
      sys.spawn_client(node, "load" + std::to_string(id), [&, id](
                                                              kv::Client& cl) {
        // Preload this client's stripe of the keyspace, then rendezvous and
        // reset the histograms so only the measured window is reported.
        for (int k = id; k < w.keys; k += total) {
          if (cl.put(key_of(k), value) != kv::Status::kOk) ++errors;
        }
        loaded.arrive_and_wait(total);
        cl.get_hist().clear();
        cl.put_hist().clear();
        t0 = cluster.sim().now();

        std::mt19937_64 rng(kv::mix64(0x5ca1ab1eull ^ id));
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        std::string got;
        auto pick_key = [&] {
          return static_cast<int>(w.zipf
                                      ? zipf.next(u01(rng))
                                      : rng() % static_cast<std::uint64_t>(
                                                    w.keys));
        };
        if (w.open_loop) {
          bench::ArrivalConfig ac;
          ac.mean_interarrival_us = w.arrival_us;
          ac.count = w.ops;
          ac.seed = kv::mix64(0x0be9100full ^ id);
          ac.bursty = w.bursty;
          const std::vector<std::uint64_t> arrivals = bench::make_arrivals(ac);
          const sim::Time start = cluster.sim().now();
          const bench::OpenLoopCounts oc = bench::run_open_loop(
              cluster.sim(), start, arrivals, /*shed_after=*/sim::ms(2),
              [&]() -> bench::OpenLoopVerdict {
                const int k = pick_key();
                kv::Status st;
                if (u01(rng) < w.get_frac) {
                  st = cl.get(key_of(k), &got);
                  ++gets;
                } else {
                  st = cl.put(key_of(k), value);
                  ++puts;
                }
                if (st == kv::Status::kOk) return bench::OpenLoopVerdict::kOk;
                if (st == kv::Status::kRejected) {
                  return bench::OpenLoopVerdict::kRejected;
                }
                return bench::OpenLoopVerdict::kError;
              },
              [&](sim::Time dt) {
                arr_h.record(static_cast<std::uint64_t>(sim::to_ns(dt)));
              });
          open.merge(oc);
        } else {
          for (int i = 0; i < w.ops; ++i) {
            const int k = pick_key();
            if (u01(rng) < w.get_frac) {
              if (cl.get(key_of(k), &got) != kv::Status::kOk) ++errors;
              ++gets;
            } else {
              if (cl.put(key_of(k), value) != kv::Status::kOk) ++errors;
              ++puts;
            }
          }
        }
        get_h.merge(cl.get_hist());
        put_h.merge(cl.put_hist());
        done.arrive_and_wait(total);
        t1 = cluster.sim().now();
      });
    }
  }
  cluster.run();

  const double sim_ms = sim::to_us(t1 - t0) / 1000.0;
  const double ops = static_cast<double>(gets + puts);
  // Open-loop rows report arrival-to-completion latency (all ops), the
  // number the open-loop methodology exists to measure.
  const trace::LatencyHistogram& lat_h = w.open_loop ? arr_h : get_h;
  bench::Row r{w.name};
  r.fields.add("clients", w.clients)
      .add("ops_per_client", w.ops)
      .add("keys", w.keys)
      .add("gets", gets)
      .add("puts", puts)
      .add("sim_ms", sim_ms)
      .add("kops", sim_ms > 0 ? ops / sim_ms : 0.0)
      .add("get_kops", sim_ms > 0 ? static_cast<double>(gets) / sim_ms : 0.0)
      .add("get_p50_us", bench::ns_to_us(lat_h.p50()))
      .add("get_p95_us", bench::ns_to_us(lat_h.p95()))
      .add("get_p99_us", bench::ns_to_us(lat_h.p99()))
      .add("put_p50_us", bench::ns_to_us(put_h.p50()))
      .add("put_p99_us", bench::ns_to_us(put_h.p99()));
  if (w.open_loop) {
    r.fields.add("offered", open.offered)
        .add("shed_late", open.late)
        .add("shed_rejected", open.rejected);
  }
  r.gate_only.add("errors", errors + open.errors);

  stats::Counters all = sys.aggregate_counters();
  bench::merge_engine_counters(cluster, w.nodes, all);
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_kv.json");

  std::cout << "== kv_bench: closed-loop KV load (simulated) ==\n"
            << "Kops/s = simulated thousand ops/sec over the measured "
               "window; latency percentiles in simulated us\n\n";

  bench::Report report;
  for (const Workload& w : workloads(args.quick)) {
    report.rows.push_back(run_workload(w));
  }
  const char* unbatched = "kv-puthot-small-2L-1G-n4";
  const char* batched = "kv-puthot-small-2L-1G-n4-batched";
  const double kops_unbatched = report.metric(unbatched, "kops").value_or(0);
  const double kops_batched = report.metric(batched, "kops").value_or(0);
  report.summary("put_small")
      .add("unbatched", unbatched)
      .add("batched", batched)
      .add("kops_unbatched", kops_unbatched)
      .add("kops_batched", kops_batched)
      .add("speedup", kops_unbatched > 0 ? kops_batched / kops_unbatched : 0.0)
      .add("min_speedup", kMinPutSmallSpeedup);

  const char* one = "kv-zipf-95g-1L-1G-n4";
  const char* two = "kv-zipf-95g-2L-1G-n4";
  return bench::finish(
      args, "kv", report,
      {{"no failed ops", "", "", "errors", Cmp::kLe, 0},
       {"one-sided zipfian GETs ride both rails", two, one, "get_kops",
        Cmp::kGe, 1.5},
       {"GET latency histograms record", two, "", "get_p99_us", Cmp::kGt, 0},
       {"zipfian 2L-1G p99 GET latency holds the baseline", two,
        bench::kBaseline, "get_p99_us", Cmp::kLe, 1.25},
       {"doorbell batching pays on the PUT-heavy RPC path", batched,
        unbatched, "kops", Cmp::kGe, kMinPutSmallSpeedup}});
}
