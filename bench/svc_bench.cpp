// Serving-tier benchmark (src/svc): open-loop overload curves for the
// connection broker against the per-client-connections baseline.
//
// Two experiments on a 4-node dual-rail fabric, both OPEN loop (fixed
// Poisson arrival schedules, latency measured from the scheduled arrival —
// see bench_common.hpp for the methodology):
//
//   * offered-load sweep: the same zipfian GET-heavy KV mix is offered at a
//     ladder of rates spanning ~0.5x to ~2x saturation, once with every
//     client owning private connections (ConnMode::kPerClient) and once
//     through the per-node broker (ConnMode::kBroker). Goodput is completed
//     ops/sec; shed arrivals (admission rejections, and arrivals a client
//     was too far behind to issue) are counted, never silently dropped.
//   * incast: every client on nodes 1..3 targets keys homed on node 0, at a
//     rate past the hot node's capacity, in both modes.
//
// Headline evidence (checked on every fresh run, and by --check):
//   * the broker serves the sweep with >= 8x fewer client-side connections
//     than the per-client baseline (svc_conns_opened vs kv_client_conns);
//   * broker peak goodput >= the per-client baseline's peak;
//   * at ~2x the saturating load the broker still delivers >= 0.8x its own
//     peak goodput -- overload is absorbed by explicit admission rejections
//     (rejected > 0 at the top rung), not by queueing until collapse;
//   * the broker's accepted-op p99 stays bounded at the top rung while the
//     per-client baseline's p99 blows past it (the open-loop collapse the
//     broker exists to prevent).
//
// Usage: svc_bench [--quick] [--json[=path]] [--check=<baseline>]
#include <algorithm>
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

constexpr int kNodes = 4;
constexpr int kClientsPerNode = 16;
constexpr std::size_t kValueBytes = 4096;
constexpr double kZipfTheta = 0.99;

// Gates (see file header).
constexpr double kMinConnRatio = 8.0;
constexpr double kMinOverloadGoodputFrac = 0.8;

struct Point {
  std::string name;
  bool broker = false;
  bool incast = false;
  double offered_kops = 0;  // total simulated Kops/s across all clients
  int ops = 0;              // arrivals per client
};

bench::Row run_point(const Point& pt) {
  ClusterConfig ccfg = config_2l_1g(kNodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;
  Cluster cluster(ccfg);

  kv::KvConfig cfg;
  cfg.clients_per_node = kClientsPerNode;
  cfg.max_value_bytes = kValueBytes;
  cfg.replication = 2;
  cfg.rpc_timeout = sim::ms(5);
  cfg.get_timeout = sim::ms(5);
  if (pt.incast) cfg.buckets_per_partition = 128;
  if (pt.broker) {
    cfg.conn_mode = kv::ConnMode::kBroker;
    // One pooled connection per peer (16 tenants share it: the connection
    // economy the gate measures), a credit allowance sized for the peak's
    // in-flight needs but well short of the overload's, and short bounded
    // queues so the excess is REJECTED at admission instead of parked.
    cfg.broker.conns_per_peer = 1;
    cfg.broker.credits_per_conn = 16;
    cfg.broker.tenant_queue_limit = 4;
    cfg.broker.peer_queue_limit = 8;
  } else {
    cfg.conn_mode = kv::ConnMode::kPerClient;
  }
  kv::System sys(cluster, cfg);

  const int keys = 1024;
  // Incast preset: remap key indices onto raw keys whose partition primary
  // is node 0, and keep node 0 free of clients (same recipe as kv_bench's
  // hot rows).
  std::vector<int> hot_keys;
  if (pt.incast) {
    for (int k = 0; static_cast<int>(hot_keys.size()) < keys; ++k) {
      const int part = sys.ring().partition_of(kv::fnv1a64(bench::bench_key(k)));
      if (sys.ring().replicas(part)[0] == 0) hot_keys.push_back(k);
    }
  }
  const int first_node = pt.incast ? 1 : 0;
  const int total = (kNodes - first_node) * kClientsPerNode;
  const double arrival_us = 1000.0 * total / pt.offered_kops;

  kv::HostBarrier loaded, done;
  sim::Time t0 = 0, t1 = 0;
  trace::LatencyHistogram arr_h;
  bench::OpenLoopCounts oc;
  const std::string value(kValueBytes, 'v');
  const bench::ZipfGen zipf(keys, kZipfTheta);
  auto key_of = [&](int k) {
    return bench::bench_key(pt.incast ? hot_keys[k] : k);
  };

  for (int node = first_node; node < kNodes; ++node) {
    for (int c = 0; c < kClientsPerNode; ++c) {
      const int id = (node - first_node) * kClientsPerNode + c;
      sys.spawn_client(node, "svc" + std::to_string(id), [&, id](
                                                             kv::Client& cl) {
        for (int k = id; k < keys; k += total) {
          if (cl.put(key_of(k), value) != kv::Status::kOk) ++oc.errors;
        }
        loaded.arrive_and_wait(total);
        t0 = cluster.sim().now();

        bench::ArrivalConfig ac;
        ac.mean_interarrival_us = arrival_us;
        ac.count = pt.ops;
        ac.seed = kv::mix64(0x5e211ce5ull ^ id);
        const std::vector<std::uint64_t> arrivals = bench::make_arrivals(ac);
        std::mt19937_64 rng(kv::mix64(0x0ffe2edull ^ id));
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        std::string got;
        oc.merge(bench::run_open_loop(
            cluster.sim(), cluster.sim().now(), arrivals,
            /*shed_after=*/sim::ms(2),
            [&]() -> bench::OpenLoopVerdict {
              const int k = static_cast<int>(zipf.next(u01(rng)));
              const kv::Status st = u01(rng) < 0.95
                                        ? cl.get(key_of(k), &got)
                                        : cl.put(key_of(k), value);
              if (st == kv::Status::kOk) return bench::OpenLoopVerdict::kOk;
              if (st == kv::Status::kRejected) {
                return bench::OpenLoopVerdict::kRejected;
              }
              return bench::OpenLoopVerdict::kError;
            },
            [&](sim::Time dt) {
              arr_h.record(static_cast<std::uint64_t>(sim::to_ns(dt)));
            }));
        done.arrive_and_wait(total);
        t1 = cluster.sim().now();
      });
    }
  }
  cluster.run();

  const double sim_ms = sim::to_us(t1 - t0) / 1000.0;
  stats::Counters all = sys.aggregate_counters();
  bench::Row r{pt.name};
  r.fields.add("mode", pt.broker ? "broker" : "perclient")
      .add("experiment", pt.incast ? "incast" : "sweep")
      .add("offered_kops", pt.offered_kops)
      .add("goodput_kops",
           sim_ms > 0 ? static_cast<double>(oc.ok) / sim_ms : 0.0)
      .add("sim_ms", sim_ms)
      .add("p50_us", bench::ns_to_us(arr_h.p50()))
      .add("p95_us", bench::ns_to_us(arr_h.p95()))
      .add("p99_us", bench::ns_to_us(arr_h.p99()))
      .add("offered", oc.offered)
      .add("ok", oc.ok)
      .add("shed_late", oc.late)
      .add("shed_rejected", oc.rejected)
      .add("errors", oc.errors)
      .add("conns",
           all.get(pt.broker ? "svc_conns_opened" : "kv_client_conns"));
  bench::merge_engine_counters(cluster, kNodes, all);
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

std::string point_name(bool broker, bool incast, double offered) {
  std::ostringstream os;
  os << "svc-" << (broker ? "broker" : "perclient") << '-'
     << (incast ? "incast" : "sweep") << '-'
     << static_cast<int>(offered) << "k";
  return os.str();
}

std::vector<Point> points(bool quick) {
  // The ladder brackets this fabric's closed-loop capacity (~100 Kops/s at
  // 64 clients, 4 KB values): ~0.5x, ~0.75x, ~saturation, ~1.5x, ~2x. The
  // top rung doubles the saturating load; --quick keeps the rungs the gates
  // read (peak region + 2x overload).
  std::vector<double> rates = quick ? std::vector<double>{75, 110, 220}
                                    : std::vector<double>{50, 75, 110, 160,
                                                          220};
  const int ops = quick ? 32 : 64;
  std::vector<Point> pts;
  for (const bool broker : {false, true}) {
    for (const double rate : rates) {
      pts.push_back({point_name(broker, false, rate), broker, false, rate,
                     ops});
    }
  }
  // Incast: 48 clients converge on node 0's partitions at ~1.5x the hot
  // node's share of fabric capacity.
  for (const bool broker : {false, true}) {
    pts.push_back({point_name(broker, true, 60), broker, true, 60, ops});
  }
  return pts;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_svc.json");

  std::cout << "== svc_bench: open-loop overload curves, per-client "
               "connections vs broker (simulated) ==\n"
            << "latency = scheduled-arrival to completion, simulated us; "
               "shed = late + rejected arrivals\n\n";

  const std::vector<Point> pts = points(args.quick);
  bench::Report report;
  for (const Point& p : pts) report.rows.push_back(run_point(p));

  // Each sweep rung also carries its mode's peak goodput over the sweep, and
  // its own goodput as a fraction of that peak, for the gates below.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].incast) continue;
    double peak = 0;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (!pts[j].incast && pts[j].broker == pts[i].broker) {
        peak = std::max(peak, *report.rows[j].metric("goodput_kops"));
      }
    }
    report.rows[i].gate_only.add("peak_goodput_kops", peak).add(
        "goodput_frac_of_peak",
        *report.rows[i].metric("goodput_kops") / peak);
  }
  report.summary("gates")
      .add("min_conn_ratio", kMinConnRatio)
      .add("min_overload_goodput_frac", kMinOverloadGoodputFrac);

  const char* pc_top = "svc-perclient-sweep-220k";
  const char* br_top = "svc-broker-sweep-220k";
  return bench::finish(
      args, "svc", report,
      {{"broker needs fewer connections than per-client", pc_top, br_top,
        "conns", Cmp::kGe, kMinConnRatio},
       {"pooling costs no peak goodput", br_top, pc_top, "peak_goodput_kops",
        Cmp::kGe, 1.0},
       {"broker keeps its goodput at 2x saturation", br_top, "",
        "goodput_frac_of_peak", Cmp::kGe, kMinOverloadGoodputFrac},
       {"admission rejections absorb the 2x overload", br_top, "",
        "shed_rejected", Cmp::kGt, 0},
       {"rejection is the broker's only failure mode at 2x load", br_top, "",
        "errors", Cmp::kLe, 0},
       {"per-client p99 collapses before the broker's at 2x load", pc_top,
        br_top, "p99_us", Cmp::kGe, 1.0}});
}
