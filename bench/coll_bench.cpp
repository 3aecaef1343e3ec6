// Collective-layer benchmark (src/coll): simulated latency/throughput of the
// RDMA-native collectives across node counts, payload sizes, and the paper's
// network setups (1L-1G single rail, 2L-1G striped dual rail, 1L-10G).
//
// Headline evidence (gated on every run):
//   * the dissemination barrier scales ~O(log N) while the linear
//     (centralized fan-in/fan-out) barrier scales O(N) — at 16 nodes the
//     dissemination barrier must be strictly faster;
//   * ring all-reduce saturates both rails: on 2L-1G it must reach >= 1.7x
//     its 1L-1G (single-rail) throughput at the largest payload.
//
// Usage: coll_bench [--quick] [--json[=path]] [--check=<baseline>]
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coll/coll.hpp"
#include "core/api.hpp"

namespace {

using namespace multiedge;

enum class Kind { kBarrier, kAllReduce, kAllToAll };

struct Workload {
  std::string name;
  Kind kind;
  coll::CollAlgo algo;
  std::string topo;  // "1L-1G", "2L-1G", "1L-10G"
  int nodes;
  std::size_t bytes;  // payload per node (0 for barrier)
  int iters;
};

const char* kind_str(Kind k) {
  switch (k) {
    case Kind::kBarrier: return "barrier";
    case Kind::kAllReduce: return "allreduce";
    case Kind::kAllToAll: return "alltoall";
  }
  return "?";
}

const char* algo_str(coll::CollAlgo a) {
  switch (a) {
    case coll::CollAlgo::kLinear: return "linear";
    case coll::CollAlgo::kDissemination: return "dissem";
    case coll::CollAlgo::kBinomialTree: return "tree";
    case coll::CollAlgo::kRing: return "ring";
    case coll::CollAlgo::kPairwise: return "pairwise";
  }
  return "?";
}

ClusterConfig topo_config(const std::string& topo, int nodes) {
  if (topo == "2L-1G") return config_2l_1g(nodes);
  if (topo == "1L-10G") return config_1l_10g(nodes);
  return config_1l_1g(nodes);
}

std::string wl_name(Kind k, coll::CollAlgo a, const std::string& topo,
                    int nodes, std::size_t bytes) {
  std::ostringstream os;
  os << kind_str(k) << '-' << algo_str(a) << '-' << topo << "-n" << nodes;
  if (bytes) {
    if (bytes % (1024 * 1024) == 0) {
      os << '-' << bytes / (1024 * 1024) << "MB";
    } else {
      os << '-' << bytes / 1024 << "KB";
    }
  }
  return os.str();
}

std::vector<Workload> workloads(bool quick) {
  std::vector<Workload> ws;
  const int bar_iters = quick ? 20 : 60;
  const int ar_iters = quick ? 4 : 8;
  auto add = [&](Kind k, coll::CollAlgo a, const std::string& topo, int nodes,
                 std::size_t bytes, int iters) {
    ws.push_back({wl_name(k, a, topo, nodes, bytes), k, a, topo, nodes, bytes,
                  iters});
  };

  // Barrier scaling: dissemination vs linear (centralized fan-in/fan-out).
  for (int n : {2, 4, 8, 16}) {
    add(Kind::kBarrier, coll::CollAlgo::kDissemination, "1L-1G", n, 0,
        bar_iters);
    add(Kind::kBarrier, coll::CollAlgo::kLinear, "1L-1G", n, 0, bar_iters);
  }
  for (const char* topo : {"2L-1G", "1L-10G"}) {
    add(Kind::kBarrier, coll::CollAlgo::kDissemination, topo, 16, 0,
        bar_iters);
    add(Kind::kBarrier, coll::CollAlgo::kLinear, topo, 16, 0, bar_iters);
  }

  // All-reduce: algorithm comparison on one rail, then rail scaling for the
  // ring (the 2L-1G row must show both rails saturated).
  const std::size_t big = 1 << 20;
  std::vector<std::size_t> sizes = {16 << 10, 256 << 10, big};
  if (quick) sizes = {16 << 10, big};
  for (std::size_t b : sizes) {
    for (auto a : {coll::CollAlgo::kRing, coll::CollAlgo::kBinomialTree,
                   coll::CollAlgo::kLinear}) {
      add(Kind::kAllReduce, a, "1L-1G", 4, b, ar_iters);
    }
    add(Kind::kAllReduce, coll::CollAlgo::kRing, "2L-1G", 4, b, ar_iters);
  }
  add(Kind::kAllReduce, coll::CollAlgo::kRing, "1L-10G", 4, big, ar_iters);
  if (!quick) {
    add(Kind::kAllReduce, coll::CollAlgo::kRing, "1L-1G", 8, 256 << 10,
        ar_iters);
    add(Kind::kAllReduce, coll::CollAlgo::kRing, "2L-1G", 8, 256 << 10,
        ar_iters);
  }

  // All-to-all: pairwise-staggered vs linear.
  const std::size_t blk = 64 << 10;
  for (const char* topo : {"1L-1G", "2L-1G"}) {
    add(Kind::kAllToAll, coll::CollAlgo::kPairwise, topo, 8, blk,
        quick ? 2 : 4);
    add(Kind::kAllToAll, coll::CollAlgo::kLinear, topo, 8, blk, quick ? 2 : 4);
  }
  return ws;
}

bench::Row run_workload(const Workload& w) {
  ClusterConfig ccfg = topo_config(w.topo, w.nodes);
  Cluster cluster(ccfg);

  coll::CollConfig cc;
  cc.max_data_bytes = std::max<std::size_t>(w.bytes, 64 << 10);
  switch (w.kind) {
    case Kind::kBarrier: cc.barrier_algo = w.algo; break;
    case Kind::kAllReduce: cc.all_reduce_algo = w.algo; break;
    case Kind::kAllToAll: cc.all_to_all_algo = w.algo; break;
  }
  coll::CollDomain domain(cluster, cc);

  sim::Time t0 = 0, t1 = 0;
  for (int i = 0; i < w.nodes; ++i) {
    cluster.spawn(i, "coll", [&, i](Endpoint& ep) {
      coll::Communicator comm(domain, ep);
      std::uint64_t send_va = 0, recv_va = 0;
      if (w.kind == Kind::kAllReduce) {
        send_va = ep.memory().alloc(w.bytes, 64);
        auto* v = ep.memory().as<double>(send_va);
        for (std::size_t e = 0; e < w.bytes / 8; ++e) {
          v[e] = static_cast<double>(i + 1) * static_cast<double>(e % 97);
        }
      } else if (w.kind == Kind::kAllToAll) {
        send_va = ep.memory().alloc(w.bytes * w.nodes, 64);
        recv_va = ep.memory().alloc(w.bytes * w.nodes, 64);
        auto span = ep.memory().view_mut(send_va, w.bytes * w.nodes);
        for (std::size_t e = 0; e < span.size(); ++e) {
          span[e] = static_cast<std::byte>((i + e * 7) & 0xff);
        }
      }
      comm.barrier();  // rendezvous; excluded from the measured section
      if (i == 0) t0 = cluster.sim().now();
      for (int it = 0; it < w.iters; ++it) {
        switch (w.kind) {
          case Kind::kBarrier:
            comm.barrier();
            break;
          case Kind::kAllReduce:
            comm.all_reduce(send_va, static_cast<std::uint32_t>(w.bytes / 8),
                            coll::DType::kF64, coll::ReduceOp::kSum);
            break;
          case Kind::kAllToAll:
            comm.all_to_all(send_va, recv_va,
                            static_cast<std::uint32_t>(w.bytes));
            break;
        }
      }
      if (w.kind != Kind::kBarrier) comm.barrier();
      if (i == 0) t1 = cluster.sim().now();
    });
  }
  cluster.run();

  stats::Counters all;
  bench::merge_engine_counters(cluster, w.nodes, all);

  const double span_us = sim::to_us(t1 - t0);
  double gbps = 0;  // payload bytes per simulated second (all_reduce/a2a)
  if (w.kind == Kind::kAllReduce && span_us > 0) {
    gbps = static_cast<double>(w.bytes) * w.iters * 8.0 / (span_us * 1e3);
  } else if (w.kind == Kind::kAllToAll && span_us > 0) {
    gbps = static_cast<double>(w.bytes) * (w.nodes - 1) * w.iters * 8.0 /
           (span_us * 1e3);
  }
  bench::Row r{w.name};
  r.fields.add("iters", w.iters)
      .add("per_op_us", span_us / w.iters)
      .add("gbps", gbps)
      .add("frames", all.get("data_frames_sent") + all.get("ack_frames_sent"));
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_coll.json");

  std::cout << "== coll_bench: collective latency/throughput (simulated) ==\n"
            << "per-op = simulated time per collective; Gb/s = per-node "
               "payload rate (all_reduce) / exchanged rate (all_to_all)\n\n";

  bench::Report report;
  for (const Workload& w : workloads(args.quick)) {
    report.rows.push_back(run_workload(w));
  }

  std::vector<bench::Gate> gates;
  for (const char* topo : {"1L-1G", "2L-1G", "1L-10G"}) {
    gates.push_back(
        {std::string("16-node dissemination barrier beats linear on ") + topo,
         wl_name(Kind::kBarrier, coll::CollAlgo::kDissemination, topo, 16, 0),
         wl_name(Kind::kBarrier, coll::CollAlgo::kLinear, topo, 16, 0),
         "per_op_us", bench::Cmp::kLt, 1.0});
  }
  const std::size_t big = 1 << 20;
  gates.push_back(
      {"ring all-reduce saturates the second rail",
       wl_name(Kind::kAllReduce, coll::CollAlgo::kRing, "2L-1G", 4, big),
       wl_name(Kind::kAllReduce, coll::CollAlgo::kRing, "1L-1G", 4, big),
       "gbps", bench::Cmp::kGe, 1.7});
  return bench::finish(args, "coll", report, gates);
}
