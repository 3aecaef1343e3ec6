// Scale-out benchmark (src/member + hierarchical src/net topologies):
// evidence that the subsystem keeps working past a single switch.
//
// Three sweeps, all on 16/64/128 nodes:
//   * detector convergence: one node loses every rail; measure the first
//     down-mark (detection) and the last survivor's down-mark
//     (dissemination), for the SWIM detector and for the legacy all-pairs
//     heartbeat mesh it replaced, plus each detector's per-node probe
//     message rate;
//   * KV scaling: closed-loop uniform GET/PUT load against src/kv on a
//     two-level / fat-tree fabric;
//   * collective scaling: dissemination barrier and ring all-reduce on the
//     same fabric.
//
// Headline evidence (checked on every fresh run, and by --check):
//   * every convergence run converges with zero false positives;
//   * at 16 nodes SWIM's full dissemination takes <= 2x the mesh's (the
//     price of O(1) probing is bounded);
//   * at 128 nodes the mesh pays >= 8x SWIM's per-node probe messages per
//     simulated ms (the asymptotic point of SWIM: O(1) vs O(n) per period);
//   * KV load runs error-free at every scale, and the log-depth barrier
//     scales sub-linearly from 16 to 128 nodes.
//
// Usage: scale_bench [--quick] [--json[=path]] [--check=<baseline>]
//   --quick  drops the 128-node rows and skips the gates that read them
//            (cannot be combined with --check).
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coll/coll.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "member/member.hpp"
#include "sim/process.hpp"

namespace {

using namespace multiedge;
using bench::Cmp;

// Hierarchical fabric for the member sweeps: single rail, nodes behind edge
// switches; 128 nodes get the 8-edge x 2-spine fat-tree pod.
ClusterConfig member_config(int nodes) {
  ClusterConfig cfg = config_1l_1g(nodes);
  if (nodes > 16) {
    cfg.memory_bytes_per_node = std::size_t{2} << 20;
    cfg.topology.edge_groups = nodes >= 128 ? 8 : 4;
    if (nodes >= 128) cfg.topology.spines = 2;
  }
  return cfg;
}

// Hierarchical fabric for the KV / collective sweeps: both striped rails,
// each one a two-level tree (fat-tree past 16 nodes).
ClusterConfig fabric_config(int nodes) {
  ClusterConfig cfg = config_2l_1g(nodes);
  cfg.memory_bytes_per_node = std::size_t{4} << 20;
  cfg.topology.edge_groups = nodes > 16 ? 8 : 4;
  if (nodes > 16) cfg.topology.spines = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Detector convergence
// ---------------------------------------------------------------------------

bench::Row run_convergence(int nodes, bool mesh) {
  ClusterConfig ccfg = member_config(nodes);
  if (mesh) {
    // The legacy mesh predates the hierarchical fabrics; give it the flat
    // switch it was built for. That is also its best case — its O(n^2)
    // heartbeat traffic melts fat-tree uplinks into false positives — so
    // the comparison errs in the mesh's favor.
    ccfg.topology.edge_groups = 1;
    ccfg.topology.spines = 1;
  }
  const int victim = nodes / 2;
  // The mesh needs its all-pairs handshake warm-up before the crash; SWIM
  // establishes connections lazily and its cold-start pacing tolerates an
  // early crash.
  const sim::Time crash_at = mesh ? sim::ms(6) : sim::ms(2);
  for (int r = 0; r < ccfg.topology.rails; ++r) {
    ccfg.topology.rail_outages.push_back(
        {/*rail=*/r, /*node=*/victim, crash_at, sim::sec(100)});
  }
  Cluster cluster(std::move(ccfg));

  member::MemberConfig mcfg;
  mcfg.mesh = mesh;
  member::Service svc(cluster, mcfg);

  sim::Time first_detect = 0;
  svc.add_on_transition(
      [&](int observer, int peer, member::PeerState st, sim::Time t) {
        if (observer != victim && peer == victim &&
            st == member::PeerState::kDead && first_detect == 0) {
          first_detect = t;
        }
      });

  bool converged = false;
  sim::Time dissem_at = 0, end_at = 0;
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    const sim::Time deadline = crash_at + svc.detection_bound();
    for (;;) {
      bool all = true;
      for (int n = 0; n < nodes && all; ++n) {
        if (n != victim && !svc.view(n).is_down(victim)) all = false;
      }
      if (all) {
        converged = true;
        dissem_at = cluster.sim().now();
        break;
      }
      if (cluster.sim().now() > deadline) break;
      sim::Process::current()->delay(sim::us(50));
    }
    end_at = cluster.sim().now();
    svc.stop();
  });
  cluster.run();

  int false_positives = 0;
  for (int n = 0; n < nodes; ++n) {
    if (n == victim) continue;
    for (int p = 0; p < nodes; ++p) {
      if (p != victim && svc.view(n).is_down(p)) ++false_positives;
    }
  }
  const double sim_ms = sim::to_us(end_at) / 1000.0;
  stats::Counters all = svc.aggregate_counters();
  const auto probes = static_cast<double>(all.get("member_probe_msgs"));

  bench::Row r{std::string("member-") + (mesh ? "mesh" : "swim") + "-n" +
               std::to_string(nodes)};
  r.fields.add("kind", "member")
      .add("nodes", nodes)
      .add("detect_ms", sim::to_us(first_detect - crash_at) / 1000.0)
      .add("dissem_ms",
           converged ? sim::to_us(dissem_at - crash_at) / 1000.0 : 0.0)
      .add("probes_per_node_ms", sim_ms > 0 ? probes / nodes / sim_ms : 0.0)
      .add("false_positives", false_positives);
  r.gate_only.add("converged", converged);
  bench::merge_engine_counters(cluster, nodes, all);
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

// ---------------------------------------------------------------------------
// KV scaling
// ---------------------------------------------------------------------------

bench::Row run_kv(int nodes, int ops_per_client) {
  Cluster cluster(fabric_config(nodes));

  kv::KvConfig cfg;
  cfg.partitions = std::max(32, nodes);
  cfg.clients_per_node = 1;
  cfg.slots_per_partition = 64;
  cfg.buckets_per_partition = 32;
  cfg.max_value_bytes = 256;
  cfg.rpc_timeout = sim::ms(5);
  cfg.get_timeout = sim::ms(5);
  kv::System sys(cluster, cfg);

  const int keys = 4 * nodes;
  const std::string value(256, 'v');
  kv::HostBarrier loaded;
  sim::Time t0 = 0, t1 = 0;
  std::uint64_t gets = 0, puts = 0, errors = 0;
  for (int node = 0; node < nodes; ++node) {
    sys.spawn_client(node, "load" + std::to_string(node), [&, node](
                                                              kv::Client& cl) {
      for (int k = node; k < keys; k += nodes) {
        if (cl.put(bench::bench_key(k), value) != kv::Status::kOk) ++errors;
      }
      loaded.arrive_and_wait(nodes);
      t0 = cluster.sim().now();
      std::mt19937_64 rng(kv::mix64(0x5ca1eull ^ node));
      std::string got;
      for (int i = 0; i < ops_per_client; ++i) {
        const int k = static_cast<int>(rng() % keys);
        if (rng() % 2 == 0) {
          if (cl.get(bench::bench_key(k), &got) != kv::Status::kOk) ++errors;
          ++gets;
        } else {
          if (cl.put(bench::bench_key(k), value) != kv::Status::kOk) ++errors;
          ++puts;
        }
      }
      t1 = cluster.sim().now();
    });
  }
  cluster.run();

  const double sim_ms = sim::to_us(t1 - t0) / 1000.0;
  bench::Row r{"kv-scale-n" + std::to_string(nodes)};
  r.fields.add("kind", "kv")
      .add("nodes", nodes)
      .add("kops",
           sim_ms > 0 ? static_cast<double>(gets + puts) / sim_ms : 0.0)
      .add("sim_ms", sim_ms)
      .add("gets", gets)
      .add("puts", puts)
      .add("errors", errors);
  stats::Counters all = sys.aggregate_counters();
  bench::merge_engine_counters(cluster, nodes, all);
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

// ---------------------------------------------------------------------------
// Collective scaling
// ---------------------------------------------------------------------------

bench::Row run_coll(int nodes, bool allreduce, int iters) {
  Cluster cluster(fabric_config(nodes));

  const std::size_t bytes = 16 << 10;  // all-reduce payload per node
  coll::CollConfig cc;
  cc.max_data_bytes = 64 << 10;
  coll::CollDomain domain(cluster, cc);

  sim::Time t0 = 0, t1 = 0;
  for (int i = 0; i < nodes; ++i) {
    cluster.spawn(i, "coll", [&, i](Endpoint& ep) {
      coll::Communicator comm(domain, ep);
      std::uint64_t send_va = 0;
      if (allreduce) {
        send_va = ep.memory().alloc(bytes, 64);
        auto* v = ep.memory().as<double>(send_va);
        for (std::size_t e = 0; e < bytes / 8; ++e) {
          v[e] = static_cast<double>(i + 1) * static_cast<double>(e % 97);
        }
      }
      comm.barrier();  // rendezvous; excluded from the measured section
      if (i == 0) t0 = cluster.sim().now();
      for (int it = 0; it < iters; ++it) {
        if (allreduce) {
          comm.all_reduce(send_va, static_cast<std::uint32_t>(bytes / 8),
                          coll::DType::kF64, coll::ReduceOp::kSum);
        } else {
          comm.barrier();
        }
      }
      if (allreduce) comm.barrier();
      if (i == 0) t1 = cluster.sim().now();
    });
  }
  cluster.run();

  bench::Row r{allreduce ? "coll-allreduce-n" + std::to_string(nodes) + "-16KB"
                         : "coll-barrier-n" + std::to_string(nodes)};
  r.fields.add("kind", "coll")
      .add("nodes", nodes)
      .add("per_op_us", sim::to_us(t1 - t0) / iters);
  stats::Counters all;
  bench::merge_engine_counters(cluster, nodes, all);
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_scale.json");

  std::cout << "== scale_bench: membership convergence + KV/collective "
               "scaling at 16-128 nodes (simulated) ==\n\n";

  std::vector<int> scales = {16, 64, 128};
  if (args.quick) scales = {16, 64};

  bench::Report report;
  auto& rows = report.rows;

  // Detector convergence: SWIM at every scale, the mesh baseline at the
  // endpoints (its 128-node row exists to price O(n) probing, not to win).
  for (int n : scales) rows.push_back(run_convergence(n, /*mesh=*/false));
  for (int n : scales) {
    if (n == 16 || n == 128) rows.push_back(run_convergence(n, /*mesh=*/true));
  }

  // KV and collective scaling on the hierarchical fabric.
  const int kv_ops = args.quick ? 15 : 40;
  for (int n : scales) rows.push_back(run_kv(n, kv_ops));
  const int bar_iters = args.quick ? 10 : 30;
  const int ar_iters = args.quick ? 2 : 4;
  for (int n : scales) {
    rows.push_back(run_coll(n, /*allreduce=*/false, bar_iters));
    rows.push_back(run_coll(n, /*allreduce=*/true, ar_iters));
  }

  return bench::finish(
      args, "scale", report,
      {{"every detector run converges", "", "", "converged", Cmp::kGe, 1},
       {"no false down-marks", "", "", "false_positives", Cmp::kLe, 0},
       {"KV load runs error-free", "", "", "errors", Cmp::kLe, 0},
       {"SWIM dissemination at 16 nodes within 2x the mesh",
        "member-swim-n16", "member-mesh-n16", "dissem_ms", Cmp::kLe, 2.0},
       {"mesh pays >= 8x SWIM's per-node probe rate at 128 nodes",
        "member-mesh-n128", "member-swim-n128", "probes_per_node_ms",
        Cmp::kGe, 8.0},
       {"log-depth barrier scales sub-linearly from 16 to 128 nodes",
        "coll-barrier-n128", "coll-barrier-n16", "per_op_us", Cmp::kLt, 8.0}});
}
