// The paper's §6 future-work directions, explored on this implementation:
//  (a) larger configurations with multi-switch communication paths — a
//      two-level switch tree (edge groups + core) with configurable core
//      oversubscription;
//  (b) hybrid edge/core support — a NIC that offloads the edge-protocol
//      fast path, modelled by the HostCostModel::offload() preset.
//
// Usage: future_work [--quick]
#include <iostream>

#include "app_fig_common.hpp"
#include "apps/harness.hpp"
#include "core/microbench.hpp"
#include "stats/table.hpp"

using namespace multiedge;

namespace {

void multiswitch(bool quick) {
  std::cout << "-- (a) multi-switch core paths: one-way micro + FFT --\n";
  stats::Table t({"topology", "core uplink", "micro MB/s", "latency(us)",
                  "FFT 16-node ms"});
  struct Case {
    const char* name;
    int groups;
    double uplink;
  };
  for (const Case& c : {Case{"flat (1 switch)", 1, 0.0},
                        Case{"4 groups, 1G core (4:1 oversub)", 4, 1.0},
                        Case{"4 groups, 4G core (1:1)", 4, 4.0}}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.topology.edge_groups = c.groups;
    cfg.topology.core_uplink_gbps = c.uplink;
    MicroParams big;
    big.message_bytes = 64 * 1024;
    if (quick) big.iterations = 32;
    // Nodes 0 and 1 land in different groups, so micro traffic crosses the
    // core when groups > 1.
    MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big);
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 32;
    MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);

    apps::HarnessOptions ho = apps::setup_1l_1g();
    ho.cluster.topology.edge_groups = c.groups;
    ho.cluster.topology.core_uplink_gbps = c.uplink;
    ho.setup_name = c.name;
    const apps::AppRunResult fft = apps::run_app(
        ho, "FFT", apps::bench_params("FFT", quick), 16);

    t.row()
        .cell(std::string(c.name))
        .cell(c.uplink > 0 ? stats::fmt_double(c.uplink, 0) + " Gb/s" : "-")
        .cell(bw.throughput_mbs, 1)
        .cell(lat.latency_us, 1)
        .cell(fft.parallel_ms, 1);
  }
  t.print(std::cout);
  std::cout << "An oversubscribed core throttles the all-to-all FFT; "
               "cross-switch hops add latency.\n\n";
}

void offload(bool quick) {
  std::cout << "-- (b) edge-protocol offload NIC vs host protocol --\n";
  stats::Table t({"cost model", "10G one-way MB/s", "cpu%", "latency(us)",
                  "host overhead(us)"});
  for (bool off : {false, true}) {
    ClusterConfig cfg = config_1l_10g(2);
    if (off) cfg.costs = proto::HostCostModel::offload();
    MicroParams big;
    big.message_bytes = 256 * 1024;
    if (quick) big.iterations = 24;
    MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big);
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 32;
    MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);
    t.row()
        .cell(std::string(off ? "offload NIC" : "host (baseline)"))
        .cell(bw.throughput_mbs, 1)
        .cell(bw.cpu_utilization * 100.0, 1)
        .cell(lat.latency_us, 1)
        .cell(bw.latency_us, 2);
  }
  t.print(std::cout);
  std::cout << "Offloading removes the sender-side copy bound (the paper's "
               "88%-of-10G ceiling) and most protocol CPU.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--quick") {
      bench::reject_argument(argv[0], argv[i], "[--quick]");
    }
    quick = true;
  }
  std::cout << "== Future-work explorations (paper §6) ==\n\n";
  multiswitch(quick);
  offload(quick);
  return 0;
}
