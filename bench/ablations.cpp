// Ablation studies over the design choices DESIGN.md calls out (A1-A6):
//   A1  window size vs throughput  (paper §4: "flow control does not limit
//       the maximum throughput")
//   A2  delayed-ACK threshold vs extra-frame fraction
//   A3  striping policy (round-robin / random / shortest-queue)
//   A4  interrupt moderation on/off vs CPU and latency
//   A5  link-count scaling 1..4 rails (the paper's future-work direction)
//   A6  robustness/goodput under forced loss rates
//
// Usage: ablations [--quick] [--json[=path]]
//   --json writes BENCH_ablations.json: every study's table serialized via
//   stats::Table::to_json, keyed by study name.
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/microbench.hpp"
#include "stats/table.hpp"

using namespace multiedge;

namespace {

MicroParams big_msgs(bool quick) {
  MicroParams p;
  p.message_bytes = 256 * 1024;
  if (quick) p.iterations = 24;
  return p;
}

stats::Table a1_window(bool quick) {
  std::cout << "-- A1: sliding-window size vs one-way throughput --\n";
  stats::Table t({"setup", "window", "MB/s", "window stalls"});
  for (const auto& [name, base] :
       {std::pair<std::string, ClusterConfig>{"1L-1G", config_1l_1g(2)},
        {"1L-10G", config_1l_10g(2)}}) {
    for (std::size_t w : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      ClusterConfig cfg = base;
      cfg.protocol.window_frames = w;
      MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
      t.row().cell(name).cell(static_cast<std::uint64_t>(w)).cell(
          r.throughput_mbs, 1).cell(std::string("-"));
    }
  }
  t.print(std::cout);
  std::cout << "Paper: the default window does not limit 10G throughput.\n\n";
  return t;
}

stats::Table a2_delayed_ack(bool quick) {
  std::cout << "-- A2: delayed-ACK threshold vs extra frames --\n";
  stats::Table t({"ack threshold", "MB/s", "extra frames %"});
  for (std::uint32_t th : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.protocol.ack_threshold = th;
    MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    t.row()
        .cell(static_cast<std::uint64_t>(th))
        .cell(r.throughput_mbs, 1)
        .cell(r.extra_frame_fraction() * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "Piggy-backing + delayed acks keep extra traffic low (paper: "
               "<=5.5% in micro-benchmarks).\n\n";
  return t;
}

stats::Table a3_striping(bool quick) {
  std::cout << "-- A3: striping policy over 2 rails --\n";
  stats::Table t({"policy", "MB/s", "ooo %"});
  const std::pair<const char*, proto::StripingPolicy> policies[] = {
      {"round-robin", proto::StripingPolicy::kRoundRobin},
      {"random", proto::StripingPolicy::kRandom},
      {"shortest-queue", proto::StripingPolicy::kShortestQueue},
  };
  for (const auto& [name, pol] : policies) {
    ClusterConfig cfg = config_2lu_1g(2);
    cfg.protocol.striping = pol;
    MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    t.row().cell(std::string(name)).cell(r.throughput_mbs, 1).cell(
        r.ooo_fraction() * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "The paper uses round-robin; all policies must deliver ~2x "
               "one link.\n\n";
  return t;
}

stats::Table a4_interrupts(bool quick) {
  std::cout << "-- A4: interrupt moderation on/off --\n";
  stats::Table t({"moderation", "latency(us)", "MB/s", "cpu %"});
  for (bool on : {true, false}) {
    ClusterConfig cfg = config_1l_1g(2);
    if (!on) {
      cfg.topology.nic.irq_coalesce_frames = 1;
      cfg.topology.nic.irq_coalesce_delay = 0;
    }
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 64;
    MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);
    MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    t.row()
        .cell(std::string(on ? "on (tg3 defaults)" : "off"))
        .cell(lat.latency_us, 1)
        .cell(bw.throughput_mbs, 1)
        .cell(bw.cpu_utilization * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "Moderation trades ~20us of idle latency for a large CPU "
               "saving under streaming (§2.6's motivation).\n\n";
  return t;
}

stats::Table a5_links(bool quick) {
  std::cout << "-- A5: link-count scaling (1-GBit/s rails) --\n";
  stats::Table t({"rails", "one-way MB/s", "two-way MB/s", "ooo %"});
  for (int rails = 1; rails <= 4; ++rails) {
    ClusterConfig cfg = config_2lu_1g(2);
    cfg.topology.rails = rails;
    MicroResult ow = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    MicroResult tw = run_micro(cfg, MicroBench::kTwoWay, big_msgs(quick));
    t.row()
        .cell(rails)
        .cell(ow.throughput_mbs, 1)
        .cell(tw.throughput_mbs, 1)
        .cell(ow.ooo_fraction() * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "Decoupled spatial parallelism: throughput scales with rails "
               "until the hosts saturate (paper §6 future work).\n\n";
  return t;
}

stats::Table a6_loss(bool quick) {
  std::cout << "-- A6: goodput under forced frame loss --\n";
  stats::Table t({"drop prob", "MB/s", "retx", "extra %"});
  for (double p : {0.0, 0.0001, 0.001, 0.01, 0.05}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.topology.link.drop_prob = p;
    MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    t.row()
        .cell(p, 4)
        .cell(r.throughput_mbs, 1)
        .cell(r.retransmissions)
        .cell(r.extra_frame_fraction() * 100.0, 1);
  }
  t.print(std::cout);
  std::cout << "NACK-driven retransmission keeps goodput graceful under "
               "transient loss (§2.4).\n\n";
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json_path = "BENCH_ablations.json";
    } else if (arg.starts_with("--json=")) {
      json_path = arg.substr(7);
    } else {
      bench::reject_argument(argv[0], arg, "[--quick] [--json[=path]]");
    }
  }
  std::cout << "== MultiEdge ablation studies ==\n\n";
  std::vector<std::pair<std::string, stats::Table>> tables;
  tables.emplace_back("a1_window", a1_window(quick));
  tables.emplace_back("a2_delayed_ack", a2_delayed_ack(quick));
  tables.emplace_back("a3_striping", a3_striping(quick));
  tables.emplace_back("a4_interrupts", a4_interrupts(quick));
  tables.emplace_back("a5_links", a5_links(quick));
  tables.emplace_back("a6_loss", a6_loss(quick));
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"ablations\",\n  \"quick\": "
        << (quick ? "true" : "false");
    for (const auto& [name, t] : tables) {
      out << ",\n  \"" << name << "\": ";
      t.to_json(out);
    }
    out << "\n}\n";
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
