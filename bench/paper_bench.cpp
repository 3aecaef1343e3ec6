// Reproduces the paper's evaluation (§4: Figure 2, Table 1, Figures 3-6),
// the design ablations A1-A6 and the §6 future-work studies as one gated
// bench. Every printed value is a row field, rounded to the precision the
// paper's tables use; each row's fingerprint hashes its written fields, so
// --check fails on any drift in a printed digit.
//
// Rows, by prefix:
//   fig2/<setup>/<bench>/<bytes>  micro-benchmarks. latency_us is one-way
//       memory-to-memory time per op for ping-pong, the host overhead to
//       initiate an op for one-/two-way; cpu_pct is protocol CPU out of
//       200 % (two CPUs per node); op_p50_ns/op_p99_ns the per-op latency
//       distribution.
//   table1/<app>                  problem sizes, sequential times (fig3's
//       n1 rows) and footprints next to the paper's.
//   fig3..fig6/<app>/n<nodes>     the application study on 1L-1G, 1L-10G,
//       2L-1G and 2Lu-1G: time and speedup over the sequential time at
//       each node count; at full scale the per-node average breakdown and
//       the network statistics.
//       fig3/fig4 n4 rows carry wait_ms (data + lock + barrier wait), and
//       fig4's wait_gain compares it with fig3's at the same node count.
//   a1..a6/...                    the ablations (DESIGN.md §5).
//   fw/...                        multi-switch paths and protocol offload.
//   dev/<k>-...                   EXPERIMENTS.md's known deviation k: what
//       the claim predicts next to what this run measured. Not gated.
// Gates are the paper's claims (EXPERIMENTS.md "paper vs. measured"). They
// describe the full problem sizes, so --quick evaluates only fig2's and the
// ablations'.
//
// Usage: paper_bench [--quick] [--json[=path]] [--check=<baseline>]
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/harness.hpp"
#include "bench_common.hpp"
#include "core/microbench.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

namespace {

using namespace multiedge;
using bench::Cmp;
using bench::Fields;
using bench::Gate;
using bench::Row;

/// `v` as printed with `precision` decimals.
double printed(double v, int precision) {
  return std::stod(stats::fmt_double(v, precision));
}

double pct(double fraction) { return printed(fraction * 100.0, 1); }

Row& add_row(bench::Report& report, std::string name) {
  Row& row = report.rows.emplace_back();
  row.name = std::move(name);
  return row;
}

// --------------------------------------------------------------- Figure 2

void fig2(bench::Report& report, bool quick) {
  std::vector<std::size_t> sizes = {64,        256,       1024,     4096,
                                    16 * 1024, 64 * 1024, 256 * 1024,
                                    1024 * 1024};
  if (quick) sizes = {64, 4096, 64 * 1024, 1024 * 1024};
  const std::pair<std::string, ClusterConfig> setups[] = {
      {"1L-1G", config_1l_1g(2)},
      {"2L-1G", config_2l_1g(2)},
      {"2Lu-1G", config_2lu_1g(2)},
      {"1L-10G", config_1l_10g(2)},
  };
  for (const auto& [setup, cfg] : setups) {
    for (MicroBench b :
         {MicroBench::kPingPong, MicroBench::kOneWay, MicroBench::kTwoWay}) {
      for (std::size_t size : sizes) {
        MicroParams p;
        p.message_bytes = size;
        if (quick) p.iterations = b == MicroBench::kPingPong ? 64 : 256;
        const MicroResult r = run_micro(cfg, b, p);
        Row& row = add_row(report, "fig2/" + setup + '/' + to_string(b) +
                                       '/' + std::to_string(size));
        row.fields.add("latency_us", printed(r.latency_us, 2))
            .add("mbps", printed(r.throughput_mbs, 1))
            .add("cpu_pct", pct(r.cpu_utilization))
            .add("ooo_pct", pct(r.ooo_fraction()))
            .add("extra_pct", pct(r.extra_frame_fraction()))
            .add("drops", r.dropped_frames)
            .add("coalesce", printed(r.coalescing_factor, 2))
            .add("op_p50_ns", r.op_latency_ns.p50())
            .add("op_p99_ns", r.op_latency_ns.p99());
        row.gate_only.add("ooo_frames", r.ooo_frames);
      }
    }
  }
}

// ------------------------------------------------ Table 1, Figures 3-6

/// Bench-default problem sizes: scaled-down versions of Table 1 that keep a
/// 16-node simulation tractable while preserving each app's comm:compute
/// regime (see EXPERIMENTS.md).
apps::AppParams bench_params(const std::string& app, bool quick) {
  apps::AppParams p;
  if (app == "FFT") p.n = quick ? (1 << 14) : (1 << 18);
  if (app == "LU") {
    p.n = quick ? 512 : 2048;
    p.m = quick ? 32 : 64;
  }
  if (app == "Radix") p.n = quick ? (1 << 17) : (1 << 20);
  if (app == "Barnes-Spatial") {
    p.n = quick ? 8192 : 32768;
    p.steps = quick ? 2 : 3;
  }
  if (app == "Raytrace") {
    p.m = quick ? 128 : 320;
    p.n = 56;
  }
  if (app == "Water-Nsquared") {
    p.n = quick ? 512 : 1440;
    p.steps = 2;
  }
  if (app == "Water-Spatial" || app == "Water-SpatialFL") {
    p.n = quick ? 2048 : 8192;
    p.steps = 2;
  }
  return p;
}

struct Figure {
  std::string id;
  apps::HarnessOptions setup;
  std::vector<int> nodes;  // the last is the full scale
};

// A one-node run sends no frame, so its time does not depend on the setup:
// fig3's n1 points are every figure's sequential times (and Table 1's).
std::vector<Figure> figures() {
  return {{"fig3", apps::setup_1l_1g(), {1, 2, 4, 8, 16}},
          {"fig4", apps::setup_1l_10g(), {2, 4}},
          {"fig5", apps::setup_2l_1g(), {16}},
          {"fig6", apps::setup_2lu_1g(), {16}}};
}

std::string app_row(const std::string& fig, const std::string& app,
                    int nodes) {
  return fig + '/' + app + "/n" + std::to_string(nodes);
}

/// Data, lock and barrier wait, averaged per node.
double wait_ms(const apps::AppRunResult& r) {
  double w = 0;
  for (const apps::NodeBreakdown& b : r.per_node) {
    w += (b.data_wait_ms + b.lock_wait_ms + b.barrier_wait_ms) / r.nodes;
  }
  return w;
}

using AppRuns = std::map<std::string, apps::AppRunResult>;

/// Runs every (figure, app, nodes) point once, keyed by its row name.
AppRuns run_apps(bool quick) {
  AppRuns runs;
  for (const Figure& f : figures()) {
    for (const std::string& app : apps::table1_app_names()) {
      for (int n : f.nodes) {
        runs[app_row(f.id, app, n)] =
            apps::run_app(f.setup, app, bench_params(app, quick), n);
      }
    }
  }
  return runs;
}

std::string repro_size(const std::string& app, const apps::AppParams& p) {
  using std::to_string;
  if (app == "FFT") return to_string(p.n) + " complex values";
  if (app == "LU") return to_string(p.n) + "x" + to_string(p.n) + " matrix";
  if (app == "Radix") return to_string(p.n) + " integers";
  if (app == "Barnes-Spatial") return to_string(p.n) + " particles";
  if (app == "Raytrace") {
    return "sphere scene " + to_string(p.m) + "x" + to_string(p.m);
  }
  return to_string(p.n) + " molecules";
}

void table1(bench::Report& report, const AppRuns& runs, bool quick) {
  struct Paper {
    const char* size;
    std::uint64_t seq_ms;
    const char* footprint_mb;
  };
  static const std::map<std::string, Paper> paper = {
      {"Barnes-Spatial", {"128K/64K particles", 2877713, "120/45"}},
      {"FFT", {"2^22 complex values", 4752, "200"}},
      {"LU", {"8Kx8K matrix", 412096, "500"}},
      {"Radix", {"32M integers", 4179, "120"}},
      {"Raytrace", {"Balls scene 1Kx1K", 376096, "210"}},
      {"Water-Nsquared", {"128K molecules", 11678974, "90"}},
      {"Water-Spatial", {"128K molecules", 231889, "80"}},
      {"Water-SpatialFL", {"128K mols", 229586, "80"}},
  };
  for (const std::string& app : apps::table1_app_names()) {
    const apps::AppParams p = bench_params(app, quick);
    const Paper& ref = paper.at(app);
    const double seq_ms = runs.at(app_row("fig3", app, 1)).parallel_ms;
    add_row(report, "table1/" + app)
        .fields.add("paper_size", ref.size)
        .add("size", repro_size(app, p))
        .add("paper_seq_ms", ref.seq_ms)
        .add("seq_ms", printed(seq_ms, 0))
        .add("paper_footprint_mb", ref.footprint_mb)
        .add("footprint_mb",
             printed(apps::make_app(app, p)->footprint_bytes() / 1e6, 1));
  }
}

void app_figures(bench::Report& report, const AppRuns& runs) {
  for (const Figure& f : figures()) {
    for (const std::string& app : apps::table1_app_names()) {
      const double seq_ms = runs.at(app_row("fig3", app, 1)).parallel_ms;
      for (int n : f.nodes) {
        const apps::AppRunResult& r = runs.at(app_row(f.id, app, n));
        Row& row = add_row(report, app_row(f.id, app, n));
        row.fields.add("total_ms", printed(r.parallel_ms, 1))
            .add("speedup", printed(seq_ms / r.parallel_ms, 2));
        if (n == 4 && (f.id == "fig3" || f.id == "fig4")) {
          row.fields.add("wait_ms", printed(wait_ms(r), 1));
        }
        if (n == 4 && f.id == "fig4") {
          const double w1 = wait_ms(runs.at(app_row("fig3", app, 4)));
          const double w10 = wait_ms(r);
          row.fields.add("wait_gain", printed(w10 > 0 ? w1 / w10 : 0.0, 2));
        }
        if (n != f.nodes.back()) continue;
        apps::NodeBreakdown avg;
        for (const apps::NodeBreakdown& b : r.per_node) {
          avg.compute_ms += b.compute_ms / r.nodes;
          avg.data_wait_ms += b.data_wait_ms / r.nodes;
          avg.lock_wait_ms += b.lock_wait_ms / r.nodes;
          avg.barrier_wait_ms += b.barrier_wait_ms / r.nodes;
          avg.dsm_overhead_ms += b.dsm_overhead_ms / r.nodes;
        }
        row.fields.add("compute_ms", printed(avg.compute_ms, 1))
            .add("data_wait_ms", printed(avg.data_wait_ms, 1))
            .add("lock_wait_ms", printed(avg.lock_wait_ms, 1))
            .add("barrier_ms", printed(avg.barrier_wait_ms, 1))
            .add("dsm_ovh_ms", printed(avg.dsm_overhead_ms, 1))
            .add("proto_cpu_pct", pct(r.max_protocol_cpu()))
            .add("irq_pct", pct(r.interrupt_fraction()))
            .add("extra_pct", pct(r.extra_frame_fraction()))
            .add("ooo_pct", pct(r.ooo_fraction()))
            .add("retx", r.retransmissions)
            .add("drops", r.dropped_frames);
      }
    }
  }
}

// --------------------------------------------------------------- Ablations

MicroParams big_msgs(bool quick) {
  MicroParams p;
  p.message_bytes = 256 * 1024;
  if (quick) p.iterations = 24;
  return p;
}

void ablations(bench::Report& report, bool quick) {
  // A1: sliding-window size vs one-way throughput.
  for (const auto& [setup, base] :
       {std::pair<std::string, ClusterConfig>{"1L-1G", config_1l_1g(2)},
        {"1L-10G", config_1l_10g(2)}}) {
    for (std::size_t w : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      ClusterConfig cfg = base;
      cfg.protocol.window_frames = w;
      const MicroResult r =
          run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
      add_row(report, "a1/" + setup + "/w" + std::to_string(w))
          .fields.add("mbps", printed(r.throughput_mbs, 1));
    }
  }
  // A2: delayed-ACK threshold vs extra frames.
  for (std::uint32_t th : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.protocol.ack_threshold = th;
    const MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    add_row(report, "a2/ack" + std::to_string(th))
        .fields.add("mbps", printed(r.throughput_mbs, 1))
        .add("extra_pct", pct(r.extra_frame_fraction()));
  }
  // A3: striping policy over two rails.
  for (const auto& [policy, pol] :
       {std::pair<const char*, proto::StripingPolicy>{
            "round-robin", proto::StripingPolicy::kRoundRobin},
        {"random", proto::StripingPolicy::kRandom},
        {"shortest-queue", proto::StripingPolicy::kShortestQueue}}) {
    ClusterConfig cfg = config_2lu_1g(2);
    cfg.protocol.striping = pol;
    const MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    add_row(report, std::string("a3/") + policy)
        .fields.add("mbps", printed(r.throughput_mbs, 1))
        .add("ooo_pct", pct(r.ooo_fraction()));
  }
  // A4: interrupt moderation on (tg3 defaults) and off.
  for (bool on : {true, false}) {
    ClusterConfig cfg = config_1l_1g(2);
    if (!on) {
      cfg.topology.nic.irq_coalesce_frames = 1;
      cfg.topology.nic.irq_coalesce_delay = 0;
    }
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 64;
    const MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);
    const MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    add_row(report, on ? "a4/on" : "a4/off")
        .fields.add("latency_us", printed(lat.latency_us, 1))
        .add("mbps", printed(bw.throughput_mbs, 1))
        .add("cpu_pct", pct(bw.cpu_utilization));
  }
  // A5: link-count scaling over 1-GBit/s rails.
  for (int rails = 1; rails <= 4; ++rails) {
    ClusterConfig cfg = config_2lu_1g(2);
    cfg.topology.rails = rails;
    const MicroResult ow = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    const MicroResult tw = run_micro(cfg, MicroBench::kTwoWay, big_msgs(quick));
    add_row(report, "a5/rails" + std::to_string(rails))
        .fields.add("one_way_mbps", printed(ow.throughput_mbs, 1))
        .add("two_way_mbps", printed(tw.throughput_mbs, 1))
        .add("ooo_pct", pct(ow.ooo_fraction()));
  }
  // A6: goodput under forced frame loss.
  for (double p : {0.0, 0.0001, 0.001, 0.01, 0.05}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.topology.link.drop_prob = p;
    const MicroResult r = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    add_row(report, "a6/drop" + stats::json::number(p))
        .fields.add("mbps", printed(r.throughput_mbs, 1))
        .add("retx", r.retransmissions)
        .add("extra_pct", pct(r.extra_frame_fraction()));
  }
}

// ------------------------------------------------------------- Future work

void future_work(bench::Report& report, const AppRuns& runs, bool quick) {
  // (a) Two-level switch trees: nodes 0 and 1 land in different groups, so
  // the micro traffic crosses the core when there is more than one group.
  struct Tree {
    const char* name;
    int groups;
    double core_gbps;
  };
  for (const Tree& t : {Tree{"flat", 1, 0.0}, Tree{"4groups-1G-core", 4, 1.0},
                        Tree{"4groups-4G-core", 4, 4.0}}) {
    ClusterConfig cfg = config_1l_1g(2);
    cfg.topology.edge_groups = t.groups;
    cfg.topology.core_uplink_gbps = t.core_gbps;
    MicroParams big;
    big.message_bytes = 64 * 1024;
    if (quick) big.iterations = 32;
    const MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big);
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 32;
    const MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);
    // The flat tree is fig3's setup: its FFT point is fig3's.
    double fft_ms = runs.at(app_row("fig3", "FFT", 16)).parallel_ms;
    if (t.groups > 1) {
      apps::HarnessOptions ho = apps::setup_1l_1g();
      ho.cluster.topology.edge_groups = t.groups;
      ho.cluster.topology.core_uplink_gbps = t.core_gbps;
      ho.setup_name = t.name;
      fft_ms = apps::run_app(ho, "FFT", bench_params("FFT", quick), 16)
                   .parallel_ms;
    }
    Fields& f = add_row(report, std::string("fw/") + t.name).fields;
    if (t.core_gbps > 0) f.add("core_gbps", t.core_gbps);
    f.add("mbps", printed(bw.throughput_mbs, 1))
        .add("latency_us", printed(lat.latency_us, 1))
        .add("fft16_ms", printed(fft_ms, 1));
  }
  // (b) A NIC that offloads the edge-protocol fast path, against the host
  // protocol, on 1L-10G.
  for (bool off : {false, true}) {
    ClusterConfig cfg = config_1l_10g(2);
    if (off) cfg.costs = proto::HostCostModel::offload();
    const MicroResult bw = run_micro(cfg, MicroBench::kOneWay, big_msgs(quick));
    MicroParams small;
    small.message_bytes = 64;
    if (quick) small.iterations = 32;
    const MicroResult lat = run_micro(cfg, MicroBench::kPingPong, small);
    add_row(report, off ? "fw/offload" : "fw/host")
        .fields.add("mbps", printed(bw.throughput_mbs, 1))
        .add("cpu_pct", pct(bw.cpu_utilization))
        .add("latency_us", printed(lat.latency_us, 1))
        .add("overhead_us", printed(bw.latency_us, 2));
  }
}

// ------------------------------------------------------- Known deviations

/// The largest `metric` over the rows named `prefix`*.
double max_of(const bench::Report& report, std::string_view prefix,
              std::string_view metric) {
  double m = 0;
  for (const Row& r : report.rows) {
    if (!r.name.starts_with(prefix)) continue;
    if (const auto v = r.metric(metric)) m = std::max(m, *v);
  }
  return m;
}

void deviations(bench::Report& report) {
  add_row(report, "dev/1-10G-one-way-cpu")
      .fields.add("unit", "%")
      .add("expected", 95)
      .add("measured", max_of(report, "fig2/1L-10G/one-way/", "cpu_pct"));
  double irq = 0;
  for (const char* fig : {"fig3/", "fig5/", "fig6/"}) {
    irq = std::max(irq, max_of(report, fig, "irq_pct"));
  }
  add_row(report, "dev/2-irq-frames")
      .fields.add("unit", "%")
      .add("expected", 40)
      .add("measured", irq);
  add_row(report, "dev/3-extra-traffic")
      .fields.add("unit", "%")
      .add("expected", 15)
      .add("measured", max_of(report, "fig3/", "extra_pct"));
  std::uint64_t drops = 0;
  for (const Row& r : report.rows) {
    if (r.name.starts_with("fig")) {
      drops += static_cast<std::uint64_t>(r.metric("drops").value_or(0));
    }
  }
  add_row(report, "dev/5-clean-drops")
      .fields.add("unit", "frames")
      .add("measured", drops);
  // Linear growth up to the window that fills the pipe, against A1.
  for (const auto& [setup, fill] : {std::pair<std::string, int>{"1L-1G", 32},
                                    {"1L-10G", 64}}) {
    auto a1_mbps = [&](int w) {
      return report.metric("a1/" + setup + "/w" + std::to_string(w), "mbps")
          .value_or(0);
    };
    for (int w : {4, 8, 16}) {
      add_row(report, "dev/6-" + setup + "-w" + std::to_string(w))
          .fields.add("unit", "MB/s")
          .add("expected", printed(a1_mbps(fill) * w / fill, 1))
          .add("measured", a1_mbps(w));
    }
  }
}

// ------------------------------------------------------------------ Gates

constexpr double kLine1G = 125.0;    // MB/s, raw line rate
constexpr double kLine10G = 1250.0;  // MB/s

/// Gates on the micro-benchmark rows (Figure 2 and the ablations). They
/// hold at the --quick sizes too.
std::vector<Gate> micro_gates() {
  std::vector<Gate> g = {
      {"Fig. 2(a): minimum latency is about 30 us (1L-10G ping-pong, 64 B)",
       "fig2/1L-10G/ping-pong/64", "", "latency_us", Cmp::kGe, 20},
      {"Fig. 2(a): minimum latency is about 30 us (1L-10G ping-pong, 64 B)",
       "fig2/1L-10G/ping-pong/64", "", "latency_us", Cmp::kLe, 35},
      {"§4: single-link runs deliver no frame out of order", "fig2/1L-1G/",
       "", "ooo_frames", Cmp::kLe, 0},
      {"§4: single-link runs deliver no frame out of order", "fig2/1L-10G/",
       "", "ooo_frames", Cmp::kLe, 0},
      {"§4: with two links 45-50 % of frames arrive out of order (2L-1G "
       "one-way, 64 KiB)",
       "fig2/2L-1G/one-way/65536", "", "ooo_pct", Cmp::kGe, 40},
      {"§4: with two links 45-50 % of frames arrive out of order (2L-1G "
       "one-way, 64 KiB)",
       "fig2/2L-1G/one-way/65536", "", "ooo_pct", Cmp::kLe, 55},
      {"§4: extra frames (explicit acks and retransmissions) stay at or "
       "below 5.5 %",
       "fig2/", "", "extra_pct", Cmp::kLe, 5.5},
      {"§4: flow control does not limit the maximum throughput (a window "
       "above the default 64 frames adds < 1 % at 10G)",
       "a1/1L-10G/w128", "a1/1L-10G/w64", "mbps", Cmp::kLe, 1.01},
      {"§6: throughput scales with the number of links (4 rails vs 1, "
       "one-way)",
       "a5/rails4", "a5/rails1", "one_way_mbps", Cmp::kGe, 3.9},
  };
  for (const char* size : {"65536", "262144", "1048576"}) {
    g.push_back({"Fig. 2(b): 10G one-way reaches about 88 % of the 1250 MB/s "
                 "line rate (gate: >= 85 %)",
                 std::string("fig2/1L-10G/one-way/") + size, "", "mbps",
                 Cmp::kGe, 0.85 * kLine10G});
    g.push_back({"Fig. 2(b): one 1G link carries about 120 MB/s (gate: >= 92 % "
                 "of the 125 MB/s raw line rate; the per-frame payload "
                 "ceiling is 1428/1538 of it, 116.1 MB/s)",
                 std::string("fig2/1L-1G/one-way/") + size, "", "mbps",
                 Cmp::kGe, 0.92 * kLine1G});
  }
  return g;
}

/// Gates on the application study, whose claims describe the full sizes.
std::vector<Gate> app_gates() {
  std::vector<Gate> g;
  const std::vector<std::string> top = {"Barnes-Spatial", "Raytrace",
                                        "Water-Nsquared"};
  const std::vector<std::string> mid = {"LU", "Water-Spatial",
                                        "Water-SpatialFL"};
  const std::vector<std::string> poor = {"FFT", "Radix"};
  for (const std::string& a : top) {
    for (const std::string& b : mid) {
      g.push_back({"Fig. 3(a): Barnes, Raytrace and Water-Nsquared speed up "
                   "13-14x, ahead of LU and Water-Spatial(FL) at 6-8x",
                   app_row("fig3", a, 16), app_row("fig3", b, 16), "speedup",
                   Cmp::kGt, 1});
    }
  }
  for (const std::string& a : mid) {
    for (const std::string& b : poor) {
      g.push_back({"Fig. 3(a): LU and Water-Spatial(FL) scale ahead of FFT "
                   "and Radix, which scale poorly",
                   app_row("fig3", a, 16), app_row("fig3", b, 16), "speedup",
                   Cmp::kGt, 1});
    }
  }
  g.push_back({"Fig. 3(a): Radix does not scale on 1L-1G",
               app_row("fig3", "Radix", 16), "", "speedup", Cmp::kLt, 1});
  for (const std::string& app : apps::table1_app_names()) {
    if (app != "FFT" && app != "Radix") {
      g.push_back({"Fig. 4: most applications reach speedups of 3-4 on 4 "
                   "nodes over 1L-10G, except FFT and Radix (gate: >= 2.5)",
                   app_row("fig4", app, 4), "", "speedup", Cmp::kGe, 2.5});
    }
    for (const auto& [cmp, bound] :
         {std::pair{Cmp::kGe, 0.98}, std::pair{Cmp::kLe, 1.02}}) {
      g.push_back({"Fig. 6: relaxing ordering (2Lu-1G with fences) does not "
                   "significantly change application time vs 2L-1G "
                   "(gate: within 2 %)",
                   app_row("fig6", app, 16), app_row("fig5", app, 16),
                   "total_ms", cmp, bound});
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_paper.json");
  bench::Report report;
  fig2(report, args.quick);
  const AppRuns runs = run_apps(args.quick);
  table1(report, runs, args.quick);
  app_figures(report, runs);
  ablations(report, args.quick);
  future_work(report, runs, args.quick);
  deviations(report);
  for (Row& r : report.rows) {
    r.fingerprint = bench::fields_fingerprint(r.fields);
  }

  std::vector<Gate> gates = micro_gates();
  if (!args.quick) {
    for (Gate& g : app_gates()) gates.push_back(std::move(g));
  }
  return bench::finish(args, "paper", report, gates);
}
