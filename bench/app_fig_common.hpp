// Shared driver for the application-study benches (Figures 3-6).
//
// For one setup (1L-1G / 1L-10G / 2L-1G / 2Lu-1G) this prints the paper's
// three views: (a) speedup curves over node counts, (b) per-application
// execution-time breakdowns at full scale, and (c) network-level statistics
// (protocol CPU, interrupt fraction, extra traffic, out-of-order fraction).
#pragma once

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "bench_common.hpp"
#include "stats/table.hpp"

namespace multiedge::apps {

/// Bench-default problem sizes: scaled-down versions of Table 1 that keep a
/// 16-node simulation tractable while preserving each app's comm:compute
/// regime (see EXPERIMENTS.md).
inline AppParams bench_params(const std::string& app, bool quick) {
  AppParams p;
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

struct FigureOptions {
  bool quick = false;
  bool speedups = true;          // print the speedup sweep (Figs 3,4)
  std::vector<int> node_counts;  // e.g. {1,2,4,8,16}
};

inline void run_app_figure(const HarnessOptions& setup, const FigureOptions& fo) {
  const int full = fo.node_counts.back();

  std::map<std::string, std::vector<AppRunResult>> sweeps;
  std::map<std::string, double> seq_ms;

  stats::Table speed({"app", "setup", "nodes", "time(ms)", "speedup"});
  for (const std::string& app : table1_app_names()) {
    const AppParams params = bench_params(app, fo.quick);
    for (int n : fo.node_counts) {
      if (!fo.speedups && n != 1 && n != full) continue;
      AppRunResult r = run_app(setup, app, params, n);
      if (n == 1) seq_ms[app] = r.parallel_ms;
      sweeps[app].push_back(r);
      speed.row()
          .cell(app)
          .cell(setup.setup_name)
          .cell(n)
          .cell(r.parallel_ms, 1)
          .cell(seq_ms.count(app) ? seq_ms[app] / r.parallel_ms : 0.0, 2);
    }
  }
  std::cout << "-- (a) speedups --\n";
  speed.print(std::cout);

  std::cout << "\n-- (b) execution-time breakdown at " << full
            << " nodes (avg per node, ms) --\n";
  stats::Table brk({"app", "compute", "data wait", "lock wait", "barrier",
                    "dsm ovh", "total(ms)"});
  for (const std::string& app : table1_app_names()) {
    const AppRunResult& r = sweeps[app].back();
    NodeBreakdown avg;
    for (const NodeBreakdown& b : r.per_node) {
      avg.compute_ms += b.compute_ms / r.nodes;
      avg.data_wait_ms += b.data_wait_ms / r.nodes;
      avg.lock_wait_ms += b.lock_wait_ms / r.nodes;
      avg.barrier_wait_ms += b.barrier_wait_ms / r.nodes;
      avg.dsm_overhead_ms += b.dsm_overhead_ms / r.nodes;
    }
    brk.row()
        .cell(app)
        .cell(avg.compute_ms, 1)
        .cell(avg.data_wait_ms, 1)
        .cell(avg.lock_wait_ms, 1)
        .cell(avg.barrier_wait_ms, 1)
        .cell(avg.dsm_overhead_ms, 1)
        .cell(r.parallel_ms, 1);
  }
  brk.print(std::cout);

  std::cout << "\n-- (c,d,e) network-level statistics at " << full
            << " nodes --\n";
  stats::Table net({"app", "proto cpu% (max)", "interrupt frames%",
                    "extra traffic%", "ooo%", "retx", "drops"});
  for (const std::string& app : table1_app_names()) {
    const AppRunResult& r = sweeps[app].back();
    net.row()
        .cell(app)
        .cell(r.max_protocol_cpu() * 100.0, 1)
        .cell(r.interrupt_fraction() * 100.0, 1)
        .cell(r.extra_frame_fraction() * 100.0, 1)
        .cell(r.ooo_fraction() * 100.0, 1)
        .cell(r.retransmissions)
        .cell(r.dropped_frames);
  }
  net.print(std::cout);
  std::cout << '\n';
}

/// `speedups` is the figure's default for the speedup sweep, which
/// --sweep / --no-sweep override.
inline FigureOptions parse_figure_options(int argc, char** argv,
                                          std::vector<int> full_nodes,
                                          bool speedups = true) {
  FigureOptions fo;
  fo.node_counts = std::move(full_nodes);
  fo.speedups = speedups;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      fo.quick = true;
    } else if (arg == "--sweep" || arg == "--no-sweep") {
      fo.speedups = arg == "--sweep";
    } else {
      bench::reject_argument(argv[0], arg, "[--quick] [--sweep|--no-sweep]");
    }
  }
  return fo;
}

}  // namespace multiedge::apps
