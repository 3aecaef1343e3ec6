// Measurement harness for the application study (Figures 3-6).
//
// Runs one application on a given cluster/DSM configuration and collects
// everything the paper's figures report: parallel execution time, per-node
// execution-time breakdown (compute / data wait / synchronization / DSM
// overhead), protocol CPU utilization, and network-level statistics
// (interrupt fraction, extra traffic, out-of-order fraction, drops).
#pragma once

#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/api.hpp"
#include "dsm/dsm.hpp"

namespace multiedge::apps {

struct NodeBreakdown {
  double compute_ms = 0;
  double data_wait_ms = 0;
  double lock_wait_ms = 0;
  double barrier_wait_ms = 0;
  double dsm_overhead_ms = 0;
  double protocol_cpu = 0;  // of 2.0
};

struct AppRunResult {
  std::string app;
  std::string setup;
  int nodes = 0;
  double parallel_ms = 0;  // measured parallel-section time
  std::uint64_t checksum = 0;
  std::vector<NodeBreakdown> per_node;

  // Network totals over the measured section (summed over nodes).
  std::uint64_t data_frames = 0;
  std::uint64_t ooo_frames = 0;
  std::uint64_t ack_frames = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t nic_frames = 0;  // tx+rx at the NICs (interrupt denominator)
  std::uint64_t dropped_frames = 0;

  double ooo_fraction() const {
    return data_frames ? double(ooo_frames) / double(data_frames) : 0.0;
  }
  double extra_frame_fraction() const {
    return data_frames
               ? double(ack_frames + retransmissions) / double(data_frames)
               : 0.0;
  }
  /// Fraction of send+receive frames that caused an interrupt.
  double interrupt_fraction() const {
    return nic_frames ? double(interrupts) / double(nic_frames) : 0.0;
  }
  double max_protocol_cpu() const {
    double m = 0;
    for (const auto& b : per_node) m = std::max(m, b.protocol_cpu);
    return m;
  }
};

struct HarnessOptions {
  ClusterConfig cluster;
  dsm::DsmConfig dsm;
  std::string setup_name;  // "1L-1G" etc., for reporting
};

/// Run `app_name` with `params` on `nodes` nodes. The DSM home distribution
/// is adapted to the application's preference.
AppRunResult run_app(const HarnessOptions& opts, const std::string& app_name,
                     const AppParams& params, int nodes);

/// Paper-style setup presets including the DSM mode (fences for 2Lu).
HarnessOptions setup_1l_1g();
HarnessOptions setup_2l_1g();
HarnessOptions setup_2lu_1g();
HarnessOptions setup_1l_10g();

}  // namespace multiedge::apps
