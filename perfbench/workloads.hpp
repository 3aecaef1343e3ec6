// The four perfbench workloads. Each builds a fresh cluster from the seed,
// runs one measured window through the layers' public API, checks its
// outputs, and returns one repetition's numbers. Same seed, same simulated
// numbers: a repetition differs from another only in host wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  std::size_t ring_capacity = 0;  // trace ring (traced repetitions only)
};

struct Rep {
  // Host clock, seconds.
  double cluster_s = 0;  // Cluster (and upper-layer) construction
  double warm_s = 0;     // from construction to the window: connections, preload
  double wall_s = 0;     // the measured window
  // Simulated measured window.
  double sim_ms = 0;
  double payload_bytes = 0;  // application bytes the window moved or produced
  double ops = 0;            // completed-ok operations in the window
  std::vector<double> lat_us;  // one per attempted op; kInf = failed or shed
  // Output checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  // Counters.
  Snap window;  // measured window only (sim, net, proto, core)
  Snap total;   // whole run, all layers: the fingerprint source
  std::map<std::string, double> layer;  // workload-specific per-layer values
  // Traced repetitions only.
  TraceFold fold;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_lost = 0;
  std::uint64_t sampler_ticks = 0;  // sim events the samplers themselves ran

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

Rep run_stream(const RepOptions& o);
Rep run_kv_read(const RepOptions& o);
Rep run_kv_write(const RepOptions& o);
Rep run_dsm_radix(const RepOptions& o);

/// Radix through apps::run_app with the same inputs and configuration as
/// run_dsm_radix: the cross-check that the mirrored harness reproduces it.
struct AppCheck {
  double parallel_ms = 0;
  bool checksum_ok = false;  // matches the host-sorted reference
  std::uint64_t retransmissions = 0;
};
AppCheck run_radix_via_harness(std::uint64_t seed);

}  // namespace perfbench
