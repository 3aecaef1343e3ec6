// Layer probes for perfbench: counter snapshots read through each layer's
// public stats, per-layer counter fingerprints, and benchmark-side spans.
//
// Nothing here reaches inside a layer. A snapshot reads the public
// counters/stats of the cluster (sim, net, proto, core) and of whichever
// upper layers a workload built (kv, svc, member, dsm), and names every
// value "<layer>.<counter>". The layer prefix groups the sub-fingerprints,
// so a mismatch names the layer and the counters that moved.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "trace/trace.hpp"

namespace multiedge::kv {
class System;
}
namespace multiedge::dsm {
class DsmSystem;
}

namespace perfbench {

using namespace multiedge;

/// Named counter values, keyed "<layer>.<counter>". Every value is a whole
/// number of events, bytes or simulated picoseconds.
using Snap = std::map<std::string, double>;

/// The upper layers a workload built on top of its Cluster (null = absent).
struct Upper {
  kv::System* kv = nullptr;
  dsm::DsmSystem* dsm = nullptr;
};

/// Read every public counter of `cluster` and `upper` at the current
/// simulated instant. kv client counters only reach kv::System when a
/// client fiber exits, so read kv/svc/member snapshots after Cluster::run.
Snap snapshot(Cluster& cluster, const Upper& upper);

/// b - a, key by key (keys missing from `a` count as 0).
Snap diff(const Snap& b, const Snap& a);

inline double get(const Snap& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

/// One FNV-1a fingerprint per layer prefix.
std::map<std::string, std::uint64_t> fingerprints(const Snap& s);

/// Print, per layer, the counters that differ between `a` and `b`
/// (`what` labels the comparison). Returns the number of differing layers.
int report_mismatch(const Snap& a, const Snap& b, const std::string& what);

// --- host clock -------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- benchmark-side spans ---------------------------------------------------

/// A span the benchmark records around one call into a layer's public
/// function, or around a fiber's whole session (the parent of its calls).
struct Span {
  const char* name = "";
  sim::Time start = 0;
  sim::Time end = 0;
  int parent = -1;  // index in the log, -1 = root
};

/// In-memory span log; a disabled log records nothing (untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  int open(const char* name, sim::Time start, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, start, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, sim::Time end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// --- percentiles ------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double q);

// --- traced-run folding -----------------------------------------------------

/// Per-layer numbers folded from the recorder's span events, the rail
/// queue samplers, and the benchmark's own spans.
struct TraceFold {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::uint64_t spans = 0;                // span events folded
};

TraceFold fold_trace(const std::vector<trace::Event>& events,
                     const std::vector<std::unique_ptr<trace::TimeSeries>>& series,
                     const std::vector<Span>& bench_spans);

}  // namespace perfbench
