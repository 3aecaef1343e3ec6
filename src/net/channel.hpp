// Unidirectional physical channel: serialization at link rate, propagation
// delay, and fault injection (drops, FCS corruption, duplication, delay
// jitter, bursty loss, scheduled outages).
//
// A full-duplex link is a pair of channels. The channel transmits one frame
// at a time; queueing lives in the attached device (NIC tx ring, switch
// output queue), which feeds the next frame from its on_tx_done callback —
// exactly how real MACs interact with their DMA engines.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"
#include "trace/rail_health.hpp"
#include "trace/trace.hpp"

namespace multiedge::net {

/// Gilbert–Elliott two-state bursty loss model. The channel sits in a "good"
/// or "bad" state with per-state drop probabilities; state transitions are
/// evaluated once per transmitted frame. Captures the clustered-loss
/// behaviour of real Ethernet (interference bursts, switch buffer overruns)
/// that uniform i.i.d. drops cannot.
struct GilbertElliott {
  bool enabled = false;
  double p_good_to_bad = 0.0;  // per-frame transition probability
  double p_bad_to_good = 0.0;
  double drop_good = 0.0;      // drop probability while in the good state
  double drop_bad = 0.0;       // drop probability while in the bad state
};

/// Stochastic + scheduled fault model for one channel direction.
struct FaultModel {
  double drop_prob = 0.0;     // frame silently lost (uniform i.i.d.)
  double corrupt_prob = 0.0;  // frame delivered with fcs_bad set
  double dup_prob = 0.0;      // frame delivered twice (switch/PHY duplication)

  /// Maximum extra propagation delay added per delivery, drawn uniformly in
  /// [0, jitter_max]. With jitter larger than the inter-frame gap, later
  /// frames can overtake earlier ones — reordering within a single link.
  sim::Time jitter_max = 0;

  GilbertElliott burst;

  /// Half-open [start, end) windows during which every frame is lost
  /// (transient link failures, §2.4 of the paper).
  std::vector<std::pair<sim::Time, sim::Time>> outages;

  bool in_outage(sim::Time t) const {
    for (const auto& [s, e] : outages) {
      if (t >= s && t < e) return true;
    }
    return false;
  }
};

class Channel {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;  // wire bytes
    std::uint64_t frames_dropped = 0;
    std::uint64_t frames_dropped_burst = 0;  // subset lost in the bad state
    std::uint64_t frames_corrupted = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_delayed = 0;     // deliveries with non-zero jitter
    std::uint64_t burst_transitions = 0;  // good<->bad state changes
  };

  Channel(sim::Simulator& sim, double gbps, sim::Time propagation_delay,
          std::uint64_t seed = 1)
      : sim_(sim), gbps_(gbps), prop_delay_(propagation_delay), rng_(seed) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void set_sink(FrameSink* sink) { sink_ = sink; }
  void set_on_tx_done(sim::SmallFn cb) { on_tx_done_ = std::move(cb); }
  FaultModel& faults() { return faults_; }

  /// Begin transmitting `frame`. Precondition: !busy(). The frame occupies
  /// the wire for its serialization time; on_tx_done fires when the sender
  /// side finishes (so the device can feed the next frame), and the sink
  /// receives the frame a propagation delay (plus jitter) later (unless
  /// dropped).
  void send(FramePtr frame);

  bool busy() const { return sim_.now() < tx_free_at_; }
  double gbps() const { return gbps_; }
  const Stats& stats() const { return stats_; }
  bool in_burst_bad_state() const { return burst_bad_; }

  /// Attach the trace recorder (nullptr disables); drop/corrupt events are
  /// tagged with this node/rail.
  void set_tracer(trace::TraceRecorder* t, int node, int rail) {
    tracer_ = t;
    trace_node_ = node;
    trace_rail_ = rail;
  }

  /// Attach the sender-side rail-health aggregator (nullptr disables). The
  /// channel feeds it sends, drops, corruptions, burst transitions and
  /// outage flaps as they happen — pure observation, no timing impact.
  void set_rail_health(trace::RailHealth* rh) { rail_health_ = rh; }

 private:
  void schedule_delivery(FramePtr frame);

  sim::Simulator& sim_;
  double gbps_;
  sim::Time prop_delay_;
  sim::Rng rng_;
  FaultModel faults_;
  FrameSink* sink_ = nullptr;
  // Each frame schedules a [this] thunk that calls it, so the hot path
  // never copies the callback.
  sim::SmallFn on_tx_done_;
  sim::Time tx_free_at_ = 0;
  bool burst_bad_ = false;
  Stats stats_;
  trace::TraceRecorder* tracer_ = nullptr;
  int trace_node_ = -1;
  int trace_rail_ = -1;
  trace::RailHealth* rail_health_ = nullptr;
};

}  // namespace multiedge::net
