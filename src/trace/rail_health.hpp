// Per-rail health telemetry.
//
// One RailHealth aggregator per (node, rail) egress direction, fed from the
// layers that already observe the relevant signals: the channel fault model
// reports wire drops, Gilbert-Elliott burst-loss marks and outage flaps as
// they happen, and the protocol connection reports retransmissions against
// the rail that carries them. Feeding is a pure observer — counter adds
// plus an exponential-decay fold (one std::exp per feed), no simulated time,
// no allocation — so the aggregators are ALWAYS on (no config gate) and
// cannot perturb the protocol or any fingerprinted counter set.
//
// Rates are irregular-sample EWMAs: instead of a periodic fold timer (which
// would add simulator events), each feed decays the accumulated rate by
// exp(-dt/tau) since the previous feed. snapshot() folds up to "now" so two
// snapshots at the same sim time agree regardless of feed history, up to
// the rounding of the fold instants. score(now) skips the fold on a clean
// rail, whose score is exactly 0 whatever the send rate.
//
// Cluster aggregates every node's snapshots into a cluster-health JSON
// (Cluster::write_cluster_health) — the substrate the congestion-aware
// multipath work consumes (ROADMAP) — and the flight recorder embeds the
// same snapshots in postmortem dumps.
#pragma once

#include <cstdint>
#include <string>

#include "sim/signal.hpp"
#include "sim/time.hpp"

namespace multiedge::trace {

class RailHealth {
 public:
  /// Decay time constant of the rate EWMAs.
  static constexpr sim::Time kTau = sim::Time{1'000'000'000};  // 1 ms

  // --- feed points (hot path: each folds the EWMAs up to `now`) ---
  void on_frame_sent(sim::Time now, std::uint64_t wire_bytes) {
    fold(now);
    ++frames_sent_;
    bytes_sent_ += wire_bytes;
    send_rate_ += 1.0;
  }
  void on_drop(sim::Time now, bool burst) {
    fold(now);
    ++drops_;
    if (burst) ++burst_drops_;
    loss_rate_ += 1.0;
    changed_.touch();
  }
  void on_corrupt(sim::Time now) {
    fold(now);
    ++corrupts_;
    loss_rate_ += 1.0;  // an FCS-bad frame is lost to the protocol
    changed_.touch();
  }
  void on_burst_transition(sim::Time now, bool now_bad) {
    fold(now);
    ++burst_transitions_;
    in_burst_ = now_bad;
    changed_.touch();
  }
  void on_outage_change(sim::Time now, bool now_out) {
    fold(now);
    if (now_out != in_outage_) {
      ++outage_flaps_;
      in_outage_ = now_out;
      changed_.touch();
    }
  }
  void on_retransmit(sim::Time now) {
    fold(now);
    ++retransmits_;
    retransmit_rate_ += 1.0;
    changed_.touch();
  }
  /// Queue depth is sampled (not event-fed): callers pass the NIC's current
  /// tx ring occupancy whenever they have it in hand.
  void on_queue_sample(sim::Time now, std::uint64_t tx_queue,
                       std::uint64_t rx_queue) {
    fold(now);
    const double alpha = 0.25;  // simple fixed-gain smoothing for depth
    tx_queue_ewma_ += alpha * (static_cast<double>(tx_queue) - tx_queue_ewma_);
    rx_queue_ewma_ += alpha * (static_cast<double>(rx_queue) - rx_queue_ewma_);
    last_tx_queue_ = tx_queue;
    last_rx_queue_ = rx_queue;
  }

  /// Point-in-time view. Rates are events per millisecond (tau-normalized).
  struct Snapshot {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t drops = 0;
    std::uint64_t burst_drops = 0;
    std::uint64_t corrupts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t burst_transitions = 0;
    std::uint64_t outage_flaps = 0;
    double send_rate = 0;        // frames/ms, EWMA
    double loss_rate = 0;        // drops+corrupts/ms, EWMA
    double retransmit_rate = 0;  // retransmits/ms, EWMA
    double tx_queue_ewma = 0;
    double rx_queue_ewma = 0;
    std::uint64_t tx_queue = 0;  // most recent raw sample
    std::uint64_t rx_queue = 0;
    bool in_burst = false;
    bool in_outage = false;
    /// 0 (healthy) .. 1 (unusable): the scalar a stripe scheduler can rank
    /// rails by. Loss and retransmit pressure dominate; an active outage
    /// pins it to 1.
    double score() const;
  };
  Snapshot snapshot(sim::Time now) const;

  /// Bit-identical to snapshot(now).score(). A clean rail scores exactly
  /// 0, so that case returns without folding: the broker asks on every
  /// dispatch pass.
  double score(sim::Time now) const {
    if (clean()) return 0.0;
    return snapshot(now).score();
  }
  /// No outage, no burst state, and zero loss and retransmit EWMAs. Only
  /// a feed that folds loss, a burst or an outage in can end it; those
  /// feeds touch changed().
  bool clean() const {
    return !in_outage_ && !in_burst_ && loss_rate_ == 0.0 &&
           retransmit_rate_ == 0.0;
  }
  /// Touched by every feed that can make score() nonzero (sim::Wake).
  sim::Signal& changed() { return changed_; }

  /// One JSON object (single line) for cluster-health / postmortem dumps.
  static std::string to_json(const Snapshot& s);

 private:
  void fold(sim::Time now) const;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t burst_drops_ = 0;
  std::uint64_t corrupts_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t burst_transitions_ = 0;
  std::uint64_t outage_flaps_ = 0;
  std::uint64_t last_tx_queue_ = 0;
  std::uint64_t last_rx_queue_ = 0;
  bool in_burst_ = false;
  bool in_outage_ = false;
  // Decayed-rate state (mutable: fold() is logically const bookkeeping).
  mutable double send_rate_ = 0;
  mutable double loss_rate_ = 0;
  mutable double retransmit_rate_ = 0;
  mutable double tx_queue_ewma_ = 0;
  mutable double rx_queue_ewma_ = 0;
  mutable sim::Time last_fold_ = 0;
  sim::Signal changed_;
};

}  // namespace multiedge::trace
