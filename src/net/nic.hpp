// Network interface card model.
//
// Mirrors the behaviour the MultiEdge drivers rely on: tx/rx descriptor
// rings, DMA of received frames into host buffers, and level-triggered
// interrupts that the host can mask so the protocol thread can poll instead
// (§2.6 of the paper). One quirk from the paper is modelled explicitly: the
// Myricom 10-GBit/s NIC did not allow masking its send-completion interrupts,
// which is part of why the 10G sender tops out at ~88% of line rate —
// `NicConfig::tx_irq_maskable = false` reproduces that.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "net/channel.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/timer.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace multiedge::net {

struct NicConfig {
  std::string model = "tg3";
  double gbps = 1.0;
  std::size_t tx_ring_slots = 512;
  std::size_t rx_ring_slots = 512;
  /// Latency from last wire byte to the frame being visible in the rx ring.
  sim::Time rx_dma_latency = sim::ns(600);
  /// False for the Myricom 10G model: send completions always interrupt.
  bool tx_irq_maskable = true;
  /// Interrupt moderation: fire at most one interrupt per this many pending
  /// events, or once this much time passed since the first pending event —
  /// whichever comes first. 1/0 disables moderation.
  std::uint32_t irq_coalesce_frames = 8;
  sim::Time irq_coalesce_delay = sim::us(18);
};

class Nic : public FrameSink {
 public:
  struct Stats {
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t tx_completions = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t rx_ring_drops = 0;
    std::uint64_t rx_fcs_drops = 0;
    std::uint64_t rx_filtered = 0;  // flooded frames for other stations
  };

  Nic(sim::Simulator& sim, NicConfig config, MacAddr mac)
      : sim_(sim),
        cfg_(std::move(config)),
        mac_(mac),
        coalesce_timer_(sim, [this] { on_coalesce_timeout(); }) {}

  void attach_tx(Channel* out);

  // --- Driver-facing API ---

  /// Post a frame for transmission. Returns false if the tx ring is full.
  bool tx(FramePtr frame);

  /// Pop the next received frame, or nullptr if the rx ring is empty.
  FramePtr rx_pop();

  std::size_t rx_pending() const { return rx_ring_.size(); }
  std::size_t tx_space() const { return cfg_.tx_ring_slots - tx_in_ring_; }

  /// Number of send completions since the last call (buffer reclamation).
  std::uint64_t take_tx_completions();

  /// True if any event is pending that polling would discover.
  bool events_pending() const {
    return !rx_ring_.empty() || unreaped_tx_completions_ > 0;
  }

  /// Mask/unmask interrupts. Level-triggered: unmasking with events pending
  /// raises an interrupt immediately, so no wakeup is ever lost.
  void set_irq_enabled(bool enabled);
  void set_irq_handler(sim::SmallFn handler) {
    irq_handler_ = std::move(handler);
  }

  MacAddr mac() const { return mac_; }
  const NicConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  /// Attach the trace recorder (nullptr disables). `node`/`rail` identify
  /// this NIC's track in the exported trace.
  void set_tracer(trace::TraceRecorder* t, int node, int rail) {
    tracer_ = t;
    trace_node_ = node;
    trace_rail_ = rail;
  }

  /// Attach the rail-health aggregator (nullptr disables). The NIC samples
  /// its tx/rx ring occupancy into it on every tx post and rx delivery.
  void set_rail_health(trace::RailHealth* rh) { rail_health_ = rh; }

  // --- Wire-facing (FrameSink) ---
  void deliver(FramePtr frame) override;

 private:
  void start_next_tx();
  void on_tx_serialized();
  /// An interrupt-worthy event occurred; subject to moderation unless
  /// `urgent` (solicited event — fires immediately).
  void note_irq_event(bool maskable, bool urgent = false);
  void on_coalesce_timeout();
  void fire_irq();

  sim::Simulator& sim_;
  NicConfig cfg_;
  MacAddr mac_;
  Channel* tx_channel_ = nullptr;

  std::deque<FramePtr> tx_ring_;
  std::size_t tx_in_ring_ = 0;  // queued + in flight
  bool tx_busy_ = false;

  std::deque<FramePtr> rx_ring_;
  std::uint64_t unreaped_tx_completions_ = 0;

  bool irq_enabled_ = true;
  sim::SmallFn irq_handler_;
  std::uint32_t coalesce_count_ = 0;
  bool unmaskable_waiting_ = false;
  sim::Timer coalesce_timer_;
  Stats stats_;

  trace::TraceRecorder* tracer_ = nullptr;
  int trace_node_ = -1;
  int trace_rail_ = -1;
  trace::RailHealth* rail_health_ = nullptr;
};

}  // namespace multiedge::net
