#include "net/channel.hpp"

#include <cassert>
#include <memory>

#include "net/frame_pool.hpp"

namespace multiedge::net {

void Channel::schedule_delivery(FramePtr frame) {
  sim::Time jitter = 0;
  if (faults_.jitter_max > 0) {
    jitter = static_cast<sim::Time>(
        rng_.next_below(static_cast<std::uint64_t>(faults_.jitter_max) + 1));
    if (jitter > 0) ++stats_.frames_delayed;
  }
  sim_.at(tx_free_at_ + prop_delay_ + jitter,
          [this, f = std::move(frame)]() mutable { sink_->deliver(std::move(f)); });
}

void Channel::send(FramePtr frame) {
  assert(!busy() && "channel is half-duplex per direction: one frame at a time");
  assert(sink_ != nullptr && "channel has no receiver attached");

  const sim::Time ser = sim::serialization_time(frame->wire_bytes(), gbps_);
  tx_free_at_ = sim_.now() + ser;
  ++stats_.frames_sent;
  stats_.bytes_sent += frame->wire_bytes();
  if (rail_health_) rail_health_->on_frame_sent(sim_.now(), frame->wire_bytes());

  if (on_tx_done_) sim_.at(tx_free_at_, [this] { on_tx_done_(); });

  // Evolve the Gilbert–Elliott state once per transmitted frame.
  if (faults_.burst.enabled) {
    const bool next_bad = burst_bad_ ? !rng_.chance(faults_.burst.p_bad_to_good)
                                     : rng_.chance(faults_.burst.p_good_to_bad);
    if (next_bad != burst_bad_) {
      burst_bad_ = next_bad;
      ++stats_.burst_transitions;
      if (rail_health_) rail_health_->on_burst_transition(sim_.now(), next_bad);
    }
  }

  const bool in_outage = faults_.in_outage(sim_.now());
  if (rail_health_) rail_health_->on_outage_change(sim_.now(), in_outage);
  if (in_outage || rng_.chance(faults_.drop_prob)) {
    ++stats_.frames_dropped;
    if (rail_health_) rail_health_->on_drop(sim_.now(), /*burst=*/false);
    if (tracer_) {
      tracer_->record(sim_.now(), trace::EventType::kWireDrop, trace_node_,
                      trace_rail_, -1, frame->payload.size());
    }
    return;
  }
  if (faults_.burst.enabled &&
      rng_.chance(burst_bad_ ? faults_.burst.drop_bad
                             : faults_.burst.drop_good)) {
    ++stats_.frames_dropped;
    ++stats_.frames_dropped_burst;
    if (rail_health_) rail_health_->on_drop(sim_.now(), /*burst=*/true);
    if (tracer_) {
      tracer_->record(sim_.now(), trace::EventType::kWireDrop, trace_node_,
                      trace_rail_, -1, frame->payload.size());
    }
    return;
  }
  if (rng_.chance(faults_.corrupt_prob)) {
    ++stats_.frames_corrupted;
    if (rail_health_) rail_health_->on_corrupt(sim_.now());
    if (tracer_) {
      tracer_->record(sim_.now(), trace::EventType::kWireCorrupt, trace_node_,
                      trace_rail_, -1, frame->payload.size());
    }
    auto damaged = frame_pool().clone(*frame);
    damaged->fcs_bad = true;
    frame = std::move(damaged);
  }
  if (rng_.chance(faults_.dup_prob)) {
    // Both copies hit the wire; each gets its own jitter draw, so the
    // duplicate can arrive before or after the original.
    ++stats_.frames_duplicated;
    schedule_delivery(frame);
  }
  schedule_delivery(std::move(frame));
}

}  // namespace multiedge::net
