#include "sim/cpu.hpp"

#include <utility>

namespace multiedge::sim {

Time Cpu::occupy(Time cost) {
  const Time start = std::max(free_at_, sim_.now());
  free_at_ = start + cost;
  busy_ += cost;
  return free_at_;
}

void Cpu::submit(Time cost, Simulator::Callback done) {
  const Time end = occupy(cost);
  sim_.at(end, std::move(done));
}

void Cpu::charge(Time cost) { occupy(cost); }

void Cpu::consume(Time cost) {
  Process* self = &Process::running();
  // Wait until the core frees up, then occupy it. Re-check after each sleep:
  // other work may have queued ahead of us while we slept.
  while (free_at_ > sim_.now()) {
    self->delay(free_at_ - sim_.now());
  }
  occupy(cost);
  self->delay(cost);
}

void Cpu::reset_window() {
  window_start_ = sim_.now();
  window_busy0_ = busy_;
  // Work already queued past `now` still counts toward the new window —
  // that in-flight backlog genuinely occupies the core during the window.
}

double Cpu::utilization() const {
  const Time elapsed = sim_.now() - window_start_;
  if (elapsed <= 0) return 0.0;
  const Time busy_in_window = busy_ - window_busy0_;
  return std::min(1.0, static_cast<double>(busy_in_window) / elapsed);
}

}  // namespace multiedge::sim
