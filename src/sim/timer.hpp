// Cancellable, re-armable one-shot timer on top of the Simulator.
//
// A timer owns at most ONE queued event. Re-arming reschedules that event in
// place (the simulator supports true removal), and cancel() removes it — no
// generation-tombstone events ever sit in the queue burning pop cycles.
// Rescheduling consumes a fresh FIFO sequence number, so same-time ordering
// is exactly as if the firing had been newly scheduled.
#pragma once

#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace multiedge::sim {

class Timer {
 public:
  using Callback = SmallFn;

  Timer(Simulator& sim, Callback cb) : sim_(sim), cb_(std::move(cb)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  // The queued event captures `this`; cancel() removes it, so destruction
  // with a firing still pending is safe.
  ~Timer() { cancel(); }

  /// Arm (or re-arm) the timer to fire after `d`. Cancels any pending firing.
  void schedule(Time d) {
    deadline_ = sim_.now() + d;
    if (pending_) {
      sim_.reschedule(event_, deadline_);
    } else {
      pending_ = true;
      event_ = sim_.at_cancellable(deadline_, [this] {
        pending_ = false;
        cb_();
      });
    }
  }

  /// Arm only if not already pending (used for "start timeout if idle").
  void schedule_if_idle(Time d) {
    if (!pending_) schedule(d);
  }

  /// Cancel a pending firing, if any.
  void cancel() {
    if (pending_) {
      sim_.cancel(event_);
      pending_ = false;
    }
  }

  bool pending() const { return pending_; }

  /// Absolute time of the pending firing (meaningful only if pending()).
  Time deadline() const { return deadline_; }

 private:
  Simulator& sim_;
  Callback cb_;
  Simulator::EventId event_;
  bool pending_ = false;
  Time deadline_ = 0;
};

}  // namespace multiedge::sim
