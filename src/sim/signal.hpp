// Wake sources of signal waits (DESIGN §11 "Signal waits").
//
// A Process::wait() declares what its predicate reads: the Signals whose
// writers touch() them, and an optional deadline. While the predicate is
// false the waiter has no event at all; a touch schedules one check of the
// predicate at the touch instant.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>

#include "sim/time.hpp"

namespace multiedge::sim {

class Process;

class Signal {
 public:
  Signal() = default;
  /// A copy starts unwatched: watchers follow an object's address, not its
  /// value. (This keeps structs holding a Signal copyable and movable.)
  Signal(const Signal&) noexcept {}
  Signal& operator=(const Signal&) noexcept { return *this; }
  ~Signal();

  /// The state some waiter's predicate reads may have changed: schedule a
  /// check of every blocked watcher's predicate at this instant. Call it
  /// from the code that changes the state, every time; touching more often
  /// than needed only costs a check event.
  void touch() {
    if (watches_ != nullptr) touch_watchers();
  }

 private:
  friend class Process;

  /// One waiter's registration, linked into the signal while its wait()
  /// blocks. It lives in the waiting Process.
  struct Watch {
    Process* proc = nullptr;
    Signal* sig = nullptr;
    Watch* prev = nullptr;
    Watch* next = nullptr;
  };

  void touch_watchers();
  void link(Watch& w);
  static void unlink(Watch& w);

  Watch* watches_ = nullptr;
};

/// What a wait() waits for: the signals its predicate's state is touched
/// through (at most kMaxSignals), and a deadline (the wait resumes then,
/// whatever the predicate says).
class Wake {
 public:
  static constexpr std::size_t kMaxSignals = 10;

  Wake(std::initializer_list<Signal*> on, Time deadline = kTimeInfinity)
      : Wake(std::span<Signal* const>(on.begin(), on.size()), deadline) {}
  Wake(std::span<Signal* const> on, Time deadline = kTimeInfinity)
      : count_(on.size()), deadline_(deadline) {
    if (count_ > kMaxSignals) {
      throw std::length_error("sim::Wake: more than kMaxSignals signals");
    }
    std::copy(on.begin(), on.end(), on_.begin());
  }

  std::span<Signal* const> on() const { return {on_.data(), count_}; }
  Time deadline() const { return deadline_; }

 private:
  std::array<Signal*, kMaxSignals> on_{};
  std::size_t count_;
  Time deadline_;
};

}  // namespace multiedge::sim
