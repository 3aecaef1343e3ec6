// Wake sources for parked idle polls (DESIGN §11 "Parked pollers").
//
// A poll() that passes a Wake declares what its predicate reads: the
// Signals whose writers touch() them, and an optional deadline. While the
// predicate is false the poller parks instead of stepping every period; a
// touch re-arms it at its next grid instant, where the step runs exactly
// where the eager loop's would have.
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

  /// The state some watching poller's predicate reads may have changed:
  /// re-arm every parked watcher at its next grid instant. Call it from the
  /// code that changes the state, every time; touching more often than
  /// needed only costs a step.
  void touch() {
    if (watches_ != nullptr) touch_watchers();
  }

 private:
  friend class Process;

  /// One poller's registration, linked into the signal while its poll()
  /// runs. It lives in that poll() call's frame on the poller's stack.
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

/// What a parking poll() waits for: the signals its predicate's state is
/// touched through (at most kMaxSignals), and a deadline (the poll resumes
/// at its first step at or after it, whatever the predicate says).
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
