// A Process is a fiber scheduled by the Simulator.
//
// Inside the fiber, a process blocks in exactly two ways: it sleeps for
// simulated time (delay), or it waits for a condition its signals announce
// (wait, DESIGN §11 "Signal waits"). Every higher-level blocking call (op
// completion, locks, barriers, notification and connection waits,
// Cpu::consume) is one of these two. Outside code interacts with a process
// only through start(), done() and the signals its waits watch.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "sim/fiber.hpp"
#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace multiedge::sim {

class Process {
 public:
  enum class State {
    kCreated, kReady, kRunning, kDelaying, kWaiting, kFinished
  };

  Process(Simulator& sim, std::string name, Fiber::Body body,
          std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  /// Schedule the first run at the current simulated time.
  void start();

  /// --- Calls valid only from inside this process's fiber. ---

  /// Sleep for `d` of simulated time; nothing cuts it short.
  void delay(Time d);

  /// Signal wait (DESIGN §11 "Signal waits"): returns at once if ready()
  /// holds. Otherwise it watches `wake.on()` and blocks until a touch of one
  /// of them finds ready() true, or until `wake.deadline()`. A touch
  /// schedules one check event at its instant (touches at one instant
  /// coalesce); the check evaluates ready() and resumes the fiber only if it
  /// holds, so the process resumes at the touch instant with no modelled
  /// wake cost. At the deadline it resumes whatever ready() says; callers
  /// re-test their condition.
  ///
  /// Contract: ready() runs with current() == nullptr and must only read;
  /// one that schedules an event or tries to block makes its check throw
  /// std::logic_error out of Simulator::step(), and the wait stays blocked.
  /// Every write that can turn ready() true touches one of the signals;
  /// Simulator::set_check_wakeups checks it.
  template <typename Ready>
  void wait(const Wake& wake, Ready&& ready) {
    wait_erased(wake, erase(ready));
  }

  bool done() const { return state_ == State::kFinished; }
  State state() const { return state_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// The process whose fiber is currently executing, or nullptr.
  static Process* current() { return current_; }

  /// The process whose fiber is currently executing. Blocking primitives use
  /// it; throws std::logic_error outside any fiber (e.g. in a wait()
  /// predicate).
  static Process& running();

  /// Fiber-local causal-trace slot: the span this fiber is currently inside
  /// (0 = none). Owned by trace::SpanScope and read by the protocol layer
  /// when an operation is submitted; kept here (rather than on the engine)
  /// because a fiber can yield mid-operation and another fiber must not
  /// inherit its context. The sim layer never interprets these values.
  struct SpanSlot {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
  };
  SpanSlot span_slot;

 private:
  friend class Simulator;  // the wakeup oracle evaluates blocked waits
  friend class Signal;     // touches its waiting watchers

  /// A type-erased `bool()` callable living on the fiber's stack.
  struct Erased {
    void* obj = nullptr;
    bool (*eval)(void*) = nullptr;
    bool operator()() const { return eval(obj); }
  };
  template <typename F>
  static Erased erase(F& f) {
    using R = std::remove_reference_t<F>;
    return {const_cast<void*>(static_cast<const void*>(&f)),
            [](void* r) -> bool { return (*static_cast<R*>(r))(); }};
  }

  void run_slice();
  /// Throws std::logic_error unless this process's fiber is executing.
  void require_running(const char* what) const;
  void wait_erased(const Wake& wake, Erased ready);
  /// Evaluate the wait's predicate outside any fiber, throwing
  /// std::logic_error if it scheduled an event.
  bool evaluate();
  /// One of the signals this process's wait() watches was touched.
  void touch();
  /// The check event a touch scheduled.
  void check();
  /// Leave a blocked wait(): resume the fiber now.
  void resume_wait();
  void watch(std::span<Signal* const> on);
  void unwatch();

  Simulator& sim_;
  std::string name_;
  Fiber fiber_;
  State state_ = State::kCreated;

  // The blocked wait(): its predicate (type-erased, lives on the fiber's
  // stack), watches, deadline event and pending check.
  Erased wait_ready_;
  Signal::Watch watches_[Wake::kMaxSignals];
  std::size_t nwatches_ = 0;
  Simulator::EventId deadline_ev_;
  Simulator::EventId check_ev_;
  bool check_queued_ = false;
  std::size_t waiter_pos_ = 0;  // index in the oracle's waiter list

  inline static Process* current_ = nullptr;
};

}  // namespace multiedge::sim
