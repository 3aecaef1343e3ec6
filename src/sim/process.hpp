// A Process is a fiber scheduled by the Simulator.
//
// Inside the fiber, a process can sleep for simulated time (delay), block
// until an external wake (suspend/wake), idle-poll a condition (poll), and
// compose with WaitQueue and Cpu for higher-level blocking. Outside code
// interacts with it only through start()/wake()/done().
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
    kCreated, kReady, kRunning, kDelaying, kPolling, kSuspended, kFinished
  };

  Process(Simulator& sim, std::string name, Fiber::Body body,
          std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  /// Schedule the first run at the current simulated time.
  void start();

  /// --- Calls valid only from inside this process's fiber. ---

  /// Sleep for `d` of simulated time. Not interruptible by wake().
  void delay(Time d);

  /// Block until some other code calls wake().
  void suspend();

  /// Idle poll: behaves exactly like `do delay(every); while (!ready());` —
  /// the same resume instant, the same (time, seq) event order and the same
  /// events_executed() — but ready() runs inside each step's scheduler
  /// callback and the fiber is resumed only once it holds, so an idle step
  /// costs one event and no context switch. Always takes at least one step,
  /// even when ready() already holds. Returns the number of steps taken.
  ///
  /// Contract: ready() runs with current() == nullptr and must only read.
  /// A ready() that schedules an event or tries to block makes the step
  /// throw std::logic_error out of Simulator::step(); the poll stays armed.
  template <typename Ready>
  std::uint64_t poll(Time every, Ready&& ready) {
    return poll_steps(every, erase(ready), nullptr, nullptr);
  }

  /// Parking idle poll: the same steps, counts and (time, seq) order as
  /// poll(every, ready) with `ready() || now() >= wake.deadline()`, but
  /// while ready() is false the poller parks and its steps are phantoms
  /// (counted in events_executed(), never run). It is woken at its next
  /// grid instant when one of `wake.on()` is touched, when any event runs
  /// on one of its grid instants, or at the deadline. ready() is evaluated
  /// once more on entry, to decide whether to park.
  ///
  /// Contract on top of poll()'s: every write that can turn ready() true
  /// touches one of the signals. Simulator::set_check_wakeups checks it.
  template <typename Ready>
  std::uint64_t poll(Time every, Ready&& ready, const Wake& wake) {
    return poll_steps(every, erase(ready), &wake, nullptr);
  }

  /// As above, but parks only while may_park() holds (checked where it
  /// would park). For a predicate whose evaluation must recur every step
  /// in some states: the broker's folds EWMA state on a lossy rail.
  template <typename Ready, typename MayPark>
  std::uint64_t poll(Time every, Ready&& ready, const Wake& wake,
                     MayPark&& may_park) {
    const Erased mp = erase(may_park);
    return poll_steps(every, erase(ready), &wake, &mp);
  }

  /// --- Calls valid only from outside the fiber. ---

  /// Unblock a suspended process; it resumes at the current simulated time.
  /// Waking a process that is not suspended is a no-op (wakeups never queue;
  /// callers must re-check their condition after suspend() returns).
  void wake();

  bool done() const { return state_ == State::kFinished; }
  State state() const { return state_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// The process whose fiber is currently executing, or nullptr.
  static Process* current() { return current_; }

  /// The process whose fiber is currently executing. Blocking primitives use
  /// it; throws std::logic_error outside any fiber (e.g. in a poll()
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
  friend class Simulator;  // parks, wakes and runs its poll steps
  friend class Signal;     // touches its parked watchers

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
  std::uint64_t poll_steps(Time every, Erased ready, const Wake* wake,
                           const Erased* may_park);
  void arm_poll();
  void poll_step(std::uint64_t gen);
  /// Evaluate the predicate as a step does: outside any fiber, throwing
  /// std::logic_error if it scheduled an event.
  bool evaluate();
  /// After a failed step: park when allowed, else arm the next step.
  void rearm();
  bool may_park() const;
  void watch(std::span<Signal* const> on);
  void unwatch();
  void park_now();
  /// One of the signals this process's poll() watches was touched.
  void touch() { sim_.touched(this); }

  // --- parking state of a poll() with a Wake (DESIGN §11) ---
  enum class Park : std::uint8_t {
    kNone,    // not parked: running, or its next step is a heap event
    kParked,  // next step at anchor_t_ is a phantom
    kWoken,   // its step is on the simulator's wake heap
  };

  Simulator& sim_;
  std::string name_;
  Fiber fiber_;
  State state_ = State::kCreated;
  std::uint64_t block_gen_ = 0;  // invalidates stale resume events

  // The active poll(): its predicate (type-erased, lives on the fiber's
  // stack), step interval and step count.
  Erased poll_ready_;
  Time poll_every_ = 0;
  std::uint64_t poll_count_ = 0;

  // The active poll()'s wake sources (null: it never parks).
  const Wake* wake_ = nullptr;
  const Erased* may_park_ = nullptr;
  Time deadline_ = kTimeInfinity;
  Signal::Watch watches_[Wake::kMaxSignals];
  std::size_t nwatches_ = 0;
  Park park_ = Park::kNone;
  bool touched_ = false;       // a watched signal was touched since parking
  bool would_park_ = false;    // check_wakeups: the last step would park
  Time anchor_t_ = 0;          // parked: its next (phantom) step
  std::uint64_t anchor_seq_ = 0;
  Time deadline_step_ = kTimeInfinity;  // first grid instant >= deadline
  std::uint64_t poll_id_ = 0;           // one per poll() call
  std::uint64_t deadline_queued_ = 0;   // poll_id_ with a deadline entry
  bool indexed_ = false;      // in its simulator phase bucket
  std::size_t park_pos_ = 0;  // index in that bucket

  inline static Process* current_ = nullptr;
};

}  // namespace multiedge::sim
