// A Process is a fiber scheduled by the Simulator.
//
// Inside the fiber, a process can sleep for simulated time (delay), block
// until an external wake (suspend/wake), idle-poll a condition (poll), and
// compose with WaitQueue and Cpu for higher-level blocking. Outside code
// interacts with it only through start()/wake()/done().
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/fiber.hpp"
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
    using R = std::remove_reference_t<Ready>;
    void* obj = const_cast<void*>(static_cast<const void*>(&ready));
    return poll_steps(every, obj, [](void* r) -> bool {
      return (*static_cast<R*>(r))();
    });
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
  void run_slice();
  /// Throws std::logic_error unless this process's fiber is executing.
  void require_running(const char* what) const;
  std::uint64_t poll_steps(Time every, void* ready, bool (*eval)(void*));
  void arm_poll();
  void poll_step(std::uint64_t gen);

  Simulator& sim_;
  std::string name_;
  Fiber fiber_;
  State state_ = State::kCreated;
  std::uint64_t block_gen_ = 0;  // invalidates stale resume events

  // The active poll(): its predicate (type-erased, lives on the fiber's
  // stack), step interval and step count.
  void* poll_ready_ = nullptr;
  bool (*poll_eval_)(void*) = nullptr;
  Time poll_every_ = 0;
  std::uint64_t poll_count_ = 0;

  inline static Process* current_ = nullptr;
};

}  // namespace multiedge::sim
