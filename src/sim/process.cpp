#include "sim/process.hpp"

#include <stdexcept>
#include <utility>

namespace multiedge::sim {

Process::Process(Simulator& sim, std::string name, Fiber::Body body,
                 std::size_t stack_bytes)
    : sim_(sim), name_(std::move(name)), fiber_(std::move(body), stack_bytes) {}

Process& Process::running() {
  if (current_ == nullptr) {
    throw std::logic_error("sim: blocking call outside any process fiber");
  }
  return *current_;
}

void Process::require_running(const char* what) const {
  if (current_ != this) {
    throw std::logic_error(std::string("sim: Process::") + what +
                           " called outside the process fiber");
  }
}

void Process::start() {
  assert(state_ == State::kCreated);
  state_ = State::kReady;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(0, [this, gen] {
    if (gen != block_gen_ || state_ != State::kReady) return;
    run_slice();
  });
}

void Process::run_slice() {
  state_ = State::kRunning;
  Process* prev = current_;
  current_ = this;
  fiber_.resume();
  current_ = prev;
  if (fiber_.done()) {
    state_ = State::kFinished;
  }
  // Otherwise the fiber blocked via delay()/poll()/suspend(), which already
  // set state_ and scheduled any resume event before yielding.
}

void Process::delay(Time d) {
  require_running("delay()");
  state_ = State::kDelaying;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(d, [this, gen] {
    if (gen != block_gen_ || state_ != State::kDelaying) return;
    state_ = State::kReady;
    run_slice();
  });
  Fiber::yield();
}

std::uint64_t Process::poll_steps(Time every, void* ready,
                                  bool (*eval)(void*)) {
  require_running("poll()");
  state_ = State::kPolling;
  poll_ready_ = ready;
  poll_eval_ = eval;
  poll_every_ = every;
  poll_count_ = 0;
  arm_poll();
  Fiber::yield();
  poll_ready_ = nullptr;
  poll_eval_ = nullptr;
  return poll_count_;
}

// One step is scheduled exactly where the reference loop's delay() would
// schedule its resume event: right after ready() was evaluated, with nothing
// scheduled in between (ready() is read-only). So every step lands at the
// same (time, seq) as the reference loop's.
void Process::arm_poll() {
  const std::uint64_t gen = ++block_gen_;
  sim_.in(poll_every_, [this, gen] { poll_step(gen); });
}

void Process::poll_step(std::uint64_t gen) {
  if (gen != block_gen_ || state_ != State::kPolling) return;
  ++poll_count_;
  const std::uint64_t scheduled = sim_.events_scheduled();
  bool ready = false;
  try {
    ready = poll_eval_(poll_ready_);
  } catch (...) {
    arm_poll();
    throw;
  }
  if (sim_.events_scheduled() != scheduled) {
    arm_poll();
    throw std::logic_error("sim: Process::poll() predicate scheduled an event");
  }
  if (!ready) {
    arm_poll();
    return;
  }
  state_ = State::kReady;
  run_slice();
}

void Process::suspend() {
  require_running("suspend()");
  state_ = State::kSuspended;
  ++block_gen_;
  Fiber::yield();
}

void Process::wake() {
  if (state_ != State::kSuspended) return;
  state_ = State::kReady;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(0, [this, gen] {
    if (gen != block_gen_ || state_ != State::kReady) return;
    run_slice();
  });
}

}  // namespace multiedge::sim
