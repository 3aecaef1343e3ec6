#include "sim/process.hpp"

#include <stdexcept>
#include <utility>

namespace multiedge::sim {

Process::Process(Simulator& sim, std::string name, Fiber::Body body,
                 std::size_t stack_bytes)
    : sim_(sim), name_(std::move(name)), fiber_(std::move(body), stack_bytes) {}

Process::~Process() {
  unwatch();
  sim_.forget(this);
}

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

std::uint64_t Process::poll_steps(Time every, Erased ready, const Wake* wake,
                                  const Erased* may_park) {
  require_running("poll()");
  state_ = State::kPolling;
  poll_ready_ = ready;
  poll_every_ = every;
  poll_count_ = 0;
  wake_ = wake;
  may_park_ = may_park;
  deadline_ = kTimeInfinity;
  bool park = false;
  if (wake != nullptr) {
    ++poll_id_;
    deadline_ = wake->deadline();
    watch(wake->on());
    // The steps fall on now() + k·every, k >= 1.
    const Time first = sim_.now() + every;
    if (deadline_ == kTimeInfinity) {
      deadline_step_ = kTimeInfinity;
    } else if (deadline_ <= first || every <= 0) {
      deadline_step_ = first;
    } else {
      deadline_step_ = first + (deadline_ - first + every - 1) / every * every;
    }
    if (this->may_park()) {
      // A predicate that breaks the contract is left to the first step,
      // which reports it out of Simulator::step().
      try {
        park = !evaluate();
      } catch (const std::exception&) {
        park = false;
      }
    }
  }
  if (sim_.check_wakeups_) {
    would_park_ = park;
    touched_ = false;
    park = false;
  }
  if (park) {
    park_now();
  } else {
    arm_poll();
  }
  Fiber::yield();
  unwatch();
  sim_.unindex(this);
  wake_ = nullptr;
  may_park_ = nullptr;
  return poll_count_;
}

void Process::watch(std::span<Signal* const> on) {
  for (std::size_t i = 0; i < on.size(); ++i) {
    watches_[i] = Signal::Watch{this};
    if (on[i] != nullptr) on[i]->link(watches_[i]);  // null: nothing to watch
  }
  nwatches_ = on.size();
}

void Process::unwatch() {
  for (std::size_t i = 0; i < nwatches_; ++i) Signal::unlink(watches_[i]);
  nwatches_ = 0;
}

bool Process::may_park() const {
  return wake_ != nullptr && poll_every_ > 0 &&
         (may_park_ == nullptr || (*may_park_)());
}

// One step is scheduled exactly where the reference loop's delay() would
// schedule its resume event: right after ready() was evaluated, with nothing
// scheduled in between (ready() is read-only). So every step lands at the
// same (time, seq) as the reference loop's.
void Process::arm_poll() {
  const std::uint64_t gen = ++block_gen_;
  sim_.in(poll_every_, [this, gen] { poll_step(gen); });
}

// Parking takes the seq the step's event would have taken; the step itself
// stays a phantom until the simulator wakes it.
void Process::park_now() {
  anchor_t_ = sim_.now() + poll_every_;
  anchor_seq_ = sim_.next_seq_++;
  ++block_gen_;
  sim_.park(this);
}

bool Process::evaluate() {
  Process* const prev = current_;
  current_ = nullptr;  // the predicate runs outside any fiber
  const std::uint64_t scheduled = sim_.next_seq_;
  bool ready = false;
  try {
    ready = poll_ready_();
  } catch (...) {
    current_ = prev;
    throw;
  }
  current_ = prev;
  if (sim_.next_seq_ != scheduled) {
    throw std::logic_error("sim: Process::poll() predicate scheduled an event");
  }
  return ready;
}

void Process::rearm() {
  const bool park = may_park();
  if (sim_.check_wakeups_) {
    would_park_ = park;
    touched_ = false;
    arm_poll();
  } else if (park) {
    park_now();
  } else {
    arm_poll();
  }
}

void Process::poll_step(std::uint64_t gen) {
  if (gen != block_gen_ || state_ != State::kPolling) return;
  ++poll_count_;
  bool ready = false;
  try {
    ready = evaluate();
  } catch (...) {
    arm_poll();
    throw;
  }
  if (ready && sim_.check_wakeups_ && would_park_ && !touched_) {
    arm_poll();
    throw std::logic_error("sim: the poll() predicate of '" + name_ +
                           "' holds, but no signal it watches was touched");
  }
  if (!ready && sim_.now() < deadline_) {
    rearm();
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

// ---------------------------------------------------------------------------
// Signal
// ---------------------------------------------------------------------------

Signal::~Signal() {
  for (Watch* w = watches_; w != nullptr;) {
    Watch* next = w->next;
    w->sig = nullptr;
    w->prev = w->next = nullptr;
    w = next;
  }
}

void Signal::link(Watch& w) {
  w.sig = this;
  w.prev = nullptr;
  w.next = watches_;
  if (watches_ != nullptr) watches_->prev = &w;
  watches_ = &w;
}

void Signal::unlink(Watch& w) {
  if (w.sig == nullptr) return;
  if (w.prev != nullptr) {
    w.prev->next = w.next;
  } else {
    w.sig->watches_ = w.next;
  }
  if (w.next != nullptr) w.next->prev = w.prev;
  w.sig = nullptr;
  w.prev = w.next = nullptr;
}

void Signal::touch_watchers() {
  for (Watch* w = watches_; w != nullptr; w = w->next) {
    w->proc->touch();
  }
}

}  // namespace multiedge::sim
