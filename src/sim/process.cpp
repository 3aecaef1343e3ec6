#include "sim/process.hpp"

#include <stdexcept>
#include <utility>

namespace multiedge::sim {

Process::Process(Simulator& sim, std::string name, Fiber::Body body,
                 std::size_t stack_bytes)
    : sim_(sim), name_(std::move(name)), fiber_(std::move(body), stack_bytes) {}

Process::~Process() {
  if (state_ == State::kWaiting) {
    unwatch();
    sim_.cancel(deadline_ev_);
    sim_.cancel(check_ev_);
    if (sim_.check_wakeups_) sim_.remove_waiter(this);
  }
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
  sim_.in(0, [this] { run_slice(); });
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
  // Otherwise the fiber blocked via delay() or wait(), which already
  // set state_ and scheduled any resume event before yielding.
}

void Process::delay(Time d) {
  require_running("delay()");
  state_ = State::kDelaying;
  sim_.in(d, [this] {
    state_ = State::kReady;
    run_slice();
  });
  Fiber::yield();
}

void Process::wait_erased(const Wake& wake, Erased ready) {
  require_running("wait()");
  wait_ready_ = ready;
  // A predicate that breaks the contract is left to a check event, which
  // reports it out of Simulator::step().
  bool broken = false;
  try {
    if (evaluate()) return;
  } catch (const std::exception&) {
    broken = true;
  }
  if (!broken && wake.deadline() <= sim_.now()) return;
  state_ = State::kWaiting;
  watch(wake.on());
  if (wake.deadline() != kTimeInfinity) {
    deadline_ev_ =
        sim_.at_cancellable(wake.deadline(), [this] { resume_wait(); });
  }
  if (sim_.check_wakeups_) sim_.add_waiter(this);
  if (broken) touch();
  Fiber::yield();
}

void Process::touch() {
  if (state_ != State::kWaiting || check_queued_) return;
  check_queued_ = true;
  check_ev_ = sim_.at_cancellable(sim_.now(), [this] { check(); });
}

void Process::check() {
  check_queued_ = false;
  if (evaluate()) resume_wait();
}

// Cancelling the event that is running now, or one that already ran, is a
// no-op: EventIds are generation-checked.
void Process::resume_wait() {
  unwatch();
  sim_.cancel(deadline_ev_);
  sim_.cancel(check_ev_);
  check_queued_ = false;
  if (sim_.check_wakeups_) sim_.remove_waiter(this);
  state_ = State::kReady;
  run_slice();
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

bool Process::evaluate() {
  Process* const prev = current_;
  current_ = nullptr;  // the predicate runs outside any fiber
  const std::uint64_t scheduled = sim_.next_seq_;
  bool ready = false;
  try {
    ready = wait_ready_();
  } catch (...) {
    current_ = prev;
    throw;
  }
  current_ = prev;
  if (sim_.next_seq_ != scheduled) {
    throw std::logic_error("sim: Process::wait() predicate scheduled an event");
  }
  return ready;
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
