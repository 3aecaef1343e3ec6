#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/process.hpp"

namespace multiedge::sim {

namespace {
// Steady-state queue depth for a mid-size cluster; reserving it up front
// means the first run never pays vector regrowth on the event hot path.
constexpr std::size_t kInitialCapacity = 1024;
}  // namespace

Simulator::Simulator() {
  heap_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

std::uint32_t Simulator::schedule(Time t, Callback cb) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].cb = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_[slot].cb = std::move(cb);
  }
  const std::size_t pos = heap_.size();
  heap_.emplace_back();
  sift_up(pos, HeapEntry{t, next_seq_++, slot});
  return slot;
}

void Simulator::place(std::size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos, const HeapEntry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos, const HeapEntry& e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Simulator::remove_heap_entry(std::size_t pos) {
  assert(pos < heap_.size());
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  // Re-seat the tail entry at `pos`; it may need to move either way.
  if (pos > 0 && before(tail, heap_[(pos - 1) / 2])) {
    sift_up(pos, tail);
  } else {
    sift_down(pos, tail);
  }
}

bool Simulator::cancel(EventId id) {
  if (id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || s.heap_pos == kNpos) return false;
  remove_heap_entry(s.heap_pos);
  s.cb.reset();
  ++s.gen;
  s.heap_pos = kNpos;
  free_slots_.push_back(id.slot);
  return true;
}

bool Simulator::reschedule(EventId id, Time t) {
  if (id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || s.heap_pos == kNpos) return false;
  if (t < now_) t = now_;
  remove_heap_entry(s.heap_pos);
  const std::size_t pos = heap_.size();
  heap_.emplace_back();
  // A fresh seq: the rescheduled event ties with same-time events exactly
  // as if it had just been scheduled (determinism depends on this).
  sift_up(pos, HeapEntry{t, next_seq_++, id.slot});
  return true;
}

std::size_t Simulator::pending() const { return heap_.size() + dormant_; }

std::uint64_t Simulator::events_executed() const {
  return executed_ + phantom_executed_ + parked_phantoms();
}

std::uint64_t Simulator::events_scheduled() const {
  return next_seq_ + phantom_scheduled_ + parked_phantoms();
}

void Simulator::set_check_wakeups(bool on) {
  assert(dormant_ == 0);
  check_wakeups_ = on;
}

bool Simulator::step() {
  if (dormant_ != 0) return step_dormant();
  return run_next();
}

bool Simulator::run_next() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  remove_heap_entry(0);
  Slot& s = slots_[top.slot];
  Callback cb = std::move(s.cb);
  s.cb.reset();
  ++s.gen;
  s.heap_pos = kNpos;
  free_slots_.push_back(top.slot);
  now_ = top.t;
  ++executed_;
  cb();  // may schedule (and thus reallocate slots_) — `s` is dead here
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(Time t) {
  stopped_ = false;
  while (!stopped_) {
    if (dormant_ != 0) {
      Time next;
      if (!next_instant(&next) || next > t) break;
      step_dormant();
      continue;
    }
    if (heap_.empty() || heap_[0].t > t) break;
    run_next();
  }
  if (now_ < t) now_ = t;
  if (dormant_ != 0 && !stopped_) close(t);
}

// ---------------------------------------------------------------------------
// Parked pollers (DESIGN §11 "Parked pollers")
//
// A parked poller's steps at its grid instants anchor_t_ + k·every are
// phantoms: each would evaluate a false predicate and schedule the next.
// They stay phantoms until one must run or be placed exactly:
//   - a touch: the step at its next grid instant after now() runs;
//   - its deadline: the step at its deadline grid instant runs;
//   - a collision: some event runs at one of its grid instants. The
//     phantom there is placed among that instant's events and, when its
//     turn comes, takes the seq its successor would have taken (no
//     callback runs unless a touch came in between).
// A placed step at grid instant g keeps the anchor's seq if g is the
// anchor; otherwise its predecessor at g − every ran in an instant where
// nothing real ran, so it sits just before R(g − every), the first seq
// taken after that instant. Ties between such steps fall back to the
// order of their predecessors: earlier instant first, then anchor seq.
// ---------------------------------------------------------------------------

// A poll() call's grid never changes, so its poller joins its phase bucket
// at its first park and leaves it when the call returns.
void Simulator::index(Process* p) {
  ParkClass* cls = nullptr;
  for (ParkClass& c : park_classes_) {
    if (c.every == p->poll_every_) {
      cls = &c;
      break;
    }
  }
  if (cls == nullptr) {
    cls = &park_classes_.emplace_back();
    cls->every = p->poll_every_;
    max_every_ = std::max(max_every_, p->poll_every_);
  }
  const Time phase = p->anchor_t_ % cls->every;
  std::vector<Process*>& bucket = cls->by_phase[phase];
  p->park_pos_ = bucket.size();
  bucket.push_back(p);
  ++cls->filter[phase & (ParkClass::kFilter - 1)];
  p->indexed_ = true;
}

void Simulator::unindex(Process* p) {
  if (!p->indexed_) return;
  p->indexed_ = false;
  for (ParkClass& c : park_classes_) {
    if (c.every != p->poll_every_) continue;
    const Time phase = p->anchor_t_ % c.every;
    --c.filter[phase & (ParkClass::kFilter - 1)];
    const auto it = c.by_phase.find(phase);
    std::vector<Process*>& bucket = it->second;
    Process* last = bucket.back();
    bucket[p->park_pos_] = last;
    last->park_pos_ = p->park_pos_;
    bucket.pop_back();
    if (bucket.empty()) c.by_phase.erase(it);
    return;
  }
}

void Simulator::park(Process* p) {
  using Park = Process::Park;
  if (p->park_ == Park::kNone && dormant_++ == 0) {
    // Nothing else is parked: this instant needs no collision check, and
    // no seq mark before it can be asked for.
    checked_ = now_;
    open_from_ = now_;
    marks_.clear();
    mark_head_ = 0;
  }
  p->park_ = Park::kParked;
  p->touched_ = false;
  if (!p->indexed_) index(p);
  if (p->deadline_step_ != kTimeInfinity &&
      p->deadline_queued_ != p->poll_id_) {
    deadlines_.push_back(DeadlineEntry{p->deadline_step_, p, p->poll_id_});
    std::push_heap(deadlines_.begin(), deadlines_.end(), deadline_after);
    p->deadline_queued_ = p->poll_id_;
  }
}

void Simulator::wake_at(Process* p, Time g) {
  const Time every = p->poll_every_;
  const auto skipped = static_cast<std::uint64_t>((g - p->anchor_t_) / every);
  phantom_executed_ += skipped;
  phantom_scheduled_ += skipped;
  p->poll_count_ += skipped;
  WakeEntry w{g, 2 * p->anchor_seq_, 0, p->anchor_seq_, p};
  if (skipped > 0) {
    w.seq2 = 2 * seq_after(g - every) - 1;
    w.from = g - every;
  }
  woken_.push_back(w);
  std::push_heap(woken_.begin(), woken_.end(), woken_after);
  p->park_ = Process::Park::kWoken;
}

void Simulator::touched(Process* p) {
  if (p->park_ == Process::Park::kParked) {
    // now() is never a grid instant of a parked poller still to come: an
    // event at it would have collided.
    const Time a = p->anchor_t_;
    const Time every = p->poll_every_;
    wake_at(p, now_ < a ? a : a + ((now_ - a) / every + 1) * every);
  }
  p->touched_ = true;
}

void Simulator::forget(Process* p) {
  using Park = Process::Park;
  unindex(p);
  if (p->park_ == Park::kWoken) {
    std::erase_if(woken_, [p](const WakeEntry& w) { return w.proc == p; });
    std::make_heap(woken_.begin(), woken_.end(), woken_after);
  }
  if (p->deadline_queued_ != 0) {
    std::erase_if(deadlines_,
                  [p](const DeadlineEntry& d) { return d.proc == p; });
    std::make_heap(deadlines_.begin(), deadlines_.end(), deadline_after);
  }
  if (p->park_ != Park::kNone) --dormant_;
  p->park_ = Park::kNone;
}

std::uint64_t Simulator::parked_phantoms() const {
  if (dormant_ == 0) return 0;
  std::uint64_t n = 0;
  for (const ParkClass& c : park_classes_) {
    for (const auto& [phase, bucket] : c.by_phase) {
      for (const Process* p : bucket) {
        if (p->park_ == Process::Park::kParked && now_ >= p->anchor_t_) {
          n += static_cast<std::uint64_t>((now_ - p->anchor_t_) / c.every) + 1;
        }
      }
    }
  }
  return n;
}

std::uint64_t Simulator::seq_after(Time x) const {
  const auto first = marks_.begin() + static_cast<std::ptrdiff_t>(mark_head_);
  const auto it = std::upper_bound(
      first, marks_.end(), x,
      [](Time v, const SeqMark& m) { return v < m.from; });
  assert(it != first && x < open_from_);
  return it == first ? next_seq_ : std::prev(it)->seq;
}

bool Simulator::next_instant(Time* t) {
  // Drop deadline entries whose poll() returned or whose poller is
  // stepping eagerly (it re-queues one when it parks again).
  while (!deadlines_.empty()) {
    const DeadlineEntry& d = deadlines_.front();
    const bool current = d.proc->poll_id_ == d.poll_id;
    if (current && d.proc->park_ != Process::Park::kNone) break;
    if (current) d.proc->deadline_queued_ = 0;
    std::pop_heap(deadlines_.begin(), deadlines_.end(), deadline_after);
    deadlines_.pop_back();
  }
  bool any = false;
  const auto consider = [&](Time c) {
    if (!any || c < *t) *t = c;
    any = true;
  };
  if (!heap_.empty()) consider(heap_[0].t);
  if (!woken_.empty()) consider(woken_[0].t);
  if (!deadlines_.empty()) consider(deadlines_[0].t);
  return any;
}

void Simulator::enter(Time t) {
  if (open_from_ < t) marks_.push_back(SeqMark{open_from_, next_seq_});
  open_from_ = t;
  checked_ = t;
  // Keep the marks of the last max_every_, plus the one covering its start.
  while (marks_.size() - mark_head_ >= 2 &&
         marks_[mark_head_ + 1].from <= t - max_every_) {
    ++mark_head_;
  }
  if (mark_head_ >= 64 && 2 * mark_head_ >= marks_.size()) {
    marks_.erase(marks_.begin(),
                 marks_.begin() + static_cast<std::ptrdiff_t>(mark_head_));
    mark_head_ = 0;
  }
  using Park = Process::Park;
  while (!deadlines_.empty() && deadlines_.front().t <= t) {
    const DeadlineEntry d = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(), deadline_after);
    deadlines_.pop_back();
    Process* p = d.proc;
    if (p->poll_id_ != d.poll_id) continue;
    p->deadline_queued_ = 0;
    if (p->park_ == Park::kParked) wake_at(p, d.t);
    if (p->park_ == Park::kWoken) p->touched_ = true;  // must evaluate
  }
  for (ParkClass& c : park_classes_) {
    const Time phase = t % c.every;
    if (c.filter[phase & (ParkClass::kFilter - 1)] == 0) continue;
    const auto it = c.by_phase.find(phase);
    if (it == c.by_phase.end()) continue;
    for (Process* p : it->second) {
      if (p->park_ == Park::kParked && p->anchor_t_ <= t) wake_at(p, t);
    }
  }
}

void Simulator::close(Time t) {
  if (t < checked_) return;
  if (open_from_ <= t) marks_.push_back(SeqMark{open_from_, next_seq_});
  open_from_ = t + 1;
  checked_ = t;
}

bool Simulator::step_dormant() {
  Time t;
  while (next_instant(&t)) {
    if (t > checked_) {
      enter(t);
      continue;
    }
    if (!woken_.empty() &&
        (heap_.empty() || wake_before_event(woken_[0], heap_[0]))) {
      run_woken();
      return true;
    }
    return run_next();
  }
  return false;
}

void Simulator::run_woken() {
  std::pop_heap(woken_.begin(), woken_.end(), woken_after);
  const WakeEntry w = woken_.back();
  woken_.pop_back();
  now_ = w.t;
  Process* p = w.proc;
  if (!p->touched_) {
    // Untouched, the predicate is still false: the step is a phantom, and
    // its successor takes the seq it would have taken here.
    ++phantom_executed_;
    ++p->poll_count_;
    p->anchor_t_ = now_ + p->poll_every_;
    p->anchor_seq_ = next_seq_++;
    p->park_ = Process::Park::kParked;
    return;
  }
  ++executed_;
  // Still counted dormant while the step runs, so a re-park does not look
  // like a first one.
  p->park_ = Process::Park::kNone;
  struct Leave {
    std::size_t& dormant;
    ~Leave() { --dormant; }
  } leave{dormant_};
  p->poll_step(p->block_gen_);
}

}  // namespace multiedge::sim
