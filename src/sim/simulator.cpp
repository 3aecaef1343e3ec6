#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "sim/process.hpp"

namespace multiedge::sim {

namespace {
// Steady-state queue depth for a mid-size cluster; reserving it up front
// means the first run never pays vector regrowth on the event hot path.
constexpr std::size_t kInitialCapacity = 1024;
// First ring size of a poll lane (a power of two); it doubles when full.
constexpr std::size_t kInitialLaneCapacity = 64;
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

std::size_t Simulator::pending() const {
  std::size_t n = heap_.size();
  for (const PollLane& lane : lanes_) n += lane.size;
  return n;
}

void Simulator::PollLane::push(const PollEntry& e) {
  if (size == ring.size()) {
    std::vector<PollEntry> grown(ring.empty() ? kInitialLaneCapacity
                                              : 2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = e;
  ++size;
}

Simulator::PollEntry Simulator::PollLane::pop() {
  assert(size > 0);
  const PollEntry e = ring[head];
  head = (head + 1) & (ring.size() - 1);
  --size;
  return e;
}

void Simulator::schedule_poll(Time every, Process* proc, std::uint64_t gen) {
  if (every < 0) every = 0;  // in() would clamp the step to now()
  PollLane* lane = nullptr;
  for (PollLane& l : lanes_) {
    if (l.every == every) {
      lane = &l;
      break;
    }
  }
  if (lane == nullptr) {
    lane = &lanes_.emplace_back();
    lane->every = every;
  }
  // now_ never decreases and seqs only grow, so this entry sorts after
  // every entry already in the lane: the lane stays a sorted FIFO.
  lane->push(PollEntry{now_ + every, next_seq_++, proc, gen});
}

Simulator::PollLane* Simulator::next_lane() {
  PollLane* best = nullptr;
  for (PollLane& l : lanes_) {
    if (l.size > 0 && (best == nullptr || before(l.front(), best->front()))) {
      best = &l;
    }
  }
  if (best != nullptr && !heap_.empty() && before(heap_[0], best->front())) {
    return nullptr;
  }
  return best;
}

bool Simulator::step() { return run_next(next_lane()); }

bool Simulator::run_next(PollLane* lane) {
  if (lane != nullptr) {
    const PollEntry e = lane->pop();
    now_ = e.t;
    ++executed_;
    e.proc->poll_step(e.gen);  // may push to this lane (and regrow lanes_)
    return true;
  }
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
    PollLane* lane = next_lane();
    if (lane != nullptr ? lane->front().t > t
                        : heap_.empty() || heap_[0].t > t) {
      break;
    }
    run_next(lane);
  }
  if (now_ < t) now_ = t;
}

}  // namespace multiedge::sim
