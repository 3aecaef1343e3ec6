// Discrete-event simulation core.
//
// A Simulator owns a time-ordered event queue. Events scheduled for the same
// instant execute in FIFO order of scheduling (a strict total order on
// (time, schedule-sequence), which makes every run bit-for-bit
// deterministic). All higher layers — NICs, switches, protocol engines,
// application fibers — drive themselves by scheduling callbacks here.
//
// The queue is a hand-rolled binary heap over 24-byte entries with the
// callbacks parked in a slot slab to the side:
//   - the comparator touches only (time, seq) and sifts never move
//     callbacks, so reheapification is cheap;
//   - callbacks are SmallFn (inline storage) and all queue storage is
//     pre-reserved and recycled, so scheduling stops allocating once the
//     heap/slab reach steady-state size;
//   - slots track their heap position, so timers get true event removal
//     (cancel/reschedule) instead of queue-clogging dead entries.
//
// Idle poll steps (Process::poll) bypass the heap. Each one is scheduled at
// now() + its period with a fresh seq; now() never decreases and seqs only
// grow, so one period's steps arrive already sorted by (time, seq). They
// queue in one FIFO lane per distinct period, and step() runs whichever of
// the heap top and the lane fronts comes first — the same order one heap
// would give, at O(1) per poll step.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace multiedge::sim {

class Process;

class Simulator {
 public:
  using Callback = SmallFn;

  /// Handle to a cancellable event; generation-checked, so a stale id held
  /// after the event fired (or was cancelled) is harmless.
  struct EventId {
    std::uint32_t slot = 0xffffffffu;
    std::uint32_t gen = 0;
  };

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (clamped to `now()` if in the past).
  void at(Time t, Callback cb) { schedule(t, std::move(cb)); }

  /// Schedule `cb` after delay `d` (>= 0).
  void in(Time d, Callback cb) { schedule(now_ + d, std::move(cb)); }

  /// Like at(), returning a handle usable with cancel()/reschedule().
  EventId at_cancellable(Time t, Callback cb) {
    const std::uint32_t slot = schedule(t, std::move(cb));
    return EventId{slot, slots_[slot].gen};
  }

  /// Remove a pending event (its callback is destroyed, never runs).
  /// Returns false if it already fired, was cancelled, or the id is stale.
  bool cancel(EventId id);

  /// Move a pending event to absolute time `t` (clamped to now), keeping its
  /// callback but assigning a fresh FIFO position — exactly as if it had
  /// been cancelled and newly scheduled. Returns false on a stale id.
  bool reschedule(EventId id, Time t);

  /// Run one event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains or stop() is called.
  void run();

  /// Run until simulated time reaches `t` (events at exactly `t` included),
  /// the queue drains, or stop() is called.
  void run_until(Time t);

  /// Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (diagnostics / perf benches).
  /// Cancelled events never execute and are not counted.
  std::uint64_t events_executed() const { return executed_; }

  /// Events scheduled so far, counting reschedules (each takes a fresh FIFO
  /// position) and poll steps. Process::poll() compares it around its
  /// predicate to reject a predicate that schedules.
  std::uint64_t events_scheduled() const { return next_seq_; }

  /// Events currently pending, poll steps included.
  std::size_t pending() const;

 private:
  friend class Process;

  static constexpr std::uint32_t kNpos = 0xffffffffu;

  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = kNpos;
  };

  /// One pending poll step: runs `proc->poll_step(gen)`.
  struct PollEntry {
    Time t;
    std::uint64_t seq;
    Process* proc;
    std::uint64_t gen;
  };
  /// The pending steps of one poll period, oldest first, in a power-of-two
  /// ring that only grows, so the steady state allocates nothing.
  struct PollLane {
    Time every;
    std::vector<PollEntry> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    const PollEntry& front() const { return ring[head]; }
    void push(const PollEntry& e);
    PollEntry pop();
  };

  template <typename A, typename B>
  static bool before(const A& a, const B& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  /// Schedule `proc`'s next poll step at now() + `every` (Process::arm_poll).
  void schedule_poll(Time every, Process* proc, std::uint64_t gen);
  /// The lane whose front runs before the heap top, or nullptr when the
  /// heap top (or nothing) runs next.
  PollLane* next_lane();
  /// Run `lane`'s front, or the heap top if `lane` is nullptr (what
  /// next_lane() chose). Returns false if nothing is pending.
  bool run_next(PollLane* lane);

  std::uint32_t schedule(Time t, Callback cb);
  void place(std::size_t pos, const HeapEntry& e);
  void sift_up(std::size_t pos, const HeapEntry& e);
  void sift_down(std::size_t pos, const HeapEntry& e);
  void remove_heap_entry(std::size_t pos);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<PollLane> lanes_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace multiedge::sim
