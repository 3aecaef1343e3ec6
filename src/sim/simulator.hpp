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
// An idle poll step (Process::poll) is an ordinary heap event, scheduled
// where the reference loop's delay() would schedule its resume.
//
// A poller that declared its wake sources (sim::Wake) parks instead of
// stepping while its predicate is false: its skipped steps are phantoms,
// counted but never run. A touch, its deadline, or any event on one of its
// grid instants puts its step back, keyed to the exact (time, seq) position
// the eager step would have had (DESIGN §11 "Parked pollers").
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
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

  /// Number of events executed so far (diagnostics / perf benches),
  /// counting the phantom steps of parked pollers exactly as if they had
  /// run. Cancelled events never execute and are not counted.
  std::uint64_t events_executed() const;

  /// Callbacks actually run: events_executed() without phantom steps.
  std::uint64_t callbacks_run() const { return executed_; }

  /// Events scheduled so far, counting reschedules (each takes a fresh FIFO
  /// position) and phantom poll steps.
  std::uint64_t events_scheduled() const;

  /// Events currently pending (a parked poller has one pending step, as
  /// its eager loop would).
  std::size_t pending() const;

  /// Wakeup oracle, for tests: parked pollers are never parked but step
  /// every period, and a step throws std::logic_error out of step() when
  /// the predicate of a poller that would have been parked holds although
  /// none of its signals was touched. Set it before anything polls.
  void set_check_wakeups(bool on);
  /// The oracle setting every Simulator constructed afterwards starts
  /// with (lets a test binary run its whole suite under the oracle).
  static void set_check_wakeups_default(bool on) {
    check_wakeups_default_ = on;
  }

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

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  /// Run the heap top. Returns false if the heap is empty.
  bool run_next();

  // --- Parked pollers ---

  /// The step of a woken parked poller. Its key extends (time, seq): an
  /// anchor step keeps its real seq (seq2 = 2·seq); a derived step sits
  /// just before the first seq taken after instant `from` = t − every
  /// (seq2 = 2·R(from) − 1), ties broken by `from`, then by anchor seq.
  struct WakeEntry {
    Time t;
    std::uint64_t seq2;
    Time from;
    std::uint64_t anchor;
    Process* proc;
  };
  struct DeadlineEntry {
    Time t;  // the poller's first grid instant at or after its deadline
    Process* proc;
    std::uint64_t poll_id;
  };
  /// R(x) = seq for every instant x from `from` up to the next mark's.
  struct SeqMark {
    Time from;
    std::uint64_t seq;
  };
  /// The pollers of one period whose poll() call has parked, by grid phase
  /// (anchor mod every); only the kParked ones are parked right now.
  struct ParkClass {
    Time every;
    std::unordered_map<Time, std::vector<Process*>> by_phase;
    /// Entries of by_phase per (phase mod kFilter): most instants collide
    /// with no parked poller, and this tells them so without a lookup.
    static constexpr std::size_t kFilter = 1024;
    std::array<std::uint32_t, kFilter> filter{};
  };

  static bool wake_before(const WakeEntry& a, const WakeEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.seq2 != b.seq2) return a.seq2 < b.seq2;
    if (a.from != b.from) return a.from < b.from;
    return a.anchor < b.anchor;
  }
  // Min-heap orders for std::push_heap/pop_heap on woken_ and deadlines_.
  static bool woken_after(const WakeEntry& a, const WakeEntry& b) {
    return wake_before(b, a);
  }
  static bool deadline_after(const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.t > b.t;
  }
  static bool wake_before_event(const WakeEntry& w, const HeapEntry& e) {
    if (w.t != e.t) return w.t < e.t;
    return w.seq2 < 2 * e.seq;
  }

  /// Park `p`: its next step, at p->anchor_t_ with seq p->anchor_seq_,
  /// becomes a phantom until something wakes it.
  void park(Process* p);
  /// Put parked `p`'s step at its grid instant `g` on the wake heap; the
  /// steps before `g` count as phantoms.
  void wake_at(Process* p, Time g);
  /// A signal `p` watches was touched.
  void touched(Process* p);
  /// `p` is being destroyed: drop every reference to it.
  void forget(Process* p);
  /// Add `p` to / remove it from its phase bucket (park_classes_).
  void index(Process* p);
  void unindex(Process* p);
  /// Phantom steps of the parked pollers up to now().
  std::uint64_t parked_phantoms() const;

  /// step() and run_until() while some poller is parked or woken.
  bool step_dormant();
  /// Earliest instant anything is due; false if nothing is due.
  bool next_instant(Time* t);
  /// First event at instant t: resolve the parked pollers it collides with
  /// and the deadlines due at t.
  void enter(Time t);
  /// run_until(t) returns: the phantom steps at t count as run.
  void close(Time t);
  /// R(x): the seq the first event scheduled after instant x takes.
  std::uint64_t seq_after(Time x) const;
  void run_woken();

  std::uint32_t schedule(Time t, Callback cb);
  void place(std::size_t pos, const HeapEntry& e);
  void sift_up(std::size_t pos, const HeapEntry& e);
  void sift_down(std::size_t pos, const HeapEntry& e);
  void remove_heap_entry(std::size_t pos);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;

  // Parked and woken pollers. While dormant_ is 0 none of this is read.
  std::size_t dormant_ = 0;
  std::vector<ParkClass> park_classes_;
  std::vector<WakeEntry> woken_;          // min-heap by wake_before
  std::vector<DeadlineEntry> deadlines_;  // min-heap by t
  std::vector<SeqMark> marks_;            // sorted by from; head at mark_head_
  std::size_t mark_head_ = 0;
  Time open_from_ = 0;  // first instant no mark covers yet
  Time checked_ = -1;   // latest instant entered or closed
  Time max_every_ = 0;  // longest period that ever parked
  std::uint64_t phantom_executed_ = 0;
  std::uint64_t phantom_scheduled_ = 0;
  bool check_wakeups_ = check_wakeups_default_;

  inline static bool check_wakeups_default_ = false;
};

}  // namespace multiedge::sim
