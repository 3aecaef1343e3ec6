#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/process.hpp"
#include "sim/random.hpp"
#include "sim/signal.hpp"
#include "sim/timer.hpp"

namespace multiedge::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.in(us(30), [&] { order.push_back(3); });
  sim.in(us(10), [&] { order.push_back(1); });
  sim.in(us(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), us(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.at(us(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  Time seen = -1;
  sim.in(us(10), [&] {
    sim.at(us(3), [&] { seen = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(seen, us(10));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.in(ns(1), chain);
  };
  sim.in(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), ns(99));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.at(us(10), [&] { ++fired; });
  sim.at(us(20), [&] { ++fired; });
  sim.at(us(21), [&] { ++fired; });
  sim.run_until(us(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), us(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(ms(5));
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.in(us(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.in(us(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.in(us(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// ---------------------------------------------------------------------------
// Wait checks: differential against one queue sorted on (time, seq)
// ---------------------------------------------------------------------------

// Mirrors every event handed to the simulator, wait checks and deadlines
// included:
// the (time, seq) each one must run at, which are still pending, and the
// order they ran in. Call expect()/moved() right before the scheduling call
// they describe and ran() first thing in the event.
class QueueModel {
 public:
  struct Entry {
    Time t;
    std::uint64_t seq;
    int id;
  };

  explicit QueueModel(Simulator& sim) : sim_(sim) {}

  int expect(Time t) {
    const int id = next_id_++;
    note(id, t);
    return id;
  }
  void moved(int id, Time t) { note(id, t); }
  void cancelled(int id) { pending_.erase(id); }
  bool is_pending(int id) const { return pending_.count(id) != 0; }

  void ran(int id) {
    const auto it = pending_.find(id);
    ASSERT_NE(it, pending_.end()) << "event " << id << " ran twice or late";
    EXPECT_EQ(it->second.t, sim_.now());
    log_.push_back(it->second);
    pending_.erase(it);
    check_counts();
  }

  void check_counts() const {
    EXPECT_EQ(sim_.events_executed(), log_.size());
    EXPECT_EQ(sim_.events_scheduled(), scheduled_);
    EXPECT_EQ(sim_.pending(), pending_.size());
  }

  std::size_t pending() const { return pending_.size(); }
  const std::vector<Entry>& log() const { return log_; }

 private:
  void note(int id, Time t) {
    pending_[id] = Entry{std::max(t, sim_.now()), sim_.events_scheduled(), id};
    ++scheduled_;
  }

  Simulator& sim_;
  std::map<int, Entry> pending_;
  std::vector<Entry> log_;
  std::uint64_t scheduled_ = 0;
  int next_id_ = 0;
};

// A seeded mix of in/at/at_cancellable/cancel/reschedule on a 250 ns grid,
// racing three waiters that the mix touches (their check events), whose
// deadlines are near half the time, and that delay() in between waits, so
// other events, checks and deadlines keep tying on one instant.
void run_lane_mix(std::uint64_t seed) {
  Simulator sim;
  QueueModel model(sim);
  Rng rng(seed);
  auto grid = [&](int span) {
    return static_cast<Time>(rng.next_u64() % static_cast<std::uint64_t>(span)) *
           ns(250);
  };
  struct Handle {
    int id;
    Simulator::EventId ev;
  };
  std::vector<Handle> handles;
  int budget = 600;

  constexpr int kWaiters = 3;
  std::vector<Signal> sig(kWaiters);
  std::vector<char> blocked(kWaiters, 0);
  std::vector<int> check_id(kWaiters, -1);  // its pending check event

  std::function<void(int)> event = [&](int id) {
    model.ran(id);
    for (int k = 1 + static_cast<int>(rng.next_u64() % 3); k > 0 && budget > 0;
         --k, --budget) {
      switch (rng.next_u64() % 6) {
        case 0: {
          const Time d = grid(8);
          const int next = model.expect(sim.now() + d);
          sim.in(d, [&event, next] { event(next); });
          break;
        }
        case 1: {
          // Up to 1 us in the past: clamps to now().
          const Time t = sim.now() - ns(1000) + grid(12);
          const int next = model.expect(t);
          sim.at(t, [&event, next] { event(next); });
          break;
        }
        case 2: {
          const Time t = sim.now() + grid(8);
          const int next = model.expect(t);
          handles.push_back(
              {next, sim.at_cancellable(t, [&event, next] { event(next); })});
          break;
        }
        case 3: {
          if (handles.empty()) break;
          const Handle h = handles[rng.next_u64() % handles.size()];
          const bool live = model.is_pending(h.id);
          EXPECT_EQ(sim.cancel(h.ev), live);
          if (live) model.cancelled(h.id);
          break;
        }
        case 4: {
          if (handles.empty()) break;
          const Handle h = handles[rng.next_u64() % handles.size()];
          const Time t = sim.now() - ns(500) + grid(8);
          const bool live = model.is_pending(h.id);
          if (live) model.moved(h.id, t);
          EXPECT_EQ(sim.reschedule(h.ev, t), live);
          break;
        }
        default: {
          // A touch schedules a check only for a blocked waiter without one.
          const int w = static_cast<int>(rng.next_u64() % kWaiters);
          if (blocked[w] && check_id[w] < 0) {
            check_id[w] = model.expect(sim.now());
          }
          sig[w].touch();
          break;
        }
      }
    }
  };

  for (int i = 0; i < 8; ++i) {
    const Time t = grid(8);
    const int id = model.expect(t);
    sim.at(t, [&event, id] { event(id); });
  }

  std::vector<int> start_ids(kWaiters);
  std::vector<std::unique_ptr<Process>> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(std::make_unique<Process>(sim, "waiter", [&, i] {
      model.ran(start_ids[i]);
      Process* self = Process::current();
      for (int round = 0; round < 12; ++round) {
        // Ready at the want-th check (never on entry, which has no check).
        std::uint64_t left = 1 + rng.next_u64() % 4;
        // Near half the time; else far, past the mix's last touch.
        const Time deadline =
            sim.now() + (rng.next_u64() % 2 == 0 ? grid(16) : us(50));
        const int deadline_id =
            deadline > sim.now() ? model.expect(deadline) : -1;
        blocked[i] = 1;
        self->wait({{&sig[i]}, deadline}, [&] {
          if (check_id[i] < 0) return false;
          model.ran(check_id[i]);
          check_id[i] = -1;
          return --left == 0;
        });
        blocked[i] = 0;
        if (left == 0) {
          if (deadline_id >= 0) model.cancelled(deadline_id);
        } else if (deadline_id >= 0) {
          if (check_id[i] >= 0) model.cancelled(check_id[i]);
          check_id[i] = -1;
          model.ran(deadline_id);
        }
        if (rng.next_u64() % 2 == 0) {
          const Time d = grid(4);
          const int id = model.expect(sim.now() + d);
          self->delay(d);
          model.ran(id);
        }
      }
    }));
  }
  for (int i = 0; i < kWaiters; ++i) {
    start_ids[i] = model.expect(sim.now());
    waiters[i]->start();
  }

  sim.run();
  for (const auto& p : waiters) EXPECT_TRUE(p->done());
  EXPECT_EQ(model.pending(), 0u);
  model.check_counts();

  // The reference: every executed event, sorted on (time, seq).
  std::vector<QueueModel::Entry> ref = model.log();
  std::sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  std::vector<int> ran_ids;
  std::vector<int> ref_ids;
  for (const auto& e : model.log()) ran_ids.push_back(e.id);
  for (const auto& e : ref) ref_ids.push_back(e.id);
  EXPECT_EQ(ran_ids, ref_ids);
}

TEST(SimulatorPollLanes, RandomMixRunsInTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    run_lane_mix(seed);
  }
}

// A wait's deadline and its touch's check run at a run_until() boundary only
// when they are due at it.
TEST(SimulatorPollLanes, RunUntilIncludesLaneStepAtBoundaryOnly) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::vector<Time> resumed;
  Process p(sim, "p", [&] {
    Process::current()->wait({{&sig}, ns(20)}, [&] { return flag; });
    resumed.push_back(sim.now());
    Process::current()->wait({&sig}, [&] { return flag; });
    resumed.push_back(sim.now());
  });
  p.start();
  const Time t = ns(20) - 1;  // the deadline lands at t + 1
  sim.run_until(t);
  EXPECT_TRUE(resumed.empty());
  EXPECT_EQ(sim.now(), t);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(t + 1);
  EXPECT_EQ(resumed, (std::vector<Time>{ns(20)}));
  EXPECT_EQ(sim.pending(), 0u);  // blocked with no deadline: no event
  sim.at(ns(30), [&] {
    flag = true;
    sig.touch();
  });
  sim.run_until(ns(30));  // the touch and its check, both at 30 ns
  EXPECT_TRUE(p.done());
  EXPECT_EQ(resumed, (std::vector<Time>{ns(20), ns(30)}));
  EXPECT_EQ(sim.events_executed(), 4u);  // start, deadline, touch, check
  EXPECT_EQ(sim.events_scheduled(), 4u);
}

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(us(10));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), us(10));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(us(10));
  sim.in(us(5), [&] { t.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmSupersedesPreviousSchedule) {
  Simulator sim;
  std::vector<Time> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now()); });
  t.schedule(us(10));
  sim.in(us(5), [&] { t.schedule(us(20)); });  // now fires at 25us
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], us(25));
}

TEST(Timer, ScheduleIfIdleDoesNotRearm) {
  Simulator sim;
  std::vector<Time> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now()); });
  t.schedule(us(10));
  t.schedule_if_idle(us(100));
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], us(10));
}

TEST(Timer, ReusableAfterFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(us(1));
  sim.run();
  t.schedule(us(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(TimeHelpers, UnitConversions) {
  EXPECT_EQ(us(1), ns(1000));
  EXPECT_EQ(ms(1), us(1000));
  EXPECT_EQ(sec(1), ms(1000));
  EXPECT_DOUBLE_EQ(to_us(us(42)), 42.0);
  EXPECT_EQ(us_d(1.5), ns(1500));
}

TEST(TimeHelpers, SerializationTime) {
  // 1500 bytes at 1 Gbps = 12000 ns.
  EXPECT_EQ(serialization_time(1500, 1.0), ns(12000));
  // Same payload at 10 Gbps is 10x faster.
  EXPECT_EQ(serialization_time(1500, 10.0), ns(1200));
}

}  // namespace
}  // namespace multiedge::sim
