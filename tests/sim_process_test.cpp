#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sim/wait_queue.hpp"

namespace multiedge::sim {
namespace {

TEST(Process, DelayAdvancesSimulatedTime) {
  Simulator sim;
  std::vector<Time> stamps;
  Process p(sim, "p", [&] {
    stamps.push_back(sim.now());
    Process::current()->delay(us(10));
    stamps.push_back(sim.now());
    Process::current()->delay(us(5));
    stamps.push_back(sim.now());
  });
  p.start();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(stamps, (std::vector<Time>{0, us(10), us(15)}));
}

TEST(Process, SuspendBlocksUntilWake) {
  Simulator sim;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    Process::current()->suspend();
    resumed_at = sim.now();
  });
  p.start();
  sim.in(us(30), [&] { p.wake(); });
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(resumed_at, us(30));
}

TEST(Process, WakeOnNonSuspendedIsNoOp) {
  Simulator sim;
  int steps = 0;
  Process p(sim, "p", [&] {
    ++steps;
    Process::current()->delay(us(10));
    ++steps;
  });
  p.start();
  // Waking mid-delay must not shorten the delay.
  sim.in(us(2), [&] { p.wake(); });
  sim.run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.now(), us(10));
}

TEST(Process, StaleDelayEventCannotWakeLaterBlock) {
  Simulator sim;
  std::vector<Time> stamps;
  Process p(sim, "p", [&] {
    Process* self = Process::current();
    self->suspend();             // woken at 5us by the event below
    stamps.push_back(sim.now());
    self->delay(us(100));        // must sleep the full 100us
    stamps.push_back(sim.now());
  });
  p.start();
  sim.in(us(5), [&] { p.wake(); });
  sim.run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], us(5));
  EXPECT_EQ(stamps[1], us(105));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  Process a(sim, "a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      Process::current()->delay(us(10));
    }
  });
  Process b(sim, "b", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      Process::current()->delay(us(10));
    }
  });
  a.start();
  b.start();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, CurrentIsNullOutsideFibers) {
  EXPECT_EQ(Process::current(), nullptr);
}

// ---------------------------------------------------------------------------
// poll(): differential against the inline reference loop
// ---------------------------------------------------------------------------

enum class Idle { kReference, kPoll };

// Idle the current process until `ready` holds, either through the
// reference loop or through poll(). Returns the number of steps taken.
std::uint64_t idle(Idle mode, Time every, const std::function<bool()>& ready) {
  Process* self = Process::current();
  if (mode == Idle::kPoll) return self->poll(every, ready);
  std::uint64_t steps = 0;
  do {
    self->delay(every);
    ++steps;
  } while (!ready());
  return steps;
}

struct PollRun {
  std::vector<std::string> log;  // "<ns> <what>", in execution order
  std::uint64_t events = 0;
};

// One poller idles four times against a competing process that ticks on the
// same instants, plus two flag-setting events that land exactly on a poll
// tick: one scheduled before the park (it runs ahead of the tick), one
// scheduled after it (it runs behind the tick).
PollRun run_poll_scenario(Idle mode) {
  Simulator sim;
  PollRun run;
  auto log = [&](const std::string& what) {
    run.log.push_back(std::to_string(sim.now() / kNanosecond) + " " + what);
  };
  bool early = false;
  bool late = false;
  std::uint64_t ready_calls = 0;
  sim.at(ns(30), [&] {
    early = true;
    log("early");
  });
  sim.at(ns(55), [&] {
    sim.at(ns(60), [&] {
      late = true;
      log("late");
    });
  });
  Process poller(sim, "poller", [&] {
    log("park early");
    log("steps " + std::to_string(idle(mode, ns(10), [&] {
          ++ready_calls;
          return early;
        })));
    log("park late");
    log("steps " +
        std::to_string(idle(mode, ns(10), [&] { return late; })));
    log("park ready-at-entry");
    log("steps " + std::to_string(idle(mode, ns(10), [] { return true; })));
    const Time deadline = sim.now() + ns(25);
    log("park deadline");
    log("steps " + std::to_string(idle(mode, ns(10), [&] {
          return sim.now() >= deadline;
        })));
  });
  Process ticker(sim, "ticker", [&] {
    for (int i = 0; i < 14; ++i) {
      log("tick");
      Process::current()->delay(ns(10));
    }
  });
  poller.start();
  ticker.start();
  sim.run();
  EXPECT_TRUE(poller.done());
  run.log.push_back("ready_calls " + std::to_string(ready_calls));
  run.events = sim.events_executed();
  return run;
}

TEST(ProcessPoll, MatchesReferenceLoopEventForEvent) {
  const PollRun ref = run_poll_scenario(Idle::kReference);
  const PollRun poll = run_poll_scenario(Idle::kPoll);
  EXPECT_EQ(poll.log, ref.log);
  EXPECT_EQ(poll.events, ref.events);

  // Spot-check the timeline itself: the early flag lands ahead of the 30 ns
  // tick, the late one behind the 60 ns tick, a ready-at-entry poll still
  // takes one step, and the deadline resumes at the first tick past it.
  auto has = [&](const std::string& line) {
    for (const std::string& l : poll.log) {
      if (l == line) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("30 steps 3"));
  EXPECT_TRUE(has("70 steps 4"));
  EXPECT_TRUE(has("80 steps 1"));
  EXPECT_TRUE(has("110 steps 3"));
  EXPECT_TRUE(has("ready_calls 3"));
}

TEST(ProcessPoll, PredicateRunsOutsideAnyFiber) {
  Simulator sim;
  int calls = 0;
  Process* seen = nullptr;
  Process p(sim, "p", [&] {
    Process::current()->poll(ns(5), [&] {
      ++calls;
      seen = Process::current();
      return true;
    });
    EXPECT_EQ(Process::current()->state(), Process::State::kRunning);
  });
  p.start();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, nullptr);
}

TEST(ProcessPoll, PredicateThatSchedulesIsRejected) {
  Simulator sim;
  bool impure = true;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    Process::current()->poll(ns(10), [&] {
      if (impure) sim.in(0, [] {});
      return !impure;
    });
    resumed_at = sim.now();
  });
  p.start();
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  EXPECT_EQ(sim.now(), ns(10));
  // The poll stays armed: once the predicate is pure, the run finishes.
  impure = false;
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(resumed_at, ns(20));
}

TEST(ProcessPoll, PredicateThatBlocksIsRejected) {
  Simulator sim;
  WaitQueue q;
  int mode = 0;  // 0: WaitQueue::wait, 1: Process::delay, 2: done blocking
  Process* self = nullptr;
  Process p(sim, "p", [&] {
    self = Process::current();
    self->poll(ns(10), [&] {
      if (mode == 0) q.wait();
      if (mode == 1) self->delay(ns(1));
      return true;
    });
  });
  p.start();
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  mode = 1;
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  mode = 2;
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(sim.now(), ns(30));
}

// Pollers on two periods (500 ns and 1 us, so two poll lanes) against
// delay() tickers on the same instants, and flags that land on poll steps
// both ahead of and behind them.
PollRun run_mixed_period_scenario(Idle mode) {
  Simulator sim;
  PollRun run;
  auto log = [&](const std::string& what) {
    run.log.push_back(std::to_string(sim.now() / kNanosecond) + " " + what);
  };
  bool a = false;
  bool b = false;
  bool c = false;
  sim.at(us(2), [&] {
    a = true;
    log("a");
  });
  sim.at(ns(3500), [&] {
    sim.at(us(4), [&] {
      b = true;
      log("b");
    });
  });
  auto poller = [&](const std::string& name, Time every,
                    std::vector<const bool*> waits) {
    return std::make_unique<Process>(sim, name, [&, name, every, waits] {
      for (const bool* flag : waits) {
        log(name + " steps " + std::to_string(idle(mode, every, [flag] {
              return *flag;
            })));
      }
      const Time deadline = sim.now() + ns(2200);
      log(name + " steps " + std::to_string(idle(mode, every, [&] {
            return sim.now() >= deadline;
          })));
    });
  };
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(poller("p500a", ns(500), {&a, &c}));
  ps.push_back(poller("p1000a", us(1), {&a, &b}));
  ps.push_back(poller("p500b", ns(500), {&b}));
  ps.push_back(poller("p1000b", us(1), {&c}));
  auto ticker = [&](const std::string& name, Time every, int ticks) {
    return std::make_unique<Process>(sim, name, [&, name, every, ticks] {
      for (int i = 0; i < ticks; ++i) {
        log(name);
        if (i == 9) c = true;  // a flag set from a fiber, mid-tick
        Process::current()->delay(every);
      }
    });
  };
  ps.push_back(ticker("t500", ns(500), 24));
  ps.push_back(ticker("t1000", us(1), 12));
  for (auto& p : ps) p->start();
  sim.run();
  for (const auto& p : ps) EXPECT_TRUE(p->done()) << p->name();
  run.events = sim.events_executed();
  return run;
}

TEST(ProcessPoll, MixedPeriodsMatchReferenceLoops) {
  const PollRun ref = run_mixed_period_scenario(Idle::kReference);
  const PollRun poll = run_mixed_period_scenario(Idle::kPoll);
  EXPECT_EQ(poll.log, ref.log);
  EXPECT_EQ(poll.events, ref.events);
  EXPECT_GT(poll.log.size(), 40u);
}

// ---------------------------------------------------------------------------
// Cluster::run(): returns once every spawned process is done
// ---------------------------------------------------------------------------

std::function<void(Endpoint&)> sleeper(std::vector<std::string>& finished,
                                       std::string name, Time d) {
  return [&finished, name = std::move(name), d](Endpoint&) {
    Process::current()->delay(d);
    finished.push_back(name);
  };
}

TEST(ClusterRun, WaitsForOutOfOrderAndMidRunSpawns) {
  Cluster cluster(config_1l_1g(2));
  std::vector<std::string> finished;
  cluster.spawn(0, "a", sleeper(finished, "a", us(30)));
  cluster.spawn(1, "b", sleeper(finished, "b", us(10)));
  cluster.spawn(0, "c", [&](Endpoint&) {
    Process::current()->delay(us(5));
    cluster.spawn(1, "d", sleeper(finished, "d", us(50)));
    cluster.spawn(0, "e", sleeper(finished, "e", us(1)));
    finished.push_back("c");
  });
  cluster.run();
  EXPECT_EQ(finished,
            (std::vector<std::string>{"c", "e", "b", "a", "d"}));
  EXPECT_EQ(cluster.sim().now(), us(55));

  // A later run() waits for processes spawned after the first one returned.
  cluster.spawn(1, "f", sleeper(finished, "f", us(3)));
  cluster.run();
  EXPECT_EQ(finished.back(), "f");
  EXPECT_EQ(cluster.sim().now(), us(58));
}

TEST(ClusterRun, BlockedFiberIsADeadlock) {
  Cluster cluster(config_1l_1g(2));
  Process* stuck = nullptr;
  bool resumed = false;
  cluster.spawn(0, "done", [](Endpoint&) {});
  cluster.spawn(1, "stuck", [&](Endpoint&) {
    stuck = Process::current();
    stuck->suspend();
    resumed = true;
  });
  EXPECT_THROW(cluster.run(), std::runtime_error);
  ASSERT_NE(stuck, nullptr);
  EXPECT_FALSE(stuck->done());
  // Unblocked, the same cluster runs to completion.
  stuck->wake();
  cluster.run();
  EXPECT_TRUE(resumed);
}

TEST(WaitQueue, NotifyOneWakesFifo) {
  Simulator sim;
  WaitQueue q;
  std::vector<int> woken;
  Process p1(sim, "p1", [&] {
    q.wait();
    woken.push_back(1);
  });
  Process p2(sim, "p2", [&] {
    q.wait();
    woken.push_back(2);
  });
  p1.start();
  p2.start();
  sim.in(us(1), [&] { q.notify_one(); });
  sim.in(us(2), [&] { q.notify_one(); });
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{1, 2}));
}

TEST(WaitQueue, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  WaitQueue q;
  int woken = 0;
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 0; i < 8; ++i) {
    ps.push_back(std::make_unique<Process>(sim, "p", [&] {
      q.wait();
      ++woken;
    }));
    ps.back()->start();
  }
  sim.in(us(1), [&] { q.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 8);
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, NotifyOnEmptyQueueIsSafe) {
  Simulator sim;
  WaitQueue q;
  q.notify_one();
  q.notify_all();
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, MesaStyleConditionLoop) {
  Simulator sim;
  WaitQueue q;
  bool cond = false;
  Time observed = -1;
  Process waiter(sim, "waiter", [&] {
    while (!cond) q.wait();
    observed = sim.now();
  });
  waiter.start();
  // A notify without the condition being true must not release the waiter.
  sim.in(us(1), [&] { q.notify_all(); });
  sim.in(us(10), [&] {
    cond = true;
    q.notify_all();
  });
  sim.run();
  EXPECT_EQ(observed, us(10));
}

}  // namespace
}  // namespace multiedge::sim
