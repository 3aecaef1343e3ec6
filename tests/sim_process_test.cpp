#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sim/random.hpp"
#include "sim/signal.hpp"

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

// A wait resumed by a touch cancels its deadline: neither that deadline
// (50us) nor a touch during the delay that follows (20us) cuts the delay
// short, and the next wait blocks until a touch of its own.
TEST(Process, StaleDelayEventCannotWakeLaterBlock) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::vector<Time> stamps;
  Process p(sim, "p", [&] {
    Process* self = Process::current();
    self->wait({{&sig}, us(50)}, [&] { return flag; });  // touched at 5us
    stamps.push_back(sim.now());
    flag = false;
    self->delay(us(100));  // must sleep the full 100us
    stamps.push_back(sim.now());
    self->wait({&sig}, [&] { return flag; });  // touched at 200us
    stamps.push_back(sim.now());
  });
  p.start();
  sim.at(us(5), [&] {
    flag = true;
    sig.touch();
  });
  sim.at(us(20), [&] {
    flag = true;
    sig.touch();
  });
  sim.at(us(104), [&] { flag = false; });
  sim.at(us(200), [&] {
    flag = true;
    sig.touch();
  });
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(stamps, (std::vector<Time>{us(5), us(105), us(200)}));
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
// wait(): signal waits (DESIGN §11 "Signal waits")
// ---------------------------------------------------------------------------

TEST(ProcessPoll, PredicateRunsOutsideAnyFiber) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::vector<Process*> seen;
  Process p(sim, "p", [&] {
    Process::current()->wait({&sig}, [&] {
      seen.push_back(Process::current());
      return flag;
    });
    EXPECT_EQ(Process::current()->state(), Process::State::kRunning);
  });
  p.start();
  sim.at(ns(5), [&] {
    flag = true;
    sig.touch();
  });
  sim.run();
  EXPECT_TRUE(p.done());
  // Evaluated on entry and by the touch's check, never inside the fiber.
  EXPECT_EQ(seen, (std::vector<Process*>{nullptr, nullptr}));
  EXPECT_EQ(sim.now(), ns(5));
}

TEST(ProcessPoll, PredicateThatSchedulesIsRejected) {
  Simulator sim;
  Signal sig;
  bool impure = true;
  bool flag = false;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    Process::current()->wait({&sig}, [&] {
      if (impure) sim.in(0, [] {});
      return flag;
    });
    resumed_at = sim.now();
  });
  p.start();
  // On entry: a check event at once reports it out of step().
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  EXPECT_EQ(sim.now(), 0);
  // In a touch's check; the wait stays blocked.
  sim.at(ns(10), [&] { sig.touch(); });
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  EXPECT_EQ(sim.now(), ns(10));
  impure = false;
  sim.at(ns(20), [&] {
    flag = true;
    sig.touch();
  });
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(resumed_at, ns(20));
}

TEST(ProcessPoll, PredicateThatBlocksIsRejected) {
  Simulator sim;
  Signal sig;
  Signal inner;
  int mode = 0;  // 0: a nested Process::wait, 1: Process::delay, 2: done
  int nested_returns = 0;
  Process* self = nullptr;
  Process p(sim, "p", [&] {
    self = Process::current();
    self->wait({&sig}, [&] {
      if (mode == 0) {
        self->wait({&inner}, [] { return false; });
        ++nested_returns;
      }
      if (mode == 1) self->delay(ns(1));
      return mode == 2;
    });
  });
  p.start();
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  mode = 1;
  sim.at(ns(10), [&] { sig.touch(); });
  EXPECT_THROW(sim.run_until(us(1)), std::logic_error);
  mode = 2;
  sim.at(ns(30), [&] { sig.touch(); });
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(nested_returns, 0);
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(ProcessPoll, OracleRejectsAMissingTouch) {
  for (bool check : {false, true}) {
    SCOPED_TRACE(check);
    Simulator sim;
    sim.set_check_wakeups(check);
    Signal sig;
    bool flag = false;
    Time resumed_at = -1;
    Process p(sim, "p", [&] {
      Process::current()->wait({{&sig}, us(10)}, [&] { return flag; });
      resumed_at = sim.now();
    });
    p.start();
    sim.at(ns(1200), [&] { flag = true; });  // forgets sig.touch()
    if (check) {
      EXPECT_THROW(sim.run(), std::logic_error);
      EXPECT_EQ(sim.now(), ns(1200));
      // The wait stays blocked; with the touch made good it resumes.
      sig.touch();
      sim.run();
      EXPECT_TRUE(p.done());
      EXPECT_EQ(resumed_at, ns(1200));
    } else {
      // Untouched, the waiter sleeps through the write until its deadline.
      sim.run();
      EXPECT_TRUE(p.done());
      EXPECT_EQ(resumed_at, us(10));
    }
  }
}

// A blocked wait has no event; a touch costs one check event, and touches
// at one instant share it.
TEST(ProcessPoll, WaitCountsOnlyEventsThatRun) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::uint64_t checks = 0;
  Process p(sim, "p", [&] {
    Process::current()->wait({&sig}, [&] {
      ++checks;
      return flag;
    });
    // Ready on entry: returns at once, with no event.
    Process::current()->wait({&sig}, [] { return true; });
  });
  p.start();
  // Two touching events at 3 us, the predicate still false.
  sim.at(us(3), [&] { sig.touch(); });
  sim.at(us(3), [&] {
    sig.touch();
    sig.touch();
  });
  sim.at(ns(7500), [&] {
    flag = true;
    sig.touch();
  });
  sim.run_until(us(5));
  EXPECT_EQ(sim.events_executed(), 4u);  // start, two touches, one check
  EXPECT_EQ(sim.pending(), 1u);          // the write; the wait has none
  EXPECT_EQ(checks, 2u);                 // entry, one check
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(sim.now(), ns(7500));
  EXPECT_EQ(sim.events_executed(), 6u);  // + the write and its check
  EXPECT_EQ(sim.events_scheduled(), 6u);
  EXPECT_EQ(checks, 3u);
}

// The second tie rule after Simulator::before: one touch schedules its
// watchers' checks newest watch first (Signal::link adds at the head), so
// same-instant waiters of one signal resume in reverse order of blocking.
// Every fingerprint depends on this order (DESIGN §11 "Signal waits").
TEST(ProcessPoll, OneTouchChecksWatchersNewestFirst) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::vector<std::string> resumed;
  std::vector<std::unique_ptr<Process>> ps;
  for (const char* name : {"a", "b", "c"}) {
    ps.push_back(std::make_unique<Process>(sim, name, [&, name] {
      Process::current()->wait({&sig}, [&] { return flag; });
      resumed.push_back(name);
    }));
  }
  for (auto& p : ps) p->start();  // a blocks first, c last
  sim.at(us(1), [&] {
    flag = true;
    sig.touch();
  });
  sim.run();
  EXPECT_EQ(resumed, (std::vector<std::string>{"c", "b", "a"}));
}

// Random scripts: waiters on three flags, with and without deadlines,
// against events that set, clear or only touch flags, on shared instants.
// Every wait must resume only when its flag is set or at its deadline; the
// oracle (no blocked waiter ready without a pending check, after every
// event) proves none sleeps through a set flag; and the oracle does not
// change the run. With `forget`, some sets skip the touch, and the oracle
// must catch it.
struct WaitScript {
  struct Wait {
    int flag;
    Time deadline_in;  // kTimeInfinity: none
    Time pause;        // delay before the next wait (0: wait again at once)
  };
  struct Event {
    Time at;
    int action;  // 0 set + touch, 1 clear, 2 touch only, 3 set, clear,
                 // touch, 4 set without a touch
    int flag;
    Time child_at;  // schedules one more such event then (0: none)
    int child_action;
    int child_flag;
  };
  std::vector<std::vector<Wait>> waiters;
  std::vector<Event> events;
  int flags = 3;
};

WaitScript make_wait_script(std::uint64_t seed, bool forget) {
  Rng rng(seed);
  WaitScript w;
  const Time quarter = ns(250);
  auto below = [&](Time bound) {
    return static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  // On a 250 ns grid two times in three (so instants are shared).
  auto instant = [&](Time span) {
    const Time q = quarter * below(span / quarter);
    return rng.chance(0.67) ? q : q + 1 + below(quarter - 1);
  };
  const int actions = forget ? 5 : 4;
  const int waiters = 4 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < waiters; ++i) {
    std::vector<WaitScript::Wait>& waits = w.waiters.emplace_back();
    const int n = 4 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < n; ++k) {
      WaitScript::Wait wt;
      wt.flag = static_cast<int>(rng.next_below(w.flags));
      wt.deadline_in = rng.chance(0.3) ? kTimeInfinity : below(us(6));
      wt.pause = rng.chance(0.4) ? 0 : quarter * below(6);
      waits.push_back(wt);
    }
  }
  const int events = 40 + static_cast<int>(rng.next_below(30));
  for (int i = 0; i < events; ++i) {
    WaitScript::Event e{};
    e.at = instant(us(30));
    e.action = static_cast<int>(rng.next_below(actions));
    e.flag = static_cast<int>(rng.next_below(w.flags));
    if (rng.chance(0.5)) {
      e.child_at = e.at + instant(us(3));
      e.child_action = static_cast<int>(rng.next_below(actions));
      e.child_flag = static_cast<int>(rng.next_below(w.flags));
    }
    w.events.push_back(e);
  }
  // Late enough for every wait without a deadline to see its flag set.
  for (int f = 0; f < w.flags; ++f) {
    for (int k = 0; k < 12; ++k) {
      w.events.push_back({us(40) + us(7) * k, 0, f, 0, 0, 0});
    }
  }
  return w;
}

struct WaitRun {
  std::vector<std::string> log;
  std::uint64_t events = 0;
  bool oracle_threw = false;
};

WaitRun run_wait_script(const WaitScript& w, bool oracle) {
  Simulator sim;
  sim.set_check_wakeups(oracle);
  WaitRun run;
  auto log = [&](const std::string& what) {
    run.log.push_back(std::to_string(sim.now()) + " " + what);
  };
  std::vector<char> flag(static_cast<std::size_t>(w.flags), 0);
  std::vector<Signal> signal(static_cast<std::size_t>(w.flags));
  std::function<void(int, int, int, Time, int, int)> act;
  act = [&](int id, int action, int f, Time child_at, int child_action,
            int child_flag) {
    log("ev" + std::to_string(id) + " a" + std::to_string(action) + " f" +
        std::to_string(f));
    if (action == 0 || action == 3 || action == 4) flag[f] = 1;
    if (action == 1 || action == 3) flag[f] = 0;
    if (action != 1 && action != 4) signal[f].touch();
    if (child_at != 0) {
      sim.at(child_at, [&act, id, child_action, child_flag] {
        act(1000 + id, child_action, child_flag, 0, 0, 0);
      });
    }
  };
  for (std::size_t i = 0; i < w.events.size(); ++i) {
    const WaitScript::Event e = w.events[i];
    sim.at(e.at, [&act, e, i] {
      act(static_cast<int>(i), e.action, e.flag, e.child_at, e.child_action,
          e.child_flag);
    });
  }
  std::vector<std::unique_ptr<Process>> ps;
  for (std::size_t i = 0; i < w.waiters.size(); ++i) {
    const std::string name = "p" + std::to_string(i);
    ps.push_back(std::make_unique<Process>(sim, name, [&, i, name] {
      Process* self = Process::current();
      for (const WaitScript::Wait& wt : w.waiters[i]) {
        const Time deadline = wt.deadline_in == kTimeInfinity
                                  ? kTimeInfinity
                                  : sim.now() + wt.deadline_in;
        const int f = wt.flag;
        self->wait({{&signal[f]}, deadline}, [&] { return flag[f] != 0; });
        const bool ready = flag[f] != 0;
        EXPECT_TRUE(ready || sim.now() == deadline) << name;
        log(name + " f" + std::to_string(f) + (ready ? " ready" : " timeout"));
        flag[f] = 0;  // consume it (a write that makes ready() false)
        if (wt.pause > 0) self->delay(wt.pause);
      }
    }));
  }
  for (auto& p : ps) p->start();
  // The oracle throws after an event; the run goes on from there, so every
  // fiber still finishes (later touches and deadlines wake the sleepers).
  for (;;) {
    try {
      sim.run();
      break;
    } catch (const std::logic_error&) {
      run.oracle_threw = true;
    }
  }
  for (const auto& p : ps) EXPECT_TRUE(p->done()) << p->name();
  run.events = sim.events_executed();
  return run;
}

TEST(ProcessPoll, RandomScriptsResumeOnlyWhenReadyOrAtTheDeadline) {
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    const WaitScript w = make_wait_script(seed, /*forget=*/false);
    const WaitRun plain = run_wait_script(w, false);
    const WaitRun checked = run_wait_script(w, true);
    EXPECT_FALSE(checked.oracle_threw);
    EXPECT_EQ(checked.log, plain.log);
    EXPECT_EQ(checked.events, plain.events);
    EXPECT_GT(plain.log.size(), 40u);
    if (run_wait_script(make_wait_script(seed, /*forget=*/true), true)
            .oracle_threw) {
      ++caught;
    }
  }
  // A set without a touch is caught unless every waiter happened to be
  // busy elsewhere each time.
  EXPECT_GT(caught, 12);
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

// A run whose other processes finished while one fiber stays blocked is a
// deadlock; unblocked, the same cluster runs to completion.
TEST(ClusterRun, BlockedFiberIsADeadlock) {
  Cluster cluster(config_1l_1g(2));
  Signal sig;
  bool flag = false;
  Process* stuck = nullptr;
  bool resumed = false;
  cluster.spawn(0, "done", [](Endpoint&) {});
  cluster.spawn(1, "stuck", [&](Endpoint&) {
    stuck = Process::current();
    stuck->wait({&sig}, [&] { return flag; });
    resumed = true;
  });
  EXPECT_THROW(cluster.run(), std::runtime_error);
  ASSERT_NE(stuck, nullptr);
  EXPECT_FALSE(stuck->done());
  flag = true;
  sig.touch();
  cluster.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(stuck->done());
}

// A blocked wait() with no deadline and nothing else pending can never be
// woken, so run() reports a deadlock.
TEST(ClusterRun, ParkedPollerWithNothingPendingIsADeadlock) {
  Cluster cluster(config_1l_1g(2));
  Signal sig;
  bool flag = false;
  bool resumed = false;
  cluster.spawn(0, "waiter", [&](Endpoint&) {
    Process::current()->wait({&sig}, [&] { return flag; });
    resumed = true;
  });
  EXPECT_THROW(cluster.run(), std::runtime_error);
  const Time stuck_at = cluster.sim().now();
  EXPECT_EQ(cluster.sim().pending(), 0u);
  // Touched, it resumes at the touch instant.
  flag = true;
  sig.touch();
  cluster.run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(cluster.sim().now(), stuck_at);
}

}  // namespace
}  // namespace multiedge::sim
