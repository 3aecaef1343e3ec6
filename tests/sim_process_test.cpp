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

// Pollers on two periods (500 ns and 1 us) against delay() tickers on the
// same instants, and flags that land on poll steps both ahead of and behind
// them.
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
// poll() with a Wake: parked pollers against the reference loop
// ---------------------------------------------------------------------------

enum class Wait { kReference, kParked, kOracle };

// One scripted run: pollers on 500 ns and 1 us whose start instants share
// phases, each idling on a flag (with or without a deadline) several times;
// against heap events that set, clear or only touch flags. Events land on
// grid instants or between them, and either come from the initial schedule
// (their seqs precede every poll step at their instant) or are scheduled
// from other events at run time (their seqs follow the steps armed before
// them). In kReference the pollers run `do delay(every); while (!ready() &&
// now() < deadline);`; in kParked they park; kOracle runs the parked code
// with Simulator::set_check_wakeups.
//
// A mixed script also has polls that step eagerly beside the parked ones:
// some pass no Wake, and some park only while a `clean` flag holds, which
// events flip without a touch (as the broker parks only while its rails
// are clean). Their steps are ordinary heap events on the same instants as
// woken and phantom steps.
struct WakeScript {
  enum class Kind { kParks, kNoWake, kMayPark };
  struct Poll {
    int flag;
    Time deadline_in;  // kTimeInfinity: none
    Time pause;        // delay before the next poll (0: poll again at once)
    Kind kind = Kind::kParks;
  };
  struct Poller {
    Time every;
    Time start;
    std::vector<Poll> polls;
  };
  struct Event {
    Time at;
    int action;  // 0 set + touch, 1 clear, 2 touch only, 3 set, clear,
                 // touch, 4 flip `clean` (no touch)
    int flag;
    Time child_at;  // schedules one more such event then (0: none)
    int child_action;
    int child_flag;
  };
  std::vector<Poller> pollers;
  std::vector<Event> events;
  int flags = 0;
};

WakeScript make_wake_script(std::uint64_t seed, bool mixed) {
  Rng rng(seed);
  WakeScript w;
  w.flags = 3;
  const Time quarter = ns(250);
  auto below = [&](Time bound) {
    return static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  // On a grid instant two times in three; otherwise anywhere.
  auto instant = [&](Time span) {
    const Time q = quarter * below(span / quarter);
    return rng.chance(0.67) ? q : q + 1 + below(quarter - 1);
  };
  const int pollers = 4 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < pollers; ++i) {
    WakeScript::Poller p;
    p.every = rng.chance(0.5) ? ns(500) : us(1);
    p.start = quarter * static_cast<Time>(rng.next_below(4));
    const int polls = 4 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < polls; ++k) {
      WakeScript::Poll poll;
      poll.flag = static_cast<int>(rng.next_below(w.flags));
      poll.deadline_in = rng.chance(0.3)
                             ? kTimeInfinity
                             : static_cast<Time>(rng.next_below(us(6)));
      poll.pause = rng.chance(0.4) ? 0 : quarter * static_cast<Time>(
                                                       rng.next_below(6));
      if (mixed) {
        const std::uint64_t k = rng.next_below(4);
        poll.kind = k == 0   ? WakeScript::Kind::kNoWake
                    : k == 1 ? WakeScript::Kind::kMayPark
                             : WakeScript::Kind::kParks;
      }
      p.polls.push_back(poll);
    }
    w.pollers.push_back(p);
  }
  const int events = 40 + static_cast<int>(rng.next_below(30));
  for (int i = 0; i < events; ++i) {
    WakeScript::Event e{};
    e.at = instant(us(30));
    e.action = static_cast<int>(rng.next_below(mixed ? 5 : 4));
    e.flag = static_cast<int>(rng.next_below(w.flags));
    if (rng.chance(0.5)) {
      e.child_at = e.at + instant(us(3));
      e.child_action = static_cast<int>(rng.next_below(mixed ? 5 : 4));
      e.child_flag = static_cast<int>(rng.next_below(w.flags));
    }
    w.events.push_back(e);
  }
  // Late enough for every poll without a deadline to see its flag set.
  for (int f = 0; f < w.flags; ++f) {
    for (int k = 0; k < 12; ++k) {
      w.events.push_back({us(40) + us(7) * k, 0, f, 0, 0, 0});
    }
  }
  return w;
}

struct WakeRun {
  std::vector<std::string> log;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t callbacks = 0;
  std::uint64_t eager = 0;  // steps of kNoWake polls, refused parks
};

// How the run is driven: run(), or run_until() in 750 ns slices, whose
// ends fall on grid instants and between them. After each slice, outside
// code schedules an event at the slice's end, which must run after the
// (phantom) steps at that instant.
enum class Drive { kRun, kSlices };

WakeRun run_wake_script(const WakeScript& w, Wait mode, Drive drive) {
  Simulator sim;
  if (mode == Wait::kOracle) sim.set_check_wakeups(true);
  WakeRun run;
  auto log = [&](const std::string& what) {
    run.log.push_back(std::to_string(sim.now()) + " " + what);
  };
  std::vector<char> flag(static_cast<std::size_t>(w.flags), 0);
  std::vector<Signal> signal(static_cast<std::size_t>(w.flags));
  bool clean = true;
  std::function<void(int, int, int, Time, int, int)> act;
  act = [&](int id, int action, int f, Time child_at, int child_action,
            int child_flag) {
    log("ev" + std::to_string(id) + " a" + std::to_string(action) + " f" +
        std::to_string(f));
    if (action == 4) {
      clean = !clean;
    } else {
      if (action == 0 || action == 3) flag[f] = 1;
      if (action == 1 || action == 3) flag[f] = 0;
      if (action != 1) signal[f].touch();
    }
    if (child_at != 0) {
      sim.at(child_at, [&act, id, child_action, child_flag] {
        act(1000 + id, child_action, child_flag, 0, 0, 0);
      });
    }
  };
  for (std::size_t i = 0; i < w.events.size(); ++i) {
    const WakeScript::Event e = w.events[i];
    sim.at(e.at, [&act, e, i] {
      act(static_cast<int>(i), e.action, e.flag, e.child_at, e.child_action,
          e.child_flag);
    });
  }
  std::vector<std::unique_ptr<Process>> ps;
  for (std::size_t i = 0; i < w.pollers.size(); ++i) {
    const WakeScript::Poller& pl = w.pollers[i];
    const std::string name = "p" + std::to_string(i);
    ps.push_back(std::make_unique<Process>(sim, name, [&, pl, name] {
      Process* self = Process::current();
      if (pl.start > 0) self->delay(pl.start);
      for (const WakeScript::Poll& poll : pl.polls) {
        const Time deadline = poll.deadline_in == kTimeInfinity
                                  ? kTimeInfinity
                                  : sim.now() + poll.deadline_in;
        const int f = poll.flag;
        auto ready = [&] { return flag[f] != 0; };
        std::uint64_t steps = 0;
        if (mode == Wait::kReference) {
          do {
            self->delay(pl.every);
            ++steps;
          } while (!ready() && sim.now() < deadline);
        } else if (poll.kind == WakeScript::Kind::kNoWake) {
          steps = self->poll(pl.every, [&] {
            ++run.eager;
            return ready() || sim.now() >= deadline;
          });
        } else if (poll.kind == WakeScript::Kind::kMayPark) {
          steps = self->poll(pl.every, ready, Wake{{&signal[f]}, deadline},
                             [&] {
                               run.eager += clean ? 0 : 1;
                               return clean;
                             });
        } else {
          steps = self->poll(pl.every, ready, Wake{{&signal[f]}, deadline});
        }
        log(name + " f" + std::to_string(f) + " steps " +
            std::to_string(steps) + (ready() ? " ready" : " timeout"));
        flag[f] = 0;  // consume it (a write that makes ready() false)
        if (poll.pause > 0) self->delay(poll.pause);
      }
    }));
  }
  for (auto& p : ps) p->start();
  if (drive == Drive::kRun) {
    sim.run();
  } else {
    for (int k = 0; sim.now() < us(500); ++k) {
      sim.run_until(sim.now() + ns(750));
      if (sim.pending() == 0) break;
      sim.at(sim.now(), [&act, k, &w] {
        act(2000 + k, k % 4 == 0 ? 0 : 2, k % w.flags, 0, 0, 0);
      });
    }
  }
  for (const auto& p : ps) EXPECT_TRUE(p->done()) << p->name();
  run.executed = sim.events_executed();
  run.scheduled = sim.events_scheduled();
  run.callbacks = sim.callbacks_run();
  return run;
}

// Plain scripts, and mixed ones whose eager steps share instants with
// parked and woken steps; each driven through step() and run_until().
TEST(ProcessPoll, ParkedMatchesReferenceLoopOnRandomScripts) {
  std::uint64_t skipped = 0;
  std::uint64_t eager = 0;
  for (bool mixed : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const WakeScript w = make_wake_script(seed, mixed);
      for (Drive drive : {Drive::kRun, Drive::kSlices}) {
        SCOPED_TRACE(::testing::Message()
                     << (mixed ? "mixed" : "plain") << " seed " << seed
                     << (drive == Drive::kRun ? " run" : " slices"));
        const WakeRun ref = run_wake_script(w, Wait::kReference, drive);
        const WakeRun parked = run_wake_script(w, Wait::kParked, drive);
        const WakeRun oracle = run_wake_script(w, Wait::kOracle, drive);
        EXPECT_EQ(parked.log, ref.log);
        EXPECT_EQ(parked.executed, ref.executed);
        EXPECT_EQ(parked.scheduled, ref.scheduled);
        EXPECT_EQ(oracle.log, ref.log);
        EXPECT_EQ(oracle.executed, ref.executed);
        EXPECT_EQ(oracle.scheduled, ref.scheduled);
        // The oracle skips nothing.
        EXPECT_EQ(oracle.callbacks, oracle.executed);
        EXPECT_LT(parked.callbacks, parked.executed);
        skipped += parked.executed - parked.callbacks;
        eager += parked.eager;
      }
    }
  }
  EXPECT_GT(skipped, 1000u);
  EXPECT_GT(eager, 1000u);
}

TEST(ProcessPoll, OracleRejectsAMissingTouch) {
  for (bool check : {false, true}) {
    SCOPED_TRACE(check);
    Simulator sim;
    sim.set_check_wakeups(check);
    Signal sig;
    bool flag = false;
    std::uint64_t steps = 0;
    Process p(sim, "p", [&] {
      steps = Process::current()->poll(ns(500), [&] { return flag; },
                                       Wake{{&sig}, us(10)});
    });
    p.start();
    sim.at(ns(1200), [&] { flag = true; });  // forgets sig.touch()
    if (check) {
      EXPECT_THROW(sim.run(), std::logic_error);
      EXPECT_EQ(sim.now(), ns(1500));
      // The poll stays armed; with the touch made good it resumes.
      sig.touch();
      sim.run();
      EXPECT_TRUE(p.done());
      EXPECT_EQ(steps, 4u);
    } else {
      // Parked, the poller sleeps through the write until its deadline.
      sim.run();
      EXPECT_TRUE(p.done());
      EXPECT_EQ(steps, 20u);
    }
  }
}

TEST(ProcessPoll, ParkedStepsCountAsEvents) {
  Simulator sim;
  Signal sig;
  bool flag = false;
  std::uint64_t steps = 0;
  Process p(sim, "p", [&] {
    steps = Process::current()->poll(us(1), [&] { return flag; }, {{&sig}});
  });
  p.start();
  sim.at(ns(7500), [&] {
    flag = true;
    sig.touch();
  });
  sim.run_until(us(5));
  // start + five phantom steps; one step pending, as in the eager loop.
  EXPECT_EQ(sim.events_executed(), 6u);
  EXPECT_EQ(sim.callbacks_run(), 1u);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(steps, 8u);
  EXPECT_EQ(sim.now(), us(8));
  EXPECT_EQ(sim.events_executed(), 10u);  // start, 8 steps, the write
  EXPECT_EQ(sim.events_scheduled(), 10u);
  EXPECT_EQ(sim.callbacks_run(), 3u);     // start, the write, the last step
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

// The eager loop would step forever here; a parked poller with no deadline
// and nothing else pending can never be woken, so run() reports a deadlock.
TEST(ClusterRun, ParkedPollerWithNothingPendingIsADeadlock) {
  Cluster cluster(config_1l_1g(2));
  Signal sig;
  bool flag = false;
  std::uint64_t steps = 0;
  cluster.spawn(0, "parked", [&](Endpoint&) {
    steps = Process::current()->poll(us(1), [&] { return flag; }, {{&sig}});
  });
  EXPECT_THROW(cluster.run(), std::runtime_error);
  const Time stuck_at = cluster.sim().now();
  EXPECT_EQ(cluster.sim().pending(), 1u);  // the parked step
  // Touched, it resumes at its next grid instant: its first step.
  flag = true;
  sig.touch();
  cluster.run();
  EXPECT_EQ(steps, 1u);
  EXPECT_EQ(cluster.sim().now(), stuck_at + us(1));
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
