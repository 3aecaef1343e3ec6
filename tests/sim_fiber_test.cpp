#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace multiedge::sim {
namespace {

TEST(Fiber, RunsBodyToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
    Fiber::yield();
    order.push_back(5);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, LocalStateSurvivesYield) {
  int out = 0;
  Fiber f([&] {
    int local = 7;
    Fiber::yield();
    local *= 6;
    out = local;
  });
  f.resume();
  f.resume();
  EXPECT_EQ(out, 42);
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kFibers = 32;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counts(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counts, i] {
      for (int step = 0; step < 3; ++step) {
        ++counts[i];
        Fiber::yield();
      }
    }));
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& f : fibers) {
      if (!f->done()) f->resume();
    }
  }
  for (int i = 0; i < kFibers; ++i) EXPECT_EQ(counts[i], 3) << i;
}

int ThrowAfterYield(int v) {
  Fiber::yield();
  throw std::runtime_error(std::to_string(v));
}

TEST(Fiber, ExceptionCaughtInsideFiberAcrossYield) {
  std::string caught;
  Fiber f([&] {
    try {
      ThrowAfterYield(7);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  });
  f.resume();
  EXPECT_TRUE(caught.empty());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(caught, "7");
}

// 1/3 under the current rounding mode. The volatile operands keep the
// division at run time, in SSE registers, so it reads MXCSR.
double OneThird() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}

TEST(Fiber, RoundingModeStaysInItsFiber) {
  const int main_mode = std::fegetround();
  const double main_third = OneThird();
  int fiber_mode = -1;
  double fiber_third = 0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::yield();
    fiber_mode = std::fegetround();
    fiber_third = OneThird();
  });
  f.resume();
  // std::fegetround reads the x87 control word, OneThird MXCSR.
  EXPECT_EQ(std::fegetround(), main_mode);
  EXPECT_EQ(OneThird(), main_third);
  f.resume();
  EXPECT_EQ(fiber_mode, FE_UPWARD);
  EXPECT_GT(fiber_third, main_third);
  EXPECT_EQ(std::fegetround(), main_mode);
  EXPECT_EQ(OneThird(), main_third);
}

TEST(Fiber, OverAlignedLocalInFreshFiberIsAligned) {
  std::uintptr_t addr = 1;
  Fiber f([&] {
    alignas(32) volatile char buf[32] = {};
    addr = reinterpret_cast<std::uintptr_t>(&buf[0]);
  });
  f.resume();
  EXPECT_EQ(addr % 32, 0u);
}

// Recurses `depth` times with a 1 KiB frame the optimiser cannot drop.
int Recurse(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) return pad[0];
  return Recurse(depth - 1) + pad[0];
}

TEST(Fiber, DefaultStackHoldsDeepRecursion) {
  constexpr int kDepth = 200;  // ~200 KiB of the 256 KiB stack
  int sum = -1;
  Fiber f([&] { sum = Recurse(kDepth); });
  f.resume();
  EXPECT_TRUE(f.done());
  int expect = 0;
  for (int d = 0; d <= kDepth; ++d) expect += static_cast<char>(d);
  EXPECT_EQ(sum, expect);
}

TEST(Fiber, UnstartedFiberDestructsSafely) {
  Fiber f([] { FAIL() << "body must not run"; });
  // Destructor of an unstarted fiber must not execute the body.
}

}  // namespace
}  // namespace multiedge::sim
