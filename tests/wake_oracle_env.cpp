// Linked into the suites that run a second time under the wakeup oracle
// (the `*_wake_oracle` ctest entries): with MULTIEDGE_CHECK_WAKEUPS=1 in the
// environment, every Simulator the suite builds steps its parked pollers
// every period and throws if a predicate turns true without a touch
// (sim::Simulator::set_check_wakeups, DESIGN §11 "Parked pollers").
#include <cstdlib>

#include "sim/simulator.hpp"

namespace {

const bool kInstalled = [] {
  const char* v = std::getenv("MULTIEDGE_CHECK_WAKEUPS");
  multiedge::sim::Simulator::set_check_wakeups_default(v != nullptr &&
                                                       v[0] == '1');
  return true;
}();

}  // namespace
