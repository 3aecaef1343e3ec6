// Linked into the suites that run a second time under the wakeup oracle
// (the `*_wake_oracle` ctest entries): with MULTIEDGE_CHECK_WAKEUPS=1 in the
// environment, every Simulator the suite builds checks every blocked wait
// after every event and throws if a predicate turned true without a touch
// (sim::Simulator::set_check_wakeups, DESIGN §11 "Signal waits").
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
