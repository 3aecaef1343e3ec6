// Notified-access RMA benchmark (src/rma): token-forwarding latency around a
// ring of nodes, comparing the two ways the passive side can learn that a
// one-sided write arrived:
//
//   * poll   — the pre-§17 baseline: the initiator issues a plain write and
//              the target sleep-polls the flag word at a fixed granularity
//              (the progress-loop idiom the KV server and broker use for
//              everything un-notified). Nothing solicits an event, so the
//              lone flag frame also sits behind the NIC's interrupt
//              moderation before it is even applied — polling pays for
//              moderation plus discovery granularity.
//   * notify — notified access: the initiator uses Window::put_notify and
//              the target blocks in Window::wait_notify. The notification
//              rides the urgent (solicited-event) wire class: the interrupt
//              fires immediately and the waiter wakes the moment the payload
//              is applied.
//
// Both modes push one 8-byte write per hop — the difference under
// measurement is the completion-discovery mechanism notified access exists
// to provide.
//
// Headline evidence (gated on every run; --check also compares the counter
// fingerprints against a committed baseline):
//   * at 8 nodes, notified wait completes hops >= 1.3x faster than 1us
//     sleep-polling (per-hop simulated latency ratio).
//
// Usage: rma_bench [--quick] [--json[=path]] [--check=<baseline>]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "rma/rma.hpp"
#include "sim/process.hpp"

namespace {

using namespace multiedge;

enum class Mode { kPoll, kNotify };

// The baseline's discovery granularity. 1us is the repo's standard
// progress-loop poll (KV wait loops run 500ns-2us); finer polling burns
// proportionally more CPU for a core that has real work to do.
constexpr sim::Time kPollInterval = sim::us(1);
constexpr int kTag = 14;

struct Workload {
  std::string name;
  Mode mode;
  int nodes;
  int rounds;  // full ring circulations measured
};

std::string wl_name(Mode m, int nodes) {
  return (m == Mode::kPoll ? "poll" : "notify") + std::string("-ring-n") +
         std::to_string(nodes);
}

// One token circulates the ring `rounds + 1` times (the first circulation is
// warmup: it absorbs connection setup). The token is a monotonically
// increasing counter; hop k lands value k at node k % n. Node i forwards
// value v by writing v + 1 into the next node's flag slot.
bench::Row run_workload(const Workload& w) {
  const int n = w.nodes;
  const int total_rounds = w.rounds + 1;  // + warmup circulation
  ClusterConfig ccfg = config_1l_1g(n);
  Cluster cluster(ccfg);

  // Symmetric layout: one 8-byte flag slot + one 8-byte send scratch per node.
  const std::uint64_t flag = cluster.memory(0).alloc(8);
  const std::uint64_t scratch = cluster.memory(0).alloc(8);
  for (int i = 1; i < n; ++i) {
    if (cluster.memory(i).alloc(8) != flag ||
        cluster.memory(i).alloc(8) != scratch) {
      std::cerr << "asymmetric layout\n";
      std::exit(1);
    }
  }

  sim::Time t0 = 0, t1 = 0;
  for (int i = 0; i < n; ++i) {
    cluster.spawn(i, "ring" + std::to_string(i), [&, i](Endpoint& ep) {
      rma::Window win(ep, {.tag = kTag});  // urgent + fenced defaults
      auto raw = (w.mode == Mode::kPoll) ? ep.connect((i + 1) % n)
                                         : Connection{};
      auto forward = [&](std::uint64_t value) {
        *ep.memory().as<std::uint64_t>(scratch) = value;
        if (w.mode == Mode::kNotify) {
          win.put_notify((i + 1) % n, flag, scratch, 8);
        } else {
          raw.rdma_write(flag, scratch, 8, kOpFlagNone);
        }
      };
      // Node i receives token values congruent to i (mod n); node 0's first
      // receipt is value n (it injects value 1 itself).
      std::uint64_t next = (i == 0) ? static_cast<std::uint64_t>(n)
                                    : static_cast<std::uint64_t>(i);
      const std::uint64_t last =
          next + static_cast<std::uint64_t>(n) * (total_rounds - 1);
      if (i == 0) forward(1);
      for (; next <= last; next += n) {
        if (w.mode == Mode::kNotify) {
          (void)win.wait_notify((i + n - 1) % n, flag);
        } else {
          while (*ep.memory().as<std::uint64_t>(flag) < next) {
            sim::Process::current()->delay(kPollInterval);
          }
        }
        // Warmup circulation done: node 0 starts the measured section the
        // moment its first token lands.
        if (i == 0 && next == static_cast<std::uint64_t>(n)) {
          t0 = cluster.sim().now();
        }
        if (next != last || i != 0) forward(next + 1);
      }
      if (i == 0) t1 = cluster.sim().now();
    });
  }
  cluster.run();

  stats::Counters all;
  bench::merge_engine_counters(cluster, n, all);

  bench::Row r{w.name};
  r.fields.add("rounds", w.rounds)
      .add("per_hop_us",
           sim::to_us(t1 - t0) / (static_cast<double>(w.rounds) * n))
      .add("frames", all.get("data_frames_sent") + all.get("ack_frames_sent"));
  r.fingerprint = bench::counters_fingerprint(all);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_rma.json");

  std::cout << "== rma_bench: notified access vs flag polling (simulated) ==\n"
            << "token forwarding around a ring; per-hop = simulated latency "
               "from write issue to downstream discovery\n\n";

  bench::Report report;
  const int rounds = args.quick ? 40 : 120;
  for (int n : {2, 4, 8}) {
    for (Mode m : {Mode::kPoll, Mode::kNotify}) {
      report.rows.push_back(run_workload({wl_name(m, n), m, n, rounds}));
    }
  }
  return bench::finish(
      args, "rma", report,
      {{"notified wait beats 1us flag-polling at 8 nodes",
        wl_name(Mode::kPoll, 8), wl_name(Mode::kNotify, 8), "per_hop_us",
        bench::Cmp::kGe, 1.3}});
}
