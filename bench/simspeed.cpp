// Simulator self-throughput benchmark: how fast the *host* executes the
// simulation, independent of simulated time. This is the perf trajectory
// tracker for the hot path (frame pool, window rings, event queue): it runs
// the fig2 micro-benchmark workloads and reports wall-clock frames/sec and
// events/sec, plus an FNV-1a fingerprint of the protocol counters so a
// speedup can be shown to come with bit-identical protocol behavior.
//
// Usage: simspeed [--quick] [--repeat=N] [--json[=path]] [--check=<baseline>]
// (see bench_common.hpp). --check also fails if total throughput regressed
// by more than 20% against the baseline, or if any workload executed a
// different number of simulator events than the baseline (CI smoke stage;
// see scripts/ci.sh). Throughput is gated as frames per calibration op: the
// frames/sec of the workloads over the ops/sec of a fixed heap loop timed in
// the same process, so the gate compares the simulator with the host it ran
// on rather than with the host that recorded the baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"

namespace {

using namespace multiedge;

struct Workload {
  std::string name;
  ClusterConfig cfg;
  bool two_way = false;
  std::size_t msg_bytes = 64 * 1024;
  int messages = 256;
};

std::vector<Workload> workloads(bool quick) {
  const int msgs = quick ? 48 : 256;
  ClusterConfig lossy = config_2l_1g(2);
  lossy.topology.link.drop_prob = 0.01;
  lossy.protocol.window_frames = 16;
  // Small-op pair: identical bursts of 64-byte writes with submission
  // batching + selective signaling off vs on. The uplift gate (see
  // kMinSmallOpSpeedup) is on SIMULATED completion time — host costs per op
  // drop — so it is exact and deterministic, not wall-clock noise.
  const int small_ops = quick ? 600 : 4000;
  ClusterConfig batched = config_1l_1g(2);
  batched.protocol.batch_submission = true;
  batched.protocol.submit_ring_slots = 16;
  batched.protocol.signal_interval = 32;
  return {
      {"oneway-1L-1G", config_1l_1g(2), false, 64 * 1024, msgs},
      {"twoway-2Lu-1G", config_2lu_1g(2), true, 64 * 1024, msgs},
      {"retx-2L-1G-drop1", lossy, false, 64 * 1024, msgs},
      {"smallop-unbatched", config_1l_1g(2), false, 64, small_ops},
      {"smallop-batched", batched, false, 64, small_ops},
  };
}

// Gate for the smallop-batched vs smallop-unbatched simulated-time speedup
// (enforced on every run).
constexpr double kMinSmallOpSpeedup = 1.3;

double per_sec(std::uint64_t n, double wall_ms) {
  return wall_ms > 0 ? static_cast<double>(n) / (wall_ms / 1000.0) : 0.0;
}

// The host-speed yardstick: a binary min-heap of 24-byte (time, seq, slot)
// entries kept at 1024, popped and pushed kCalibrationOps times with times
// from a fixed LCG, which is the shape of the simulator's event queue
// without any of its code. Its wall time in ms.
constexpr std::uint64_t kCalibrationOps = 1'000'000;

double calibration_wall_ms() {
  struct Entry {
    std::int64_t t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  };
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>(lcg >> 44);
  };
  std::vector<Entry> heap;
  heap.reserve(1024);
  std::uint64_t seq = 0;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    heap.push_back({next(), seq++, i});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalibrationOps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Entry e = heap.back();
    sink += e.slot;
    e.t += next();
    e.seq = seq++;
    heap.back() = e;
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 42) std::cout << "";  // keeps the loop's work observable
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// One run of `w` on a fresh cluster. The whole run is timed (setup and
// handshake included; both are negligible against `messages` transfers).
bench::Row run_once(const Workload& w) {
  {
    Cluster cluster(w.cfg);
    const auto size = static_cast<std::uint32_t>(w.msg_bytes);
    const std::uint64_t src0 = cluster.memory(0).alloc(w.msg_bytes);
    const std::uint64_t dst0 = cluster.memory(0).alloc(w.msg_bytes);
    const std::uint64_t src1 = cluster.memory(1).alloc(w.msg_bytes);
    const std::uint64_t dst1 = cluster.memory(1).alloc(w.msg_bytes);

    // Ordering guard for the last op's completion notification (same trick
    // as run_micro): in out-of-order mode it must not overtake earlier ops.
    const auto last_flags = static_cast<std::uint16_t>(
        kOpFlagNotify | (w.cfg.protocol.in_order_delivery
                             ? kOpFlagNone
                             : kOpFlagBackwardFence));

    const auto none = static_cast<std::uint16_t>(kOpFlagNone);
    cluster.spawn(0, "fwd", [&](Endpoint& ep) {
      Connection c = ep.connect(1);
      for (int i = 0; i < w.messages; ++i) {
        c.rdma_write(dst1, src0, size, i + 1 == w.messages ? last_flags : none);
      }
      // Under batching the tail of the burst (final notify included) may be
      // parked in the submission ring; ring the doorbell before the fiber
      // exits rather than relying on the protocol thread's idle sweep.
      if (w.cfg.protocol.batch_submission) ep.flush();
    });
    cluster.spawn(1, "rcv", [&](Endpoint& ep) {
      Connection c = ep.accept(0);
      if (w.two_way) {
        for (int i = 0; i < w.messages; ++i) {
          c.rdma_write(dst0, src1, size,
                       i + 1 == w.messages ? last_flags : none);
        }
      }
      ep.wait_notification();
    });
    if (w.two_way) {
      cluster.spawn(0, "fin", [&](Endpoint& ep) { ep.wait_notification(); });
    }

    const auto t0 = std::chrono::steady_clock::now();
    cluster.run();
    const auto t1 = std::chrono::steady_clock::now();

    stats::Counters all = cluster.engine(0).aggregate_counters();
    all.merge(cluster.engine(1).aggregate_counters());
    const std::uint64_t frames =
        all.get("data_frames_sent") + all.get("ack_frames_sent");
    const std::uint64_t events = cluster.sim().events_executed();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    bench::Row r{w.name};
    r.fields.add("frames", frames)
        .add("events", events)
        .add("wall_ms", wall_ms)
        .add("sim_ms", sim::to_us(cluster.sim().now()) / 1000.0)
        .add("frames_per_sec", per_sec(frames, wall_ms))
        .add("events_per_sec", per_sec(events, wall_ms));
    r.fingerprint = bench::counters_fingerprint(all);
    return r;
  }
}

// Keep the faster of two runs of the same workload; frames and the
// fingerprint must not vary across runs (same seed).
void keep_best(bench::Row& best, bench::Row r) {
  if (best.name.empty()) {
    best = std::move(r);
    return;
  }
  if (r.metric("frames") != best.metric("frames") ||
      r.fingerprint != best.fingerprint) {
    std::cerr << "ERROR: workload " << r.name
              << " is not deterministic across repeats\n";
    std::exit(2);
  }
  if (*r.metric("wall_ms") < *best.metric("wall_ms")) best = std::move(r);
}

// `repeat` runs of `w`, reporting the one with the best wall time.
bench::Row run_workload(const Workload& w, int repeat) {
  bench::Row best;
  for (int rep = 0; rep < repeat; ++rep) keep_best(best, run_once(w));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_simspeed.json",
                                             /*default_repeat=*/9);

  std::cout << "== simspeed: simulator self-throughput (wall-clock) ==\n"
            << "frames = data+ack frames on the wire; events = simulator "
               "events executed; best of " << args.repeat << " runs\n\n";

  // Each round times the calibration loop, then runs every workload once.
  // A round's throughput over its own calibration shares the host's state
  // of the moment; the gate takes the median round.
  bench::Report report;
  const std::vector<Workload> ws = workloads(args.quick);
  report.rows.resize(ws.size());
  std::vector<double> per_calib_op;
  std::vector<double> calib_ms;
  for (int rep = 0; rep < args.repeat; ++rep) {
    calib_ms.push_back(calibration_wall_ms());
    std::uint64_t round_frames = 0;
    double round_ms = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      bench::Row r = run_once(ws[i]);
      round_frames += static_cast<std::uint64_t>(*r.metric("frames"));
      round_ms += *r.metric("wall_ms");
      keep_best(report.rows[i], std::move(r));
    }
    per_calib_op.push_back(per_sec(round_frames, round_ms) /
                           per_sec(kCalibrationOps, calib_ms.back()));
  }
  std::uint64_t frames = 0, events = 0;
  double wall_ms = 0;
  for (const bench::Row& r : report.rows) {
    frames += static_cast<std::uint64_t>(*r.metric("frames"));
    events += static_cast<std::uint64_t>(*r.metric("events"));
    wall_ms += *r.metric("wall_ms");
  }

  // --- trace overhead: the recorder must be a pure observer ---------------
  // Rerun the first workload with the flight recorder and with full tracing
  // enabled. Wall-clock cost is reported; the protocol counter fingerprint
  // must be bit-identical to the trace-off run — recording may never perturb
  // simulated behavior.
  const Workload base_w = workloads(args.quick)[0];
  Workload flight_w = base_w;
  flight_w.cfg.trace.flight_recorder = true;
  Workload full_w = base_w;
  full_w.cfg.trace.enabled = true;
  const bench::Row& off = report.rows[0];
  const bench::Row flight = run_workload(flight_w, args.repeat);
  const bench::Row full = run_workload(full_w, args.repeat);
  if (flight.fingerprint != off.fingerprint ||
      full.fingerprint != off.fingerprint) {
    std::cerr << "ERROR: tracing perturbed protocol counters (" << base_w.name
              << "): off=" << bench::hex(off.fingerprint)
              << " flight=" << bench::hex(flight.fingerprint)
              << " full=" << bench::hex(full.fingerprint) << '\n';
    return 2;
  }
  const double off_ms = *off.metric("wall_ms");
  auto overhead_pct = [&](const bench::Row& r) {
    return off_ms > 0 ? (*r.metric("wall_ms") - off_ms) / off_ms * 100.0 : 0.0;
  };
  report.summary("trace_overhead")
      .add("workload", base_w.name)
      .add("off_wall_ms", off_ms)
      .add("flight_wall_ms", *flight.metric("wall_ms"))
      .add("full_wall_ms", *full.metric("wall_ms"))
      .add("flight_overhead_pct", overhead_pct(flight))
      .add("full_overhead_pct", overhead_pct(full))
      .add("counters_identical", true);

  // --- small-op batching uplift (simulated time, deterministic) -----------
  const double unbatched_ms =
      report.metric("smallop-unbatched", "sim_ms").value_or(0);
  const double batched_ms =
      report.metric("smallop-batched", "sim_ms").value_or(0);
  report.summary("small_op")
      .add("unbatched", "smallop-unbatched")
      .add("batched", "smallop-batched")
      .add("sim_ms_unbatched", unbatched_ms)
      .add("sim_ms_batched", batched_ms)
      .add("sim_speedup", batched_ms > 0 ? unbatched_ms / batched_ms : 0.0)
      .add("min_speedup", kMinSmallOpSpeedup);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  const double calib_median_ms = median(calib_ms);
  report.summary("calibration")
      .add("ops", kCalibrationOps)
      .add("wall_ms", calib_median_ms)
      .add("ops_per_sec", per_sec(kCalibrationOps, calib_median_ms));
  report.summary("total")
      .add("frames", frames)
      .add("events", events)
      .add("wall_ms", wall_ms)
      .add("frames_per_sec", per_sec(frames, wall_ms))
      .add("events_per_sec", per_sec(events, wall_ms))
      .add("frames_per_calib_op", median(per_calib_op));

  // Counter fingerprints and event counts are exact (deterministic
  // simulation): an extra event per frame moves no counter but fails the
  // events gate. Host-normalized throughput gets a 20% noise allowance.
  return bench::finish(
      args, "simspeed", report,
      {{"total frames per calibration op within 20% of the baseline", "total",
        bench::kBaseline, "frames_per_calib_op", bench::Cmp::kGe, 0.8},
       {"simulator events exactly as in the baseline", "", bench::kBaseline,
        "events", bench::Cmp::kEq, 1.0},
       {"small-op batching speedup (simulated time)", "smallop-unbatched",
        "smallop-batched", "sim_ms", bench::Cmp::kGe, kMinSmallOpSpeedup}});
}
