// perfbench: one benchmark on both clocks.
//
//   perfbench --workload <stream|kv-read|kv-write|dsm-radix> --seed <n>
//             --seconds <s> --trace <0|1> [--check-harness]
//
// Repeats the workload on a fresh cluster until --seconds of host time are
// spent, at least once per sub-seed. Repetition i simulates sub-seed
// i % kSubSeeds of the seed, and a later repetition of a sub-seed must
// reproduce the first one's per-layer fingerprints exactly. The simulated
// metrics pool the sub-seeds and are exact for a seed; wall_s is the
// fastest repetition and setup_s the median one. With --trace 1 half the
// budget runs untraced and half reruns sub-seed 0 with the trace recorder
// on: the traced repetitions give the span-derived per-layer numbers, must
// reproduce the untraced fingerprints, and price the recorder.
//
// --check-harness (dsm-radix) also runs Radix through apps::run_app and
// requires the same parallel time, retransmissions and checksum.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
// The line before it starts with "detail " and carries the per-layer
// fingerprints and the simulated metrics, for the self-test.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Rep (*run)(const RepOptions&);
};

constexpr Workload kWorkloads[] = {
    {"stream", run_stream},
    {"kv-read", run_kv_read},
    {"kv-write", run_kv_write},
    {"dsm-radix", run_dsm_radix},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) { return percentile(v, 0.5); }

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Sum over the per-node keys "<prefix>.n<i>".
double over_nodes(const Snap& s, const std::string& prefix) {
  double acc = 0;
  for (auto it = s.lower_bound(prefix + ".n"); it != s.end(); ++it) {
    if (it->first.rfind(prefix + ".n", 0) != 0) break;
    acc += it->second;
  }
  return acc;
}

int node_count(const Snap& s) {
  int n = 0;
  for (const auto& [k, v] : s) n += k.rfind("core.app_busy_ps.n", 0) == 0;
  return std::max(n, 1);
}

/// Distinct inputs per run: repetition i simulates sub-seed i % kSubSeeds
/// of the run's seed, and the simulated metrics pool the first kSubSeeds
/// repetitions, which every run makes anyway. Three inputs per run triple
/// the latency samples behind a percentile at no extra host time.
constexpr std::size_t kSubSeeds = 3;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t rep) {
  return seed * kSubSeeds + rep % kSubSeeds;
}

/// The simulated results of the first kSubSeeds repetitions, pooled.
struct Pooled {
  double sim_ms = 0;
  double payload_bytes = 0;
  double ops = 0;
  std::vector<double> lat;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

Pooled pool(const std::vector<Rep>& reps) {
  Pooled p;
  for (std::size_t i = 0; i < kSubSeeds && i < reps.size(); ++i) {
    const Rep& r = reps[i];
    p.sim_ms += r.sim_ms;
    p.payload_bytes += r.payload_bytes;
    p.ops += r.ops;
    p.lat.insert(p.lat.end(), r.lat_us.begin(), r.lat_us.end());
    p.attempted += r.attempted;
    p.failed += r.failed;
    p.failures.insert(p.failures.end(), r.failures.begin(), r.failures.end());
  }
  return p;
}

/// Host seconds of one window: the fastest repetition (of sub-seed `sub`,
/// or of any when sub < 0). The work is fixed and deterministic, and on a
/// shared host the slower repetitions measure the other tenants: the 4-core
/// machine the bounds were set on alternates fast and slow phases of 2 to
/// 40 s, with windows 1.3-1.7x slower in the slow ones.
double best_wall(const std::vector<Rep>& reps, int sub = -1) {
  double best = kInf;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (sub < 0 || i % kSubSeeds == static_cast<std::size_t>(sub)) {
      best = std::min(best, reps[i].wall_s);
    }
  }
  return best;
}

std::vector<Metric> end_to_end(const Pooled& p, const std::vector<Rep>& reps) {
  std::vector<double> setups, lat = p.lat;
  for (const Rep& x : reps) setups.push_back(x.cluster_s + x.warm_s);
  return {
      {"sim_mbps", ratio(p.payload_bytes / 1e6, p.sim_ms / 1e3), "MB/s"},
      {"sim_kops", ratio(p.ops, p.sim_ms), "Kops/s"},
      {"lat_p50_us", percentile(lat, 0.50), "us"},
      {"lat_p99_us", percentile(lat, 0.99), "us"},
      {"sim_ms", p.sim_ms / kSubSeeds, "ms"},
      {"wall_s", best_wall(reps), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Rep& r, const std::vector<Rep>& plain,
                              const std::vector<Rep>& traced,
                              double fail_frac) {
  const Snap& w = r.window;
  const Snap& t = r.total;
  auto W = [&](const char* k) { return get(w, k); };
  auto T = [&](const char* k) { return get(t, k); };
  std::vector<double> cl, warm;
  for (const Rep& x : plain) {
    cl.push_back(x.cluster_s);
    warm.push_back(x.warm_s);
  }
  const double wall = best_wall(plain, 0);  // the sub-seed r and traced ran
  const double traced_wall = best_wall(traced);
  const Rep& tr = traced.front();
  auto F = [&](const char* k) {
    const auto it = tr.fold.metrics.find(k);
    return it == tr.fold.metrics.end() ? 0.0 : it->second;
  };
  auto L = [&](const char* k) {
    const auto it = r.layer.find(k);
    return it == r.layer.end() ? 0.0 : it->second;
  };

  const int nodes = node_count(w);
  const double window_ps = r.sim_ms * 1e9;
  const double frames = W("net.nic_tx_frames");
  const double events = W("sim.events");
  double rail_max = 0, rail_sum = 0;
  int rails = 0;
  for (const auto& [k, v] : w) {
    if (k.rfind("net.rail", 0) == 0) {
      rail_max = std::max(rail_max, v);
      rail_sum += v;
      ++rails;
    }
  }
  double cpu_max = 0;
  for (int n = 0; n < nodes; ++n) {
    const std::string id = ".n" + std::to_string(n);
    cpu_max = std::max(cpu_max, ratio(get(w, "proto.cpu_busy_ps" + id) +
                                          get(w, "core.app_proto_ps" + id),
                                      window_ps));
  }
  const double svc_ops = T("svc.svc_ops_submitted");
  const double run_s = T("sim.now_ps") / 1e12;
  const double per_node_ms = 1e9 * nodes;  // ps -> ms, mean over nodes

  return {
      {"sim.events", events, "count"},
      {"sim.events_per_frame", ratio(events, frames), "ratio"},
      {"sim.events_per_op", ratio(events, r.ops), "ratio"},
      {"sim.wall_ns_per_event", ratio(wall * 1e9, events), "ns"},
      {"net.wire_frames", frames, "count"},
      {"net.wire_bytes_per_payload_byte",
       ratio(W("net.wire_bytes"), W("proto.data_bytes_sent")), "ratio"},
      {"net.rail_imbalance", ratio(rail_max, rail_sum / std::max(rails, 1)),
       "ratio"},
      {"net.irq_per_frame",
       ratio(W("net.interrupts"), frames + W("net.nic_rx_frames")), "ratio"},
      {"net.switch_drops", W("net.switch_drops"), "count"},
      {"net.nic_ring_drops", W("net.nic_ring_drops"), "count"},
      {"net.tx_queue_p99", F("net.tx_queue_p99"), "frames"},
      {"proto.data_frames", W("proto.data_frames_sent"), "count"},
      {"proto.acks_per_data",
       ratio(W("proto.ack_frames_sent"), W("proto.data_frames_sent")), "ratio"},
      {"proto.retx_frac",
       ratio(W("proto.retransmissions"), W("proto.data_frames_sent")), "ratio"},
      {"proto.ooo_frac",
       ratio(W("proto.ooo_frames_rcvd"), W("proto.data_frames_rcvd")), "ratio"},
      {"proto.window_stalls", W("proto.window_stalls"), "count"},
      {"proto.cpu_util", cpu_max, "ratio"},
      {"proto.thread_events_per_wakeup",
       ratio(W("proto.thread_events"), W("proto.thread_wakeups")), "ratio"},
      {"proto.op_us_p50", F("proto.op_us_p50"), "us"},
      {"proto.op_us_p99", F("proto.op_us_p99"), "us"},
      {"proto.recv_us_p99", F("proto.recv_us_p99"), "us"},
      {"core.app_proto_us_per_op",
       ratio(over_nodes(w, "core.app_proto_ps") / 1e6, r.ops), "us"},
      {"core.app_cpu_util",
       ratio(over_nodes(w, "core.app_busy_ps"), window_ps * nodes),
       "ratio"},
      {"bench.call_us_p50", F("bench.call_us_p50"), "us"},
      {"bench.call_us_p99", F("bench.call_us_p99"), "us"},
      {"rma.ops", F("rma.ops"), "count"},
      {"rma.op_us_p50", F("rma.op_us_p50"), "us"},
      {"rma.op_us_p99", F("rma.op_us_p99"), "us"},
      {"kv.get_p50_us", L("kv.get_p50_us"), "us"},
      {"kv.get_p99_us", L("kv.get_p99_us"), "us"},
      {"kv.put_p50_us", L("kv.put_p50_us"), "us"},
      {"kv.put_p99_us", L("kv.put_p99_us"), "us"},
      {"kv.get_retry_frac", ratio(T("kv.kv_get_retries"), T("kv.kv_gets")),
       "ratio"},
      {"kv.rpc_retry_frac", ratio(T("kv.kv_rpc_retries"), T("kv.kv_rpc_sent")),
       "ratio"},
      {"kv.handler_us_p50", F("kv.handler_us_p50"), "us"},
      {"kv.repl_us_p50", F("kv.repl_us_p50"), "us"},
      {"kv.repl_us_p99", F("kv.repl_us_p99"), "us"},
      {"kv.client_self_us_p50", F("kv.client_self_us_p50"), "us"},
      {"svc.rejected_frac",
       ratio(T("svc.svc_rejected_peer_queue") +
                 T("svc.svc_rejected_tenant_queue") +
                 T("svc.svc_rejected_at_stop"),
             svc_ops),
       "ratio"},
      {"svc.queued_frac", ratio(T("svc.svc_dispatched_queued"), svc_ops),
       "ratio"},
      {"svc.credit_stalls_per_op", ratio(T("svc.svc_credit_stalls"), svc_ops),
       "ratio"},
      {"svc.op_us_p99", F("svc.op_us_p99"), "us"},
      {"svc.conns", T("svc.svc_conns_opened"), "count"},
      {"member.msgs_per_node_s",
       ratio(T("member.member_msgs_sent"), nodes * run_s), "1/s"},
      {"member.suspects", T("member.member_suspects"), "count"},
      {"member.dead_marks", T("member.member_dead_marks"), "count"},
      {"dsm.data_wait_ms", over_nodes(w, "dsm.data_wait_ps") / per_node_ms,
       "ms"},
      {"dsm.barrier_wait_ms", W("dsm.barrier_wait_ps") / per_node_ms, "ms"},
      {"dsm.lock_wait_ms", W("dsm.lock_wait_ps") / per_node_ms, "ms"},
      {"dsm.overhead_ms", W("dsm.overhead_ps") / per_node_ms, "ms"},
      {"apps.compute_ms", W("dsm.compute_ps") / per_node_ms, "ms"},
      {"setup.cluster_s", median(cl), "s"},
      {"setup.warm_s", median(warm), "s"},
      {"trace.overhead_frac", ratio(traced_wall, wall) - 1.0,
       "ratio"},
      {"trace.events_lost", static_cast<double>(tr.trace_lost), "count"},
      {"trace.events", static_cast<double>(tr.trace_events), "count"},
      {"trace.spans", static_cast<double>(tr.fold.spans), "count"},
      {"fail_frac", fail_frac, "ratio"},
  };
}

std::string fingerprint_json(const Snap& s) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [layer, fp] : fingerprints(s)) {
    os << (first ? "" : ", ") << '"' << layer << "\": \"" << bench::hex(fp)
       << '"';
    first = false;
  }
  os << '}';
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // JSON has no infinity: a p99 set by failed ops prints as the largest
    // double instead.
    const double v = std::isfinite(ms[i].value)
                         ? ms[i].value
                         : std::numeric_limits<double>::max();
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": " << num
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("== %s ==\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

/// The traced snapshot minus the samplers' own timer events, so it can be
/// compared with an untraced one.
Snap without_samplers(const Rep& r) {
  Snap s = r.total;
  s["sim.events"] -= static_cast<double>(r.sampler_ticks);
  return s;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<stream|kv-read|kv-write|dsm-radix> --seed <n> --seconds <s> "
               "--trace <0|1> [--check-harness]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace_flag = 0;
  bool check_harness = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--check-harness") {
      check_harness = true;
    } else if (v == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      name = v, ++i;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      seconds = std::atof(v), ++i;
    } else if (a == "--trace") {
      trace_flag = std::atoi(v), ++i;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) return usage(("unknown workload '" + name + "'").c_str());
  if (seconds <= 0 || (trace_flag != 0 && trace_flag != 1)) {
    return usage("--seconds must be > 0 and --trace 0 or 1");
  }
  const bool traced = trace_flag == 1;

  // Untraced repetitions: the whole budget, or half of it with --trace 1.
  const double plain_budget = traced ? seconds / 2 : seconds;
  std::vector<Rep> plain;
  const auto t0 = Clock::now();
  while (plain.size() < kSubSeeds ||
         seconds_between(t0, Clock::now()) < plain_budget) {
    plain.push_back(wl->run({sub_seed(seed, plain.size()), false, 0}));
  }
  const Rep& r = plain.front();
  Pooled p = pool(plain);
  auto check_failed = [&](const std::string& why) {
    ++p.failed;
    p.failures.push_back(why);
  };
  // A repetition must simulate exactly what the first one of its sub-seed
  // did.
  for (std::size_t i = kSubSeeds; i < plain.size(); ++i) {
    const Rep& first = plain[i % kSubSeeds];
    if (report_mismatch(first.total, plain[i].total,
                        "repetition " + std::to_string(i)) != 0 ||
        plain[i].lat_us != first.lat_us || plain[i].sim_ms != first.sim_ms) {
      check_failed("repetition " + std::to_string(i) + " is not deterministic");
    }
  }

  std::vector<Rep> traced_reps;
  if (traced) {
    // Traced repetitions rerun sub-seed 0 with a ring large enough to lose
    // nothing: every workload records fewer trace events than the
    // simulator executes (0.1 to 0.75 per event).
    const auto cap = static_cast<std::size_t>(get(r.total, "sim.events")) +
                     (std::size_t{1} << 20);
    const auto t1 = Clock::now();
    while (traced_reps.empty() ||
           seconds_between(t1, Clock::now()) < seconds - plain_budget) {
      traced_reps.push_back(wl->run({sub_seed(seed, 0), true, cap}));
    }
    for (std::size_t i = 0; i < traced_reps.size(); ++i) {
      const Rep& t = traced_reps[i];
      if (report_mismatch(r.total, without_samplers(t),
                          "traced repetition " + std::to_string(i)) != 0 ||
          t.sim_ms != r.sim_ms || t.lat_us != r.lat_us) {
        check_failed("traced repetition " + std::to_string(i) +
                     " does not reproduce the untraced run");
      }
      if (t.trace_lost != 0) {
        check_failed("trace ring lost " + std::to_string(t.trace_lost) +
                     " events");
      }
    }
  }

  if (check_harness && std::strcmp(wl->name, "dsm-radix") == 0) {
    // The mirrored harness must reproduce apps::run_app exactly.
    const AppCheck a = run_radix_via_harness(sub_seed(seed, 0));
    const double retx = get(r.window, "proto.retransmissions");
    std::printf("harness check: apps::run_app parallel_ms %.9g (here %.9g), "
                "retransmissions %llu (here %.0f), checksum %s\n",
                a.parallel_ms, r.sim_ms,
                static_cast<unsigned long long>(a.retransmissions), retx,
                a.checksum_ok ? "ok" : "wrong");
    if (a.parallel_ms != r.sim_ms || !a.checksum_ok ||
        static_cast<double>(a.retransmissions) != retx) {
      check_failed("dsm-radix does not reproduce apps::run_app");
    }
  }

  const std::vector<Metric> e2e = end_to_end(p, plain);
  std::printf("perfbench %s seed=%llu reps=%zu traced_reps=%zu\n", wl->name,
              static_cast<unsigned long long>(seed), plain.size(),
              traced_reps.size());
  std::printf("latency samples: %zu over %zu sub-seeds (p99 counts failed "
              "and shed ops as infinitely late)\n",
              p.lat.size(), kSubSeeds);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::printf("rep %zu: sub-seed %zu setup %.4f s wall %.4f s\n", i,
                i % kSubSeeds, plain[i].cluster_s + plain[i].warm_s,
                plain[i].wall_s);
  }
  print_table("end to end", e2e);
  std::vector<Metric> layers;
  if (traced) {
    layers = per_layer(r, plain, traced_reps,
                       ratio(static_cast<double>(p.failed),
                             static_cast<double>(p.attempted)));
    print_table("per layer (sub-seed 0)", layers);
  }
  for (const auto& [layer, fp] : fingerprints(r.total)) {
    std::printf("fingerprint %-7s %s\n", layer.c_str(), bench::hex(fp).c_str());
  }
  for (const std::string& f : p.failures) std::printf("FAIL: %s\n", f.c_str());

  // Simulated metrics only: exact for a seed, compared by the self-test.
  std::vector<Metric> sim_only;
  for (const Metric& m : e2e) {
    if (m.name.rfind("sim_", 0) == 0 || m.name.rfind("lat_", 0) == 0) {
      sim_only.push_back(m);
    }
  }
  std::printf("detail {\"workload\": \"%s\", \"seed\": %llu, \"fingerprints\": "
              "%s, \"sim\": %s}\n",
              wl->name, static_cast<unsigned long long>(seed),
              fingerprint_json(r.total).c_str(), metrics_json(sim_only).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              p.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.failed),
              metrics_json(traced ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}
