#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "dsm/dsm.hpp"
#include "kv/kv.hpp"

namespace perfbench {
namespace {

void put_counters(Snap& s, const char* layer, const stats::Counters& c) {
  for (const auto& [name, value] : c.all()) {
    s[std::string(layer) + "." + name] += static_cast<double>(value);
  }
}

double ps(sim::Time t) { return static_cast<double>(t); }

std::string layer_of(const std::string& key) {
  return key.substr(0, key.find('.'));
}

}  // namespace

Snap snapshot(Cluster& cluster, const Upper& upper) {
  Snap s;
  s["sim.events"] = static_cast<double>(cluster.sim().events_executed());
  s["sim.now_ps"] = ps(cluster.sim().now());

  net::Network& net = cluster.network();
  for (int n = 0; n < net.num_nodes(); ++n) {
    for (int r = 0; r < net.rails(); ++r) {
      const auto& nic = net.nic(n, r).stats();
      s["net.nic_tx_frames"] += static_cast<double>(nic.tx_frames);
      s["net.nic_rx_frames"] += static_cast<double>(nic.rx_frames);
      s["net.interrupts"] += static_cast<double>(nic.interrupts);
      s["net.nic_ring_drops"] += static_cast<double>(nic.rx_ring_drops);
      s["net.nic_fcs_drops"] += static_cast<double>(nic.rx_fcs_drops);
      const auto& up = net.uplink(n, r).stats();
      s["net.rail" + std::to_string(r) + "_frames"] +=
          static_cast<double>(up.frames_sent);
      s["net.wire_bytes"] += static_cast<double>(up.bytes_sent);
      s["net.link_drops"] += static_cast<double>(
          up.frames_dropped + net.downlink(n, r).stats().frames_dropped);
    }
  }
  for (int r = 0; r < net.rails(); ++r) {
    const auto& sw = net.rail_switch(r).stats();
    s["net.switch_forwarded"] += static_cast<double>(sw.forwarded);
    s["net.switch_drops"] += static_cast<double>(sw.tail_drops + sw.fcs_drops);
  }

  for (int n = 0; n < cluster.num_nodes(); ++n) {
    put_counters(s, "proto", cluster.engine(n).aggregate_counters());
    const std::string id = ".n" + std::to_string(n);
    s["core.app_busy_ps" + id] = ps(cluster.app_cpu(n).busy_time());
    s["core.app_proto_ps" + id] =
        ps(cluster.endpoint(n).protocol_time_on_app_cpu());
    s["proto.cpu_busy_ps" + id] = ps(cluster.proto_cpu(n).busy_time());
  }

  if (upper.kv != nullptr) {
    for (const auto& [name, value] : upper.kv->aggregate_counters().all()) {
      const bool svc = name.rfind("svc_", 0) == 0;
      s[(svc ? "svc." : "kv.") + name] += static_cast<double>(value);
    }
    member::Service& m = upper.kv->membership();
    put_counters(s, "member", m.aggregate_counters());
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      s["member.views_down"] += m.view(n).num_down();
    }
  }

  if (upper.dsm != nullptr) {
    for (int n = 0; n < upper.dsm->num_nodes(); ++n) {
      const dsm::DsmNodeStats& d = upper.dsm->node_stats(n);
      const std::string id = ".n" + std::to_string(n);
      s["dsm.compute_ps"] += ps(d.compute);
      s["dsm.data_wait_ps" + id] = ps(d.data_wait);
      s["dsm.pages_fetched" + id] = static_cast<double>(d.pages_fetched);
      s["dsm.lock_wait_ps"] += ps(d.lock_wait);
      s["dsm.barrier_wait_ps"] += ps(d.barrier_wait);
      s["dsm.overhead_ps"] += ps(d.overhead);
      s["dsm.read_faults"] += static_cast<double>(d.read_faults);
      s["dsm.write_faults"] += static_cast<double>(d.write_faults);
      s["dsm.twins_created"] += static_cast<double>(d.twins_created);
      s["dsm.diffs_flushed"] += static_cast<double>(d.diffs_flushed);
      s["dsm.diff_bytes"] += static_cast<double>(d.diff_bytes);
      s["dsm.barriers"] += static_cast<double>(d.barriers);
      s["dsm.invalidations"] += static_cast<double>(d.invalidations);
      s["dsm.messages"] += static_cast<double>(d.messages);
    }
  }
  return s;
}

Snap diff(const Snap& b, const Snap& a) {
  Snap d = b;
  for (const auto& [k, v] : a) d[k] -= v;
  return d;
}

std::map<std::string, std::uint64_t> fingerprints(const Snap& s) {
  std::map<std::string, std::uint64_t> fp;
  char buf[64];
  for (const auto& [k, v] : s) {
    auto [it, fresh] = fp.try_emplace(layer_of(k), 1469598103934665603ull);
    std::snprintf(buf, sizeof(buf), "=%.0f\n", v);
    it->second = bench::fnv1a(bench::fnv1a(it->second, k), buf);
  }
  return fp;
}

int report_mismatch(const Snap& a, const Snap& b, const std::string& what) {
  std::map<std::string, std::vector<std::string>> moved;
  Snap keys = a;
  keys.insert(b.begin(), b.end());
  for (const auto& [k, unused] : keys) {
    const double va = get(a, k), vb = get(b, k);
    if (va != vb) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s: %.0f -> %.0f", k.c_str(), va, vb);
      moved[layer_of(k)].push_back(line);
    }
  }
  for (const auto& [layer, lines] : moved) {
    std::cout << "MISMATCH " << what << " layer " << layer << " ("
              << lines.size() << " counters)\n";
    for (std::size_t i = 0; i < lines.size() && i < 12; ++i) {
      std::cout << "  " << lines[i] << '\n';
    }
  }
  return static_cast<int>(moved.size());
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

TraceFold fold_trace(const std::vector<trace::Event>& events,
                     const std::vector<std::unique_ptr<trace::TimeSeries>>& series,
                     const std::vector<Span>& bench_spans) {
  using trace::EventType;
  std::map<EventType, std::vector<double>> dur_us;
  // trace id -> (node, start, end) of the proto/svc spans under a kv op.
  std::map<std::uint64_t, std::vector<const trace::Event*>> children;
  std::vector<const trace::Event*> kv_ops;
  std::uint64_t rma_ops = 0;
  TraceFold f;
  for (const trace::Event& e : events) {
    if (e.type == EventType::kRmaSubmit) ++rma_ops;
    if (!trace::is_span(e.type)) continue;
    ++f.spans;
    dur_us[e.type].push_back(sim::to_us(e.dur));
    if (e.type == EventType::kKvOp) kv_ops.push_back(&e);
    if ((e.type == EventType::kOpComplete || e.type == EventType::kSvcOp) &&
        e.trace_id != 0) {
      children[e.trace_id].push_back(&e);
    }
  }
  auto pct = [&](EventType t, double q) { return percentile(dur_us[t], q); };
  auto& m = f.metrics;
  m["proto.op_us_p50"] = pct(EventType::kOpComplete, 0.50);
  m["proto.op_us_p99"] = pct(EventType::kOpComplete, 0.99);
  // Single-frame ops are applied as their first fragment lands, so the
  // receive span's median is 0; its tail is the multi-frame reassembly.
  m["proto.recv_us_p99"] = pct(EventType::kOpRecv, 0.99);
  m["rma.ops"] = static_cast<double>(rma_ops);
  m["rma.op_us_p50"] = pct(EventType::kRmaOp, 0.50);
  m["rma.op_us_p99"] = pct(EventType::kRmaOp, 0.99);
  m["kv.handler_us_p50"] = pct(EventType::kKvHandler, 0.50);
  m["kv.repl_us_p50"] = pct(EventType::kKvRepl, 0.50);
  m["kv.repl_us_p99"] = pct(EventType::kKvRepl, 0.99);
  m["svc.op_us_p99"] = pct(EventType::kSvcOp, 0.99);

  // kv client self time: the kv op span minus the part of it covered by
  // its own proto/svc op spans on the client's node (the time the client
  // spends polling, parsing and backing off rather than on the wire).
  std::vector<double> self_us;
  for (const trace::Event* op : kv_ops) {
    const sim::Time lo = op->ts, hi = op->ts + op->dur;
    std::vector<std::pair<sim::Time, sim::Time>> iv;
    for (const trace::Event* c : children[op->trace_id]) {
      if (c->node != op->node) continue;
      const sim::Time a = std::max(lo, c->ts), b = std::min(hi, c->ts + c->dur);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    sim::Time covered = 0, reach = lo;
    for (const auto& [a, b] : iv) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    self_us.push_back(sim::to_us(op->dur - covered));
  }
  m["kv.client_self_us_p50"] = percentile(self_us, 0.50);

  std::vector<double> txq;
  for (const auto& ts : series) {
    const std::string& n = ts->name();
    if (n.size() < 4 || n.compare(n.size() - 4, 4, "tx_q") != 0) continue;
    for (const auto& [t, v] : ts->samples()) txq.push_back(v);
  }
  m["net.tx_queue_p99"] = percentile(txq, 0.99);

  // Calls are the leaf spans; a session span only parents them.
  std::vector<bool> is_parent(bench_spans.size(), false);
  for (const Span& s : bench_spans) {
    if (s.parent >= 0) is_parent[static_cast<std::size_t>(s.parent)] = true;
  }
  std::vector<double> calls;
  for (std::size_t i = 0; i < bench_spans.size(); ++i) {
    const Span& s = bench_spans[i];
    if (!is_parent[i]) calls.push_back(sim::to_us(s.end - s.start));
  }
  m["bench.call_us_p50"] = percentile(calls, 0.50);
  m["bench.call_us_p99"] = percentile(calls, 0.99);
  return f;
}

}  // namespace perfbench
