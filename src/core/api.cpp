#include "core/api.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "stats/json.hpp"
#include "trace/export.hpp"

namespace multiedge {

// ---------------------------------------------------------------------------
// Connection / operations
// ---------------------------------------------------------------------------

void OpHandle::wait() const {
  if (!op_ || op_->complete) return;
  if (ep_ != nullptr) ep_->flush();
  sim::Process::running().wait({&op_->done}, [this] { return op_->complete; });
}

OpHandle Connection::rdma_operation(std::uint64_t remote_va,
                                    std::uint64_t local_va, std::uint32_t size,
                                    RdmaOp op, std::uint16_t flags) {
  assert(conn_ != nullptr && "operation on an unconnected handle");
  Endpoint& ep = *ep_;
  const proto::HostCostModel& costs = ep.engine().costs();
  // A batched submit is a user-level ring append: the kernel entry is
  // deferred to the doorbell that later drains the ring (submit_op charges
  // it there). Eager submits pay it here, per op, as before.
  const sim::Time entry =
      conn_->will_batch(flags) ? sim::Time{0} : costs.syscall_cost;

  if (op == RdmaOp::kWrite) {
    // §2.3 initiator path: syscall, then copy user data into kernel-level
    // DMA-capable buffers — the host-overhead part of an operation. Sources
    // inside a registered (pinned) region skip the copy: the NIC DMAs
    // straight from user memory.
    const sim::Time copy =
        ep.is_registered(local_va, size) ? 0 : costs.copy_cost_app(size);
    ep.charge_protocol(entry + costs.op_build_cost + copy);
    auto data = ep.memory().view(local_va, size);
    return OpHandle(conn_->submit_write(remote_va, data, flags, ep.app_cpu()),
                    &ep);
  }
  // Reads carry no data out, only the request descriptor.
  ep.charge_protocol(entry + costs.op_build_cost);
  return OpHandle(conn_->submit_read(local_va, remote_va, size, flags,
                                     ep.app_cpu()),
                  &ep);
}

void Connection::flush() {
  assert(conn_ != nullptr);
  if (conn_->submit_ring_depth() == 0) return;
  // The explicit doorbell is the one kernel entry the whole batch shares.
  ep_->charge_protocol(ep_->engine().costs().syscall_cost);
  conn_->flush(ep_->app_cpu());
}

OpHandle Connection::rdma_scatter_write(std::uint64_t remote_base_va,
                                        std::span<const ScatterSegment> segments,
                                        std::uint16_t flags) {
  assert(conn_ != nullptr && !segments.empty());
  Endpoint& ep = *ep_;
  const proto::HostCostModel& costs = ep.engine().costs();

  std::vector<proto::ScatterChunk> chunks;
  std::vector<std::span<const std::byte>> data;
  chunks.reserve(segments.size());
  data.reserve(segments.size());
  std::size_t total = 0;
  for (const ScatterSegment& s : segments) {
    chunks.push_back(proto::ScatterChunk{
        static_cast<std::uint32_t>(s.remote_offset), s.length});
    data.push_back(ep.memory().view(s.local_va, s.length));
    total += s.length;
  }
  const sim::Time entry =
      conn_->will_batch(flags) ? sim::Time{0} : costs.syscall_cost;
  ep.charge_protocol(entry + costs.op_build_cost + costs.copy_cost_app(total));
  const std::vector<std::byte> encoded = proto::encode_scatter_payload(
      chunks, std::span<const std::span<const std::byte>>(data));
  return OpHandle(
      conn_->submit_scatter_write(remote_base_va, encoded, flags, ep.app_cpu()),
      &ep);
}

OpHandle Connection::rdma_gather_read(std::span<const GatherSegment> segments,
                                      std::uint64_t remote_base_va,
                                      std::uint16_t flags) {
  assert(conn_ != nullptr && !segments.empty());
  Endpoint& ep = *ep_;
  const proto::HostCostModel& costs = ep.engine().costs();

  // Segment destinations are encoded relative to the lowest local VA, which
  // becomes the operation's local base for the one response message.
  std::uint64_t local_base = segments.front().local_va;
  for (const GatherSegment& s : segments) {
    local_base = std::min(local_base, s.local_va);
  }
  std::vector<proto::GatherChunk> chunks;
  chunks.reserve(segments.size());
  std::uint32_t total = 0;
  for (const GatherSegment& s : segments) {
    chunks.push_back(proto::GatherChunk{
        static_cast<std::uint32_t>(s.remote_offset),
        static_cast<std::uint32_t>(s.local_va - local_base), s.length});
    total += s.length;
  }
  // Like plain reads, only the request descriptor leaves the node.
  const sim::Time entry =
      conn_->will_batch(flags) ? sim::Time{0} : costs.syscall_cost;
  ep.charge_protocol(entry + costs.op_build_cost);
  const std::vector<std::byte> encoded = proto::encode_gather_request(chunks);
  return OpHandle(conn_->submit_gather_read(local_base, remote_base_va, encoded,
                                            total, flags, ep.app_cpu()),
                  &ep);
}

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

Endpoint::Endpoint(Cluster& cluster, int node_id, proto::Engine& engine,
                   proto::MemorySpace& memory, sim::Cpu& app_cpu)
    : cluster_(cluster),
      node_id_(node_id),
      engine_(engine),
      memory_(memory),
      app_cpu_(app_cpu) {}

void Endpoint::charge_protocol(sim::Time t) {
  proto_app_time_ += t;
  app_cpu_.consume(t);
}

void Endpoint::compute(sim::Time t) { app_cpu_.consume(t); }

Connection Endpoint::connect(int peer) {
  charge_protocol(engine_.costs().syscall_cost);
  proto::Connection* c = engine_.connect(peer);
  sim::Process::running().wait({&c->established_signal()}, [c] {
    return c->state() == proto::ConnState::kEstablished;
  });
  return Connection(this, c);
}

Connection Endpoint::accept(int peer) {
  sim::Process::running().wait({&engine_.responder_signal()}, [this, peer] {
    return engine_.responder_for(peer) != nullptr;
  });
  return Connection(this, engine_.responder_for(peer));
}

void Endpoint::register_memory(std::uint64_t va, std::size_t len) {
  assert(len > 0 && va + len <= memory_.size());
  // Pinning pages is a system call per region.
  charge_protocol(engine_.costs().syscall_cost);
  registered_[va] = std::max(registered_[va], va + len);
}

void Endpoint::deregister_memory(std::uint64_t va, std::size_t len) {
  (void)len;
  charge_protocol(engine_.costs().syscall_cost);
  registered_.erase(va);
}

bool Endpoint::is_registered(std::uint64_t va, std::size_t len) const {
  auto it = registered_.upper_bound(va);
  if (it == registered_.begin()) return false;
  --it;
  return va + len <= it->second;
}

Notification Endpoint::wait_notification(int tag) {
  // About to block: push out anything still parked in a submission ring
  // (often the request whose reply we are waiting for).
  if (!engine_.has_notification(tag)) {
    flush();
    sim::Process::running().wait({&engine_.notification_signal(tag)},
                                 [this, tag] {
                                   return engine_.has_notification(tag);
                                 });
  }
  charge_protocol(engine_.costs().syscall_cost);
  return engine_.pop_notification(tag);
}

bool Endpoint::poll_notification(Notification* out, int tag) {
  if (!engine_.has_notification(tag)) return false;
  *out = engine_.pop_notification(tag);
  return true;
}

bool Endpoint::poll_notification_match(Notification* out, int tag, int src,
                                       std::uint64_t va) {
  return engine_.pop_notification_match(tag, src, va, out);
}

void Endpoint::flush() {
  if (!engine_.has_dirty_rings()) return;
  charge_protocol(engine_.costs().syscall_cost);
  engine_.flush_submission_rings(app_cpu_);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

namespace {

ClusterConfig base_1g(int nodes, int rails) {
  ClusterConfig cfg;
  cfg.topology.num_nodes = nodes;
  cfg.topology.rails = rails;
  cfg.topology.link.gbps = 1.0;
  cfg.topology.nic = net::broadcom_tg3_config();
  return cfg;
}

}  // namespace

ClusterConfig config_1l_1g(int nodes) { return base_1g(nodes, 1); }

ClusterConfig config_2l_1g(int nodes) {
  ClusterConfig cfg = base_1g(nodes, 2);
  cfg.protocol.in_order_delivery = true;
  return cfg;
}

ClusterConfig config_2lu_1g(int nodes) {
  ClusterConfig cfg = base_1g(nodes, 2);
  cfg.protocol.in_order_delivery = false;
  return cfg;
}

ClusterConfig config_1l_10g(int nodes) {
  ClusterConfig cfg;
  cfg.topology.num_nodes = nodes;
  cfg.topology.rails = 1;
  cfg.topology.link.gbps = 10.0;
  cfg.topology.nic = net::myricom_10g_config();
  return cfg;
}

Cluster::Cluster(ClusterConfig config) : cfg_(std::move(config)) {
  if (cfg_.topology.num_nodes > kMaxNodes) {
    throw std::invalid_argument(
        "Cluster: " + std::to_string(cfg_.topology.num_nodes) +
        " nodes, more than the wire's 16-bit node ids carry (" +
        std::to_string(kMaxNodes) + ")");
  }
  network_ = std::make_unique<net::Network>(sim_, cfg_.topology);
  const int n = cfg_.topology.num_nodes;
  const int rails = cfg_.topology.rails;

  // MAC directory shared by all engines.
  std::vector<std::vector<net::MacAddr>> macs(n);
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < rails; ++r) macs[i].push_back(network_->nic(i, r).mac());
  }

  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto ns = std::make_unique<NodeState>();
    ns->memory = std::make_unique<proto::MemorySpace>(cfg_.memory_bytes_per_node);
    ns->app_cpu =
        std::make_unique<sim::Cpu>(sim_, "n" + std::to_string(i) + ".cpu0");
    ns->proto_cpu =
        std::make_unique<sim::Cpu>(sim_, "n" + std::to_string(i) + ".cpu1");
    ns->engine = std::make_unique<proto::Engine>(sim_, i, *ns->memory,
                                                 *ns->proto_cpu, cfg_.protocol,
                                                 cfg_.costs);
    for (int r = 0; r < rails; ++r) {
      ns->engine->add_rail(&network_->nic(i, r));
    }
    ns->engine->set_mac_table(macs);
    ns->endpoint = std::make_unique<Endpoint>(*this, i, *ns->engine, *ns->memory,
                                              *ns->app_cpu);
    nodes_.push_back(std::move(ns));
  }

  setup_rail_health();
  // First-failure black box: the moment any node's invariant checker records
  // a violation, dump the flight-recorder state (no-op when neither tracing
  // nor the flight recorder is configured).
  for (auto& ns : nodes_) {
    if (auto* ck = ns->engine->checker()) {
      ck->set_on_violation([this](const std::string& v) {
        trigger_postmortem("invariant violation: " + v);
      });
    }
  }

  if (cfg_.trace.enabled) {
    setup_tracing();
  } else if (cfg_.trace.flight_recorder) {
    setup_flight_recorder();
  }
}

void Cluster::setup_rail_health() {
  const int n = cfg_.topology.num_nodes;
  const int rails = cfg_.topology.rails;
  rail_health_.resize(n);
  for (int i = 0; i < n; ++i) {
    std::vector<trace::RailHealth*> raw;
    for (int r = 0; r < rails; ++r) {
      rail_health_[i].push_back(std::make_unique<trace::RailHealth>());
      trace::RailHealth* rh = rail_health_[i].back().get();
      // Egress view of (node, rail): the NIC samples ring depth, the uplink
      // channel reports wire faults, the engine charges retransmissions.
      network_->nic(i, r).set_rail_health(rh);
      network_->uplink(i, r).set_rail_health(rh);
      raw.push_back(rh);
    }
    nodes_[i]->engine->set_rail_health(std::move(raw));
  }
}

void Cluster::attach_tracer_hooks() {
  trace::TraceRecorder* t = tracer_.get();
  const int n = cfg_.topology.num_nodes;
  const int rails = cfg_.topology.rails;
  for (int i = 0; i < n; ++i) {
    nodes_[i]->engine->set_tracer(t);
    for (int r = 0; r < rails; ++r) {
      network_->nic(i, r).set_tracer(t, i, r);
      // Channel faults are attributed to the sender-side node of the link.
      network_->uplink(i, r).set_tracer(t, i, r);
      network_->downlink(i, r).set_tracer(t, i, r);
    }
  }
}

void Cluster::setup_flight_recorder() {
  // Black-box mode: the same hooks feed a much smaller ring and no periodic
  // samplers run — cheap enough to leave on in stress/CI runs, and the last
  // N events are exactly what a postmortem needs.
  tracer_ = std::make_unique<trace::TraceRecorder>(trace::kFlightRingCapacity);
  attach_tracer_hooks();
}

void Cluster::setup_tracing() {
  tracer_ = std::make_unique<trace::TraceRecorder>(cfg_.trace.ring_capacity);
  attach_tracer_hooks();

  if (cfg_.trace.sample_interval <= 0) return;
  const int n = cfg_.topology.num_nodes;
  const int rails = cfg_.topology.rails;
  for (int i = 0; i < n; ++i) {
    const std::string p = "n" + std::to_string(i) + ".";
    series_.push_back(
        std::make_unique<trace::TimeSeries>(p + "window_occupancy"));
    series_.push_back(
        std::make_unique<trace::TimeSeries>(p + "outstanding_ops"));
    series_.push_back(std::make_unique<trace::TimeSeries>(p + "submit_ring"));
    for (int r = 0; r < rails; ++r) {
      const std::string rp = p + "rail" + std::to_string(r) + ".";
      series_.push_back(std::make_unique<trace::TimeSeries>(rp + "tx_q"));
      series_.push_back(std::make_unique<trace::TimeSeries>(rp + "rx_q"));
    }
  }
  sample_timer_ = std::make_unique<sim::Timer>(sim_, [this] {
    sample_time_series();
    sample_timer_->schedule(cfg_.trace.sample_interval);
  });
  sample_timer_->schedule(cfg_.trace.sample_interval);
}

void Cluster::sample_time_series() {
  // Pure observation: reads state, charges no CPU, schedules nothing but its
  // own timer — so sampling cannot perturb protocol behaviour.
  const sim::Time now = sim_.now();
  const int rails = cfg_.topology.rails;
  std::size_t s = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    double window = 0, ops = 0, ring = 0;
    for (const auto& c : nodes_[i]->engine->connections()) {
      window += static_cast<double>(c->frames_in_flight());
      ops += static_cast<double>(c->outstanding_ops());
      ring += static_cast<double>(c->submit_ring_depth());
    }
    series_[s++]->sample(now, window);
    series_[s++]->sample(now, ops);
    series_[s++]->sample(now, ring);
    for (int r = 0; r < rails; ++r) {
      const net::Nic& nic = network_->nic(i, r);
      series_[s++]->sample(
          now, static_cast<double>(nic.config().tx_ring_slots - nic.tx_space()));
      series_[s++]->sample(now, static_cast<double>(nic.rx_pending()));
    }
  }
}

void Cluster::write_trace(std::ostream& os) const {
  if (!tracer_) return;
  std::vector<const trace::TimeSeries*> series;
  series.reserve(series_.size());
  for (const auto& s : series_) series.push_back(s.get());
  trace::write_chrome_trace(os, *tracer_, series);
}

void Cluster::write_cluster_health(std::ostream& os) const {
  const sim::Time now = sim_.now();
  os << "{\"sim_time_ps\":" << now << ",\"nodes\":[";
  for (int i = 0; i < num_nodes(); ++i) {
    os << (i ? "," : "") << "\n  {\"node\":" << i << ",\"rails\":[";
    for (std::size_t r = 0; r < rail_health_[i].size(); ++r) {
      os << (r ? "," : "")
         << trace::RailHealth::to_json(rail_health_[i][r]->snapshot(now));
    }
    os << "]}";
  }
  os << "\n]}\n";
}

void Cluster::add_postmortem_provider(std::string name,
                                      std::function<std::string()> provider) {
  postmortem_providers_.emplace_back(std::move(name), std::move(provider));
}

void Cluster::write_postmortem(std::ostream& os,
                               const std::string& reason) const {
  const sim::Time now = sim_.now();
  os << "{\n  \"reason\": \"" << stats::json::escape(reason) << "\",\n";
  os << "  \"sim_time_ps\": " << now << ",\n";

  // Last-N events from the black-box ring, oldest first.
  os << "  \"events\": [";
  bool first = true;
  if (tracer_) {
    for (const trace::Event& e : tracer_->events()) {
      os << (first ? "" : ",") << "\n    {\"ts\":" << e.ts << ",\"type\":\""
         << trace::event_name(e.type) << "\",\"node\":" << e.node
         << ",\"rail\":" << e.rail << ",\"conn\":" << e.conn << ",\"a\":" << e.a
         << ",\"b\":" << e.b;
      if (e.dur > 0) os << ",\"dur\":" << e.dur;
      if (e.trace_id != 0) {
        os << ",\"trace\":" << e.trace_id << ",\"span\":" << e.span_id
           << ",\"parent\":" << e.parent_span;
      }
      os << "}";
      first = false;
    }
  }
  os << "\n  ],\n";

  stats::Counters agg;
  for (const auto& ns : nodes_) agg.merge(ns->engine->aggregate_counters());
  os << "  \"counters\": {";
  first = true;
  for (const auto& [name, v] : agg.all()) {
    os << (first ? "" : ",") << "\n    \"" << stats::json::escape(name)
       << "\": " << v;
    first = false;
  }
  os << "\n  },\n";

  os << "  \"rail_health\": {";
  for (int i = 0; i < num_nodes(); ++i) {
    os << (i ? "," : "") << "\n    \"node" << i << "\": [";
    for (std::size_t r = 0; r < rail_health_[i].size(); ++r) {
      os << (r ? "," : "")
         << trace::RailHealth::to_json(rail_health_[i][r]->snapshot(now));
    }
    os << "]";
  }
  os << "\n  },\n";

  os << "  \"invariant_violations\": [";
  first = true;
  for (const std::string& v : invariant_violations()) {
    os << (first ? "" : ",") << "\n    \"" << stats::json::escape(v) << "\"";
    first = false;
  }
  os << "\n  ]";

  // Subsystem sections (e.g. the membership view) registered at setup time.
  for (const auto& [name, provider] : postmortem_providers_) {
    os << ",\n  \"" << stats::json::escape(name) << "\": " << provider();
  }
  os << "\n}\n";
}

std::string Cluster::trigger_postmortem(const std::string& reason) {
  // First failure wins: a broken invariant usually cascades, and the ring
  // right after the first trip is the interesting one.
  if (postmortem_written_) return "";
  if (!cfg_.trace.flight_recorder && !cfg_.trace.enabled) return "";
  postmortem_written_ = true;

  std::string path = cfg_.trace.postmortem_path;
  if (path.empty()) {
    // Several clusters can live in one test binary; number the dumps
    // process-wide so they never clobber each other.
    static int seq = 0;
    const char* dir = std::getenv("MULTIEDGE_POSTMORTEM_DIR");
    path = (dir != nullptr ? std::string(dir) : std::string(".")) +
           "/multiedge-postmortem-" + std::to_string(seq++) + ".json";
  }
  std::ofstream os(path);
  if (!os) return "";
  write_postmortem(os, reason);
  return path;
}

Cluster::~Cluster() {
  // Fibers must not outlive the cluster in a suspended state; drain anything
  // still runnable so their stacks unwind naturally.
  for (auto& p : processes_) {
    if (!p->done()) {
      // Deliberately leak un-finished fibers' Process objects rather than
      // destroying a live stack; tests always run() to completion.
      p.release();  // NOLINT(bugprone-unused-return-value)
    }
  }
}

void Cluster::spawn(int node, std::string name,
                    std::function<void(Endpoint&)> body) {
  Endpoint& ep = endpoint(node);
  auto proc = std::make_unique<sim::Process>(
      sim_, std::move(name), [body = std::move(body), &ep] { body(ep); });
  proc->start();
  processes_.push_back(std::move(proc));
}

void Cluster::run() {
  while (true) {
    while (finished_ < processes_.size() && processes_[finished_]->done()) {
      ++finished_;
    }
    if (finished_ == processes_.size()) return;
    if (!sim_.step()) {
      throw std::runtime_error(
          "Cluster::run(): event queue drained with fibers still blocked "
          "(deadlock)");
    }
  }
}

std::uint64_t Cluster::reserve_symmetric(std::size_t bytes,
                                         std::size_t align) {
  const std::uint64_t va = memory(0).reserve(bytes, align);
  for (int i = 1; i < num_nodes(); ++i) {
    if (memory(i).reserve(bytes, align) != va) {
      throw std::runtime_error(
          "Cluster: asymmetric symmetric-region allocation on node " +
          std::to_string(i) +
          " (nodes must allocate the same regions in the same order)");
    }
  }
  return va;
}

void Cluster::connect_all_mesh() {
  const int n = num_nodes();
  std::vector<std::unique_ptr<sim::Process>> procs;
  int remaining = n;
  for (int i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<sim::Process>(
        sim_, "mesh" + std::to_string(i), [this, i, n, &remaining] {
          for (int j = 0; j < n; ++j) {
            if (j != i) endpoint(i).connect(j);
          }
          --remaining;
        }));
    procs.back()->start();
  }
  while (remaining > 0) {
    if (!sim_.step()) {
      throw std::runtime_error("connect_all_mesh(): deadlock");
    }
  }
}

std::vector<std::string> Cluster::invariant_violations() const {
  std::vector<std::string> all;
  for (const auto& ns : nodes_) {
    if (const proto::InvariantChecker* ck = ns->engine->checker()) {
      all.insert(all.end(), ck->violations().begin(), ck->violations().end());
    }
  }
  return all;
}

std::uint64_t Cluster::invariant_checks_run() const {
  std::uint64_t total = 0;
  for (const auto& ns : nodes_) {
    if (const proto::InvariantChecker* ck = ns->engine->checker()) {
      total += ck->checks_run();
    }
  }
  return total;
}

void Cluster::reset_cpu_windows() {
  for (auto& ns : nodes_) {
    ns->app_cpu->reset_window();
    ns->proto_cpu->reset_window();
    ns->proto_app_time_window0 = ns->endpoint->protocol_time_on_app_cpu();
    ns->window_start = sim_.now();
  }
}

double Cluster::protocol_cpu_utilization(int node) const {
  const NodeState& ns = *nodes_[node];
  const sim::Time elapsed = sim_.now() - ns.window_start;
  if (elapsed <= 0) return 0.0;
  const sim::Time app_proto =
      ns.endpoint->protocol_time_on_app_cpu() - ns.proto_app_time_window0;
  const double app_frac = static_cast<double>(app_proto) / elapsed;
  return ns.proto_cpu->utilization() + app_frac;
}

}  // namespace multiedge
