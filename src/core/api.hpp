// MultiEdge public user-level API (§2.2).
//
// A Cluster owns the whole simulated system: the network substrate, one
// MemorySpace + two CPUs + protocol engine per node, and the event loop.
// Application code runs as fibers spawned onto nodes; inside a fiber, the
// Endpoint provides the user-level library: connection setup, asynchronous
// remote memory operations with optional fence/notify flags, operation
// handles, and completion notifications.
//
//   multiedge::Cluster cluster{multiedge::config_1l_1g(2)};
//   cluster.spawn(0, "writer", [](multiedge::Endpoint& ep) {
//     auto conn = ep.connect(1);
//     auto h = conn.rdma_write(dst_va, src_va, 4096,
//                              multiedge::kOpFlagNotify);
//     h.wait();
//   });
//   cluster.run();
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "proto/config.hpp"
#include "proto/engine.hpp"
#include "proto/memory.hpp"
#include "proto/types.hpp"
#include "sim/cpu.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/rail_health.hpp"
#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace multiedge {

// Re-export the operation flags and notification type at API level.
using proto::kOpFlagBackwardFence;
using proto::kOpFlagBatched;
using proto::kOpFlagForwardFence;
using proto::kOpFlagNone;
using proto::kOpFlagNotify;
using proto::kOpFlagQuietNotify;
using proto::kOpFlagSignaled;
using proto::kOpFlagSolicit;
using proto::kOpFlagUrgent;
using proto::Notification;
using proto::op_flags_tag;
using proto::op_tag_flags;

/// The notification-tag table. Bits 8..15 of op_flags carry an 8-bit tag
/// (proto::op_tag_flags), and each subsystem owns its tags, so no consumer
/// steals another's notifications. KV client slot `c` takes its responses
/// on kTagKvResponseBase + c; that range ends at tag 255.
inline constexpr std::uint8_t kTagDsm = 0;            // DSM mailboxes
inline constexpr std::uint8_t kTagColl = 1;           // collectives
inline constexpr std::uint8_t kTagMember = 2;         // membership (SWIM)
inline constexpr std::uint8_t kTagKvRequest = 8;      // KV PUT/DELETE RPCs
inline constexpr std::uint8_t kTagKvReplication = 9;  // KV primary -> backup
inline constexpr std::uint8_t kTagKvAck = 10;         // KV backup -> primary
inline constexpr std::uint8_t kTagKvResponseBase = 16;
static_assert(
    [] {
      constexpr std::uint8_t fixed[] = {kTagDsm, kTagColl, kTagMember,
                                        kTagKvRequest, kTagKvReplication,
                                        kTagKvAck};
      for (std::size_t i = 0; i < std::size(fixed); ++i) {
        if (fixed[i] >= kTagKvResponseBase) return false;
        for (std::size_t j = 0; j < i; ++j) {
          if (fixed[i] == fixed[j]) return false;
        }
      }
      return true;
    }(),
    "fixed notification tags must be distinct and below the KV response "
    "range");

class Cluster;
class Endpoint;

/// Progress handle for one issued remote memory operation (§2.2: "each
/// operation can, when initiated, return a handle").
class OpHandle {
 public:
  OpHandle() = default;
  explicit OpHandle(proto::SendOpPtr op) : op_(std::move(op)) {}
  OpHandle(proto::SendOpPtr op, Endpoint* ep)
      : op_(std::move(op)), ep_(ep) {}

  /// Non-blocking completion query.
  bool test() const { return op_ && op_->complete; }

  /// Progress query (§2.2): bytes of this operation acknowledged so far.
  std::uint32_t progress_bytes() const { return op_ ? op_->progress_bytes : 0; }
  std::uint32_t total_bytes() const { return op_ ? op_->size : 0; }

  /// Block the calling fiber until the operation completes. A remote write
  /// completes when every frame has been acknowledged; a remote read when
  /// all response data has been applied to local memory. With
  /// batch_submission, waiting first flushes the node's submission rings —
  /// an op parked behind an un-rung doorbell would otherwise never start.
  void wait() const;

  /// Completion hook (runs in protocol context; used by the DSM).
  void on_complete(std::function<void()> fn) const {
    if (!op_) return;
    if (op_->complete) {
      fn();
    } else {
      op_->on_complete = std::move(fn);
    }
  }

  bool valid() const { return op_ != nullptr; }

  /// Touched when the operation completes (nullptr for an invalid handle):
  /// the wake source of an idle poll on test().
  sim::Signal* done_signal() const { return op_ ? &op_->done : nullptr; }

 private:
  proto::SendOpPtr op_;
  Endpoint* ep_ = nullptr;  // for the flush-on-wait doorbell (may be null)
};

enum class RdmaOp : std::uint8_t { kWrite, kRead };

/// One segment of a scatter write: `length` bytes from local `local_va`,
/// applied at (remote base + remote_offset).
struct ScatterSegment {
  std::uint64_t remote_offset = 0;
  std::uint64_t local_va = 0;
  std::uint32_t length = 0;
};

/// One segment of a gather read: `length` bytes read from (remote base +
/// remote_offset), delivered into local `local_va`.
struct GatherSegment {
  std::uint64_t remote_offset = 0;
  std::uint64_t local_va = 0;
  std::uint32_t length = 0;
};

/// User-level handle of an established point-to-point connection.
class Connection {
 public:
  Connection() = default;
  Connection(Endpoint* ep, proto::Connection* conn) : ep_(ep), conn_(conn) {}

  /// The paper's single initiation primitive:
  ///   RDMA_operation(connection, remote_va, local_va, size, op, flags)
  OpHandle rdma_operation(std::uint64_t remote_va, std::uint64_t local_va,
                          std::uint32_t size, RdmaOp op, std::uint16_t flags);

  /// Remote write: local [local_va, local_va+size) -> remote [remote_va, ...).
  OpHandle rdma_write(std::uint64_t remote_va, std::uint64_t local_va,
                      std::uint32_t size, std::uint16_t flags = 0) {
    return rdma_operation(remote_va, local_va, size, RdmaOp::kWrite, flags);
  }

  /// Remote read: remote [remote_va, ...) -> local [local_va, ...).
  OpHandle rdma_read(std::uint64_t local_va, std::uint64_t remote_va,
                     std::uint32_t size, std::uint16_t flags = 0) {
    return rdma_operation(remote_va, local_va, size, RdmaOp::kRead, flags);
  }

  /// Scatter write: apply all `segments` relative to `remote_base_va` as ONE
  /// operation (one wire message, one completion, one notification). The
  /// natural carrier for DSM page diffs and other fragmented updates.
  OpHandle rdma_scatter_write(std::uint64_t remote_base_va,
                              std::span<const ScatterSegment> segments,
                              std::uint16_t flags = 0);

  /// Gather read, the read-side mirror of rdma_scatter_write: fetch all
  /// `segments` relative to `remote_base_va` as ONE operation — one wire
  /// request, one response message, one completion. Used by collective
  /// reduce trees to collect a child's contribution in a single round trip.
  OpHandle rdma_gather_read(std::span<const GatherSegment> segments,
                            std::uint64_t remote_base_va,
                            std::uint16_t flags = 0);

  /// Ring this connection's submission-ring doorbell: one kernel entry
  /// releases every op batched since the last doorbell. No-op (and free)
  /// when the ring is empty — so unconditional flushes after a burst are
  /// safe on any configuration.
  void flush();

  int peer() const { return conn_->peer_node(); }
  std::size_t num_links() const { return conn_->num_links(); }
  const stats::Counters& counters() const { return conn_->counters(); }
  proto::Connection* protocol_connection() { return conn_; }
  bool valid() const { return conn_ != nullptr; }

 private:
  Endpoint* ep_ = nullptr;
  proto::Connection* conn_ = nullptr;
};

/// Per-node user-level library instance.
class Endpoint {
 public:
  Endpoint(Cluster& cluster, int node_id, proto::Engine& engine,
           proto::MemorySpace& memory, sim::Cpu& app_cpu);

  int node_id() const { return node_id_; }

  // --- connection setup (fiber-blocking) ---
  Connection connect(int peer);
  /// Wait for (and adopt) the connection initiated by `peer`.
  Connection accept(int peer);

  // --- memory ---
  proto::MemorySpace& memory() { return memory_; }
  std::uint64_t alloc(std::size_t bytes, std::size_t align = 64) {
    return memory_.alloc(bytes, align);
  }

  /// Register a memory region (§2.2: the API "includes primitives for
  /// registering memory regions"). Registered source buffers are pinned and
  /// DMA-able, so operations initiated from them skip the user->kernel copy
  /// on the initiating CPU. Receive buffers never need registration.
  void register_memory(std::uint64_t va, std::size_t len);
  void deregister_memory(std::uint64_t va, std::size_t len);
  bool is_registered(std::uint64_t va, std::size_t len) const;

  // --- notifications (fiber-blocking / polling) ---
  /// With `tag < 0` (default) the next notification of any tag is returned,
  /// strictly in arrival (FIFO) order across tags; with `tag >= 0` only
  /// notifications carrying that tag are consumed (per-tag FIFO), leaving
  /// other tags' notifications queued for their consumers.
  Notification wait_notification(int tag = -1);
  bool poll_notification(Notification* out, int tag = -1);
  /// Matching poll (rma layer): consume only a notification carrying `tag`
  /// that also came from `src` (< 0 = any) and targeted `va`
  /// (proto::Engine::kAnyNotifyVa = any). Other notifications stay queued.
  bool poll_notification_match(Notification* out, int tag, int src,
                               std::uint64_t va);
  /// Read-only peeks: would the matching poll above return true? They
  /// consume nothing, so they are safe inside a sim::Process::poll()
  /// predicate.
  bool has_notification(int tag = -1) const {
    return engine_.has_notification(tag);
  }
  bool has_notification_match(int tag, int src, std::uint64_t va) const {
    return engine_.has_notification_match(tag, src, va);
  }
  /// Touched whenever a notification carrying `tag` is queued: what an idle
  /// poll on the peeks above watches (sim::Wake).
  sim::Signal& notification_signal(int tag) {
    return engine_.notification_signal(tag);
  }

  /// Flush every dirty submission ring on this node (batch_submission):
  /// one kernel entry covers all of them. No-op (and free) when nothing is
  /// batched. Blocking calls (OpHandle::wait, wait_notification) flush
  /// implicitly; issue-then-compute patterns should flush explicitly so the
  /// batched burst starts moving before the computation.
  void flush();

  // --- application-side time accounting ---
  /// Charge application compute time to this node's application CPU.
  void compute(sim::Time t);
  sim::Cpu& app_cpu() { return app_cpu_; }
  proto::Engine& engine() { return engine_; }
  Cluster& cluster() { return cluster_; }

  /// Protocol time spent on the application CPU (syscalls, copies); used
  /// together with the protocol CPU's busy time to report the paper's
  /// "CPU utilization of the communication protocol" out of 200%.
  sim::Time protocol_time_on_app_cpu() const { return proto_app_time_; }

 private:
  friend class Connection;
  /// Charge protocol work to the app CPU (blocking the calling fiber) and
  /// attribute it to protocol accounting.
  void charge_protocol(sim::Time t);

  Cluster& cluster_;
  int node_id_;
  proto::Engine& engine_;
  proto::MemorySpace& memory_;
  sim::Cpu& app_cpu_;
  sim::Time proto_app_time_ = 0;
  /// Registered (pinned) regions: start -> end, non-overlapping.
  std::map<std::uint64_t, std::uint64_t> registered_;
};

/// Everything needed to instantiate a cluster.
struct ClusterConfig {
  net::TopologyConfig topology;
  proto::ProtocolConfig protocol;
  proto::HostCostModel costs;
  std::size_t memory_bytes_per_node = std::size_t{64} << 20;
  /// Event tracing + periodic samplers (off by default: no recorder is
  /// constructed and every hook reduces to one null check).
  trace::TraceConfig trace;
};

/// The paper's experimental setups (§3).
ClusterConfig config_1l_1g(int nodes = 16);
ClusterConfig config_2l_1g(int nodes = 16);
ClusterConfig config_2lu_1g(int nodes = 16);   // out-of-order delivery allowed
ClusterConfig config_1l_10g(int nodes = 4);

class Cluster {
 public:
  /// Node ids travel in 16-bit wire fields (proto::WireHeader::src_node, the
  /// KV request's client_node, the membership header's src/target/origin).
  static constexpr int kMaxNodes = 65535;

  /// Throws std::invalid_argument for more than kMaxNodes nodes.
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  int num_nodes() const { return cfg_.topology.num_nodes; }
  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }
  const ClusterConfig& config() const { return cfg_; }

  Endpoint& endpoint(int node) { return *nodes_[node]->endpoint; }
  proto::Engine& engine(int node) { return *nodes_[node]->engine; }
  proto::MemorySpace& memory(int node) { return *nodes_[node]->memory; }
  sim::Cpu& app_cpu(int node) { return *nodes_[node]->app_cpu; }
  sim::Cpu& proto_cpu(int node) { return *nodes_[node]->proto_cpu; }

  /// Spawn an application fiber on `node`. Runs when the cluster runs.
  void spawn(int node, std::string name, std::function<void(Endpoint&)> body);

  /// Run until every spawned fiber finished. Throws on deadlock (event queue
  /// drained with fibers still blocked).
  void run();

  /// Reserve `bytes` on every node and return the VA, which is the same on
  /// all of them: the symmetric layout every one-sided mailbox, window and
  /// collective addresses peers through. Nothing is committed
  /// (proto::MemorySpace::reserve): a page faults in when a write first
  /// lands in it, and reads as zero until then. Throws std::runtime_error
  /// when some node's allocator disagrees (nodes must allocate the same
  /// regions in the same order).
  std::uint64_t reserve_symmetric(std::size_t bytes, std::size_t align = 64);

  /// Establish the full connection mesh (every node connects to every other
  /// node) before measurement, so connection setup stays out of the timed
  /// region.
  void connect_all_mesh();

  /// Start a protocol CPU-utilization measurement window on all nodes.
  void reset_cpu_windows();

  /// All protocol-invariant violations recorded by every node's checker
  /// (empty unless ClusterConfig::protocol.check_invariants is set — see
  /// proto/invariants.hpp). Tests assert this is empty.
  std::vector<std::string> invariant_violations() const;
  /// Total invariant checks executed across all nodes (0 when disabled).
  std::uint64_t invariant_checks_run() const;

  /// Paper-style protocol CPU utilization of `node` out of 2.0 (two CPUs).
  double protocol_cpu_utilization(int node) const;

  // --- observability (ClusterConfig::trace) ---
  /// The cluster-wide trace recorder, or nullptr when tracing is off.
  trace::TraceRecorder* tracer() { return tracer_.get(); }
  /// Periodic samplers (window occupancy, rail queue depth, outstanding
  /// ops); empty when tracing or sampling is off.
  const std::vector<std::unique_ptr<trace::TimeSeries>>& time_series() const {
    return series_;
  }
  /// Write the Chrome trace-event JSON (events + counter tracks) for this
  /// run. No-op if tracing is off.
  void write_trace(std::ostream& os) const;

  // --- rail-health telemetry (always on; see trace/rail_health.hpp) ---
  /// The egress health aggregator of (node, rail): fed by the node's NIC,
  /// its uplink channel's fault model, and the protocol's retransmissions.
  trace::RailHealth& rail_health(int node, int rail) {
    return *rail_health_[node][rail];
  }
  const trace::RailHealth& rail_health(int node, int rail) const {
    return *rail_health_[node][rail];
  }
  /// One cluster-health JSON document: every node's per-rail snapshot at
  /// the current simulated time, with the scheduler-facing health score.
  void write_cluster_health(std::ostream& os) const;

  // --- flight recorder / postmortem (ClusterConfig::trace.flight_recorder) ---
  /// Register an extra postmortem section (`"name": <json value>`); called
  /// by subsystems that own state worth dumping (membership view, ...).
  void add_postmortem_provider(std::string name,
                               std::function<std::string()> provider);
  /// Dump the black-box state as JSON: trigger reason, last-N trace events,
  /// aggregated counters, rail health, provider sections, and any recorded
  /// invariant violations.
  void write_postmortem(std::ostream& os, const std::string& reason) const;
  /// First-failure hook: writes one postmortem file per cluster (later
  /// triggers are ignored) when the flight recorder or full tracing is on.
  /// Destination: TraceConfig::postmortem_path, else
  /// $MULTIEDGE_POSTMORTEM_DIR/multiedge-postmortem-<n>.json, else the
  /// working directory. Returns the path written ("" if suppressed/failed).
  std::string trigger_postmortem(const std::string& reason);

 private:
  struct NodeState {
    std::unique_ptr<proto::MemorySpace> memory;
    std::unique_ptr<sim::Cpu> app_cpu;
    std::unique_ptr<sim::Cpu> proto_cpu;
    std::unique_ptr<proto::Engine> engine;
    std::unique_ptr<Endpoint> endpoint;
    sim::Time proto_app_time_window0 = 0;
    sim::Time window_start = 0;
  };

  void setup_tracing();
  void setup_flight_recorder();
  void attach_tracer_hooks();
  void setup_rail_health();
  void sample_time_series();

  ClusterConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<sim::Process>> processes_;
  // processes_[0, finished_) are done. Processes never restart, so run()
  // only ever moves this forward.
  std::size_t finished_ = 0;

  std::unique_ptr<trace::TraceRecorder> tracer_;
  // Per node: [window_occupancy, outstanding_ops, submit_ring,
  //            rail0.tx_q, rail0.rx_q, ...]
  std::vector<std::unique_ptr<trace::TimeSeries>> series_;
  std::unique_ptr<sim::Timer> sample_timer_;

  // rail_health_[node][rail]; always allocated (pure observers, no config).
  std::vector<std::vector<std::unique_ptr<trace::RailHealth>>> rail_health_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      postmortem_providers_;
  bool postmortem_written_ = false;
};

}  // namespace multiedge
