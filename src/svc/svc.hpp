// RDMA-as-a-service connection broker (serving tier).
//
// Motivation (RDMAvisor, PAPERS.md): connection count is the scalability
// killer for RDMA services. MultiEdge's proto connections are cheap compared
// to real NIC QPs, but the architectural problem is the same — a serving
// node with thousands of client fibers must not open thousands of full
// window-buffered connections per peer. The broker is a per-node layer that
// multiplexes many client fibers ("tenants") over a SMALL pool of real proto
// connections:
//
//  * Connection pooling — `conns_per_peer` lazily-established connections
//    per (node, peer) pair, shared by every tenant on the node. A tenant is
//    pinned to pool slot `tenant_id % conns_per_peer` so its ops keep the
//    per-connection FIFO/fence semantics it would have had with a private
//    connection.
//
//  * Window-credit accounting — tenants borrow SEND CREDITS (window frames,
//    WireHeader::kMaxData bytes each) instead of whole windows. An op costs
//    ceil(bytes/frame) credits (for reads: the response volume), charged at
//    dispatch and released from the op's completion hook. The pool therefore
//    never buries a connection deeper than its sliding window, which is what
//    keeps queueing delay bounded and visible HERE (where it can be shed)
//    instead of inside the transport (where it cannot).
//
//  * Admission control — per-tenant and per-peer queue bounds. An op that
//    would overflow either bound is REJECTED immediately (SvcOp::rejected());
//    the tenant learns in zero simulated time and can back off. Shed before
//    collapse: bounded queues + explicit rejection are what hold p99 flat
//    past saturation in bench/svc_bench, where the connection-per-client
//    baseline's tail grows without bound.
//
//  * Deficit-round-robin fair queueing — per (peer, tenant) backlog queues
//    served by a per-node dispatcher fiber in byte-metered DRR
//    (`kDrrQuantumBytes` per visit), so one hog tenant cannot starve the
//    others beyond its share. Uncontended ops bypass the dispatcher: when a
//    peer has no backlog and credits are free, submit() dispatches inline on
//    the tenant's own fiber — at low load the broker adds no latency.
//
//  * Rail-health-aware dispatch — the dispatcher consults the node's
//    trace::RailHealth scores (always-on telemetry) and shrinks the
//    effective credit limit of every pool connection while the node's worst
//    egress rail is sick (lossy/bursty/outaged), throttling new work into a
//    degraded fabric instead of stacking it onto retransmit queues.
//
// Each dispatched op records a kSvcOp trace span (child of the submitting
// fiber's span, parent of the proto op span) and per-tenant counters.
//
// The KV client path can run through the broker (KvConfig::conn_mode =
// kBroker); direct modes stay available as baselines. bench/svc_bench
// drives both through an open-loop generator and gates the curves in
// BENCH_svc.json.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sim/process.hpp"
#include "stats/counters.hpp"

namespace multiedge::svc {

/// DRR byte quantum added to a tenant queue's deficit per service visit
/// (multiplied by the tenant's weight — Tenant::set_weight).
inline constexpr std::uint32_t kDrrQuantumBytes = 4096;
/// Per-queued-op unit of an admission rejection's retry-after hint, and the
/// period at which a dispatcher on a lossy rail re-reads its rail health.
inline constexpr sim::Time kDispatchPoll = sim::ns(500);

struct BrokerConfig {
  /// Real proto connections per (node, peer) pair. The whole point of the
  /// broker is that this stays small while the tenant count grows.
  int conns_per_peer = 1;
  /// Send credits (window frames) per pooled connection. 0 = the engine's
  /// ProtocolConfig::window_frames — borrow exactly the transport window.
  std::uint32_t credits_per_conn = 0;
  /// Admission bound: queued (not yet dispatched) ops per peer across all
  /// tenants. Submissions beyond it are rejected, not queued.
  std::uint32_t peer_queue_limit = 64;
  /// Admission bound: queued ops per tenant across all peers.
  std::uint32_t tenant_queue_limit = 16;
};

class Broker;
class Tenant;

/// One brokered operation. Returned as a shared handle: the submitting
/// tenant polls it while the broker (and the proto completion hook) advance
/// its state.
struct SvcOp {
  enum class Kind : std::uint8_t { kWrite, kRead, kGatherRead };
  enum class State : std::uint8_t { kQueued, kDispatched, kRejected };

  Kind kind = Kind::kWrite;
  int peer = -1;
  std::uint64_t remote_va = 0;  // gather: remote base
  std::uint64_t local_va = 0;
  std::uint32_t bytes = 0;      // write: payload; read/gather: response bytes
  std::uint16_t flags = 0;
  std::vector<GatherSegment> segs;  // gather reads only

  State state = State::kQueued;
  OpHandle handle;                  // valid once dispatched
  std::uint32_t credit_frames = 0;  // charged at dispatch
  Tenant* tenant = nullptr;
  sim::Time submitted_at = 0;
  trace::SpanContext ctx;           // kSvcOp span
  std::uint64_t parent_span = 0;
  /// Retry-after hint, set on admission-control rejections: the suggested
  /// backoff before resubmitting, derived from the depth of the queue that
  /// bounced the op (deeper backlog -> longer hint). Zero on stop-path
  /// rejections — the broker is going away, retrying is pointless.
  sim::Time retry_after = 0;

  /// Touched when test() turns true: on a rejection after submit() returned,
  /// and on completion (sim::Wake).
  sim::Signal done;
  sim::Signal* done_signal() { return &done; }

  /// Terminal-state query: rejected, or dispatched and complete.
  bool test() const {
    return state == State::kRejected ||
           (state == State::kDispatched && handle.test());
  }
  bool rejected() const { return state == State::kRejected; }
};
using SvcOpPtr = std::shared_ptr<SvcOp>;

/// Per-client-fiber handle onto the node's broker. Submit calls must run on
/// a fiber of the tenant's node. close() (or destruction via the broker)
/// releases the tenant; when the last tenant of a broker closes, the
/// dispatcher fibers exit.
class Tenant {
 public:
  /// Remote write: local [local_va, ..+bytes) -> peer [remote_va, ...).
  SvcOpPtr write(int peer, std::uint64_t remote_va, std::uint64_t local_va,
                 std::uint32_t bytes, std::uint16_t flags = 0);
  /// Remote read: peer [remote_va, ..+bytes) -> local [local_va, ...).
  SvcOpPtr read(int peer, std::uint64_t local_va, std::uint64_t remote_va,
                std::uint32_t bytes, std::uint16_t flags = 0);
  /// Gather read: every segment relative to `remote_base`, one wire op.
  SvcOpPtr gather_read(int peer, std::vector<GatherSegment> segs,
                       std::uint64_t remote_base, std::uint16_t flags = 0);

  /// Release this tenant (idempotent). The last close stops the broker's
  /// dispatcher fibers.
  void close();

  /// DRR service weight: this tenant's queues earn `weight x
  /// kDrrQuantumBytes` per dispatcher visit. Default 1 — every byte of
  /// behavior (and every fingerprint) is identical until a weight is set.
  void set_weight(std::uint32_t w);
  std::uint32_t weight() const { return weight_; }

  int node() const { return node_; }
  int id() const { return id_; }
  const std::string& name() const { return name_; }
  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

 private:
  friend class Broker;
  Tenant(Broker& broker, int node, int id, std::string name)
      : broker_(broker), node_(node), id_(id), name_(std::move(name)) {}

  Broker& broker_;
  int node_;
  int id_;           // node-local tenant index (pins the pool slot)
  std::string name_;
  bool closed_ = false;
  std::uint32_t weight_ = 1;  // DRR quantum multiplier
  std::uint32_t queued_ = 0;  // queued (not dispatched) ops, all peers
  stats::Counters counters_;
};

/// Per-cluster broker: one dispatcher fiber and one connection pool per
/// node. Construct host-side (before Cluster::run); attach tenants host-side
/// or from their fibers.
class Broker {
 public:
  explicit Broker(Cluster& cluster, BrokerConfig cfg = {});

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Create a tenant on `node`. The broker owns the Tenant object (stable
  /// address until the broker dies).
  Tenant& attach(int node, std::string name);

  /// Stop the dispatcher fibers (also triggered by the last Tenant::close).
  /// Still-queued ops are rejected so no waiter hangs.
  void stop();
  bool stopped() const { return stop_; }

  const BrokerConfig& config() const { return cfg_; }
  Cluster& cluster() { return cluster_; }

  /// Pooled connections opened so far (all nodes) — the number the ≥8×
  /// fewer-connections CI gate compares against the per-client baseline.
  std::uint64_t connections_opened() const;
  /// All broker-level + tenant counters merged.
  stats::Counters aggregate_counters() const;

  // --- test hooks ---
  std::uint32_t credits_in_use(int node, int peer) const;
  std::uint32_t queued_ops(int node, int peer) const;

 private:
  friend class Tenant;

  struct Slot {
    Connection conn;
    bool connecting = false;
    std::uint32_t credits_used = 0;
  };
  struct TenantQueue {
    Tenant* tenant = nullptr;
    std::deque<SvcOpPtr> q;
    std::uint64_t deficit = 0;
    bool active = false;  // linked into PeerPool::rr
  };
  struct PeerPool {
    std::vector<Slot> slots;
    std::vector<TenantQueue> tq;     // [tenant id]
    std::deque<TenantQueue*> rr;     // DRR active list
    std::uint32_t queued = 0;        // total queued ops (admission bound)
  };
  struct NodeState {
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::vector<PeerPool> pools;     // [peer]
    sim::Signal conn_done;           // touched when a slot's connect ends
    stats::Counters counters;        // broker-level (dispatcher) counters
    bool flush_pending = false;      // batched ops dispatched, doorbell owed
    /// Bumped, and `work` touched, on whatever can let an idle dispatcher
    /// make progress: a DRR rotation push, freed credits, flush_pending,
    /// stop.
    std::uint64_t pokes = 0;
    sim::Signal work;
    void poke() {
      ++pokes;
      work.touch();
    }
  };

  SvcOpPtr submit(Tenant& t, SvcOpPtr op);
  void dispatch_loop(Endpoint& ep);
  /// One DRR sweep over every peer with backlog; returns true if another
  /// pass could make progress without a poke (it dispatched, or a queue
  /// still needs more quantum).
  bool dispatch_pass(Endpoint& ep, NodeState& ns);
  /// Dispatch `op` on its pinned slot; assumes credits were checked.
  void dispatch(NodeState& ns, Slot& slot, const SvcOpPtr& op);
  Slot& slot_for(Endpoint& ep, NodeState& ns, int peer, int tenant_id);
  std::uint32_t credit_cost(const SvcOp& op) const;
  /// Per-connection credit limit, scaled down while the node's worst egress
  /// rail is sick (see trace::RailHealth::Snapshot::score).
  std::uint32_t effective_credit_limit(int node) const;
  /// Every egress rail of `node` is clean (trace::RailHealth::clean): an
  /// idle dispatcher then waits with no deadline.
  bool rails_clean(int node) const;
  void on_tenant_closed();

  Cluster& cluster_;
  BrokerConfig cfg_;
  std::uint32_t credits_per_conn_ = 0;  // resolved against the engine config
  std::vector<std::unique_ptr<NodeState>> nodes_;
  bool stop_ = false;
  int tenants_active_ = 0;
  bool any_tenant_ = false;
};

/// Block the calling fiber until `op.test()` holds (the op is terminal) or
/// `timeout` has passed; false = still pending at the deadline. `op` is a
/// brokered SvcOp or anything else whose done_signal() is touched when
/// test() may turn true (the KV client's one-sided reads).
template <typename Op>
bool wait_op(Cluster& cluster, Op& op, sim::Time timeout) {
  if (timeout > 0) {
    sim::Process::running().wait(
        {{op.done_signal()}, cluster.sim().now() + timeout},
        [&] { return op.test(); });
  }
  return op.test();
}

}  // namespace multiedge::svc
