// The per-node MultiEdge kernel protocol layer (§2.1, §2.3, §2.6).
//
// The engine owns every connection of one node, dispatches received frames,
// runs the connection handshake, and implements the interrupt-minimisation
// scheme: NIC interrupt handlers mask further interrupts and signal the
// protocol kernel thread; the thread polls all NICs, processing completions
// and received frames in batches, and re-enables interrupts only when no
// events remain. All protocol CPU time is charged to the node's second CPU
// (`proto_cpu`), matching the paper's one-CPU-for-protocol setup.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/nic.hpp"
#include "proto/config.hpp"
#include "proto/connection.hpp"
#include "proto/invariants.hpp"
#include "proto/memory.hpp"
#include "proto/types.hpp"
#include "proto/wire.hpp"
#include "sim/cpu.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/wait_queue.hpp"
#include "stats/counters.hpp"
#include "trace/rail_health.hpp"
#include "trace/trace.hpp"

namespace multiedge::proto {

class Engine {
 public:
  Engine(sim::Simulator& sim, int node_id, MemorySpace& memory,
         sim::Cpu& proto_cpu, ProtocolConfig config, HostCostModel costs);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Attach the NIC for rail `r` (call once per rail, in rail order).
  void add_rail(net::Nic* nic);

  /// MAC directory: mac_table[node][rail]. Needed to address peers.
  void set_mac_table(std::vector<std::vector<net::MacAddr>> table);

  // --- connection management ---

  /// Start connecting to `peer` over all rails. Non-blocking; the connection
  /// is usable once state() == kEstablished (wait on conn_events()).
  Connection* connect(int peer);

  /// The established responder-side connection initiated by `peer`, if any.
  Connection* responder_for(int peer);

  /// Notified whenever any connection reaches kEstablished.
  sim::WaitQueue& conn_events() { return conn_events_; }

  // --- passive liveness ---
  /// Simulation time of the last frame (data, read request, or ack) received
  /// from `peer` over any established connection; 0 if never. Membership
  /// layers read this to piggyback liveness on existing traffic: a peer whose
  /// frames are still arriving needs no dedicated probe.
  sim::Time last_rx_from(int peer) const {
    return peer >= 0 && static_cast<std::size_t>(peer) < last_rx_.size()
               ? last_rx_[peer]
               : sim::Time{0};
  }

  // --- notifications (remote-write completion events, §2.2) ---
  /// With `tag < 0` (default) any queued notification matches; otherwise only
  /// notifications carrying that demultiplexing tag. The queue is one FIFO:
  /// untagged consumers drain strictly in arrival order across all tags, and
  /// tagged consumers see per-tag arrival order.
  bool has_notification(int tag = -1) const;
  Notification pop_notification(int tag = -1);
  /// Matching variants (used by the rma layer, src/rma): consume the FIRST
  /// queued notification carrying `tag` whose source node and target address
  /// also match. `src < 0` matches any source; `va == kAnyNotifyVa` matches
  /// any address. Non-matching notifications stay queued in arrival order
  /// for their own consumers.
  static constexpr std::uint64_t kAnyNotifyVa = ~std::uint64_t{0};
  bool has_notification_match(int tag, int src, std::uint64_t va) const;
  bool pop_notification_match(int tag, int src, std::uint64_t va,
                              Notification* out);
  sim::WaitQueue& notify_events() { return notify_events_; }

  // --- infrastructure used by Connection ---
  sim::Simulator& sim() { return sim_; }
  const ProtocolConfig& config() const { return cfg_; }
  const HostCostModel& costs() const { return costs_; }
  MemorySpace& memory() { return memory_; }
  int node_id() const { return node_id_; }
  sim::Rng& rng() { return rng_; }
  sim::Cpu& proto_cpu() { return proto_cpu_; }
  /// Non-null only when config().check_invariants (test instrumentation).
  InvariantChecker* checker() const { return checker_.get(); }
  /// Trace recorder shared by this node's protocol stack (nullptr when
  /// tracing is off). Connections and the DSM record through this.
  trace::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(trace::TraceRecorder* t) { tracer_ = t; }
  /// Per-rail health aggregators (owned by the Cluster; may be empty).
  /// Connections feed retransmissions into the rail that carries them.
  void set_rail_health(std::vector<trace::RailHealth*> rh) {
    rail_health_ = std::move(rh);
  }
  trace::RailHealth* rail_health(std::size_t rail) const {
    return rail < rail_health_.size() ? rail_health_[rail] : nullptr;
  }
  /// Queue a completion notification for user level. `urgent` notifications
  /// (and every notification when batch_submission is off) pay notify_cost
  /// and wake waiters immediately; non-urgent ones under batch_submission are
  /// harvested in batches at the end of the protocol thread's dispatch pass —
  /// one notify_cost wakeup plus notify_item_cost per additional entry.
  void deliver_notification(Notification n, sim::Cpu& cpu, bool urgent = true);
  /// Register a connection that still has frames waiting for window/ring.
  /// Deduplicated by a flag on the connection; the list keeps registration
  /// order, so draining is deterministic and allocation-free.
  void note_backlog(Connection* conn) {
    if (!conn->in_backlog_) {
      conn->in_backlog_ = true;
      backlog_.push_back(conn);
    }
  }
  /// Register a connection whose submission ring holds un-doorbelled
  /// descriptors (batch_submission only). Same dedupe discipline as
  /// note_backlog. The protocol thread's idle sweep rings these doorbells if
  /// nothing else (explicit flush, ring threshold, eager op) does first.
  void note_dirty_ring(Connection* conn) {
    if (!conn->in_dirty_ring_) {
      conn->in_dirty_ring_ = true;
      dirty_rings_.push_back(conn);
    }
  }
  /// True if any registered submission ring still holds descriptors.
  bool has_dirty_rings() const;
  /// Ring every dirty submission ring's doorbell (kernel entry is NOT
  /// charged here — the caller either already paid it or is the in-kernel
  /// protocol thread; per-descriptor drain costs are charged on `cpu`).
  void flush_submission_rings(sim::Cpu& cpu);

  // --- statistics ---
  stats::Counters& counters() { return counters_; }
  /// Sum of all connections' counters plus the engine's own.
  stats::Counters aggregate_counters() const;
  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return conns_;
  }

 private:
  friend class Connection;

  struct PendingConnect {
    Connection* conn = nullptr;
    std::unique_ptr<sim::Timer> retry;
  };

  void irq_handler();
  void signal_thread();
  void thread_loop();
  struct RxItem {
    net::FramePtr frame;
    DecodedFrame decoded;
  };
  void dispatch(RxItem& item);
  void flush_backlog();
  void flush_notifications(sim::Cpu& cpu);
  void note_rx_from(int peer);

  Connection* find_conn(std::uint32_t local_id);
  Connection* make_connection(int peer, bool is_initiator);
  std::vector<Connection::Link> links_to(int peer) const;
  void send_ctrl_frame(int peer, const WireHeader& hdr, sim::Cpu& cpu);
  void on_syn(const DecodedFrame& df);
  void on_syn_ack(const DecodedFrame& df);
  void on_conn_ack(const DecodedFrame& df);

  sim::Simulator& sim_;
  int node_id_;
  MemorySpace& memory_;
  sim::Cpu& proto_cpu_;
  ProtocolConfig cfg_;
  HostCostModel costs_;
  sim::Rng rng_;

  std::vector<net::Nic*> rails_;
  std::vector<std::vector<net::MacAddr>> mac_table_;

  std::vector<std::unique_ptr<Connection>> conns_;
  // Dense id -> connection index (ids are handed out from 1, so slot id-1).
  std::vector<Connection*> conns_by_id_;
  // Responder-side dedupe: (peer node, initiator conn id) -> connection.
  std::map<std::pair<int, std::uint32_t>, Connection*> responder_index_;
  std::map<std::uint32_t, PendingConnect> pending_connects_;
  std::uint32_t next_conn_id_ = 1;
  sim::WaitQueue conn_events_;

  std::deque<Notification> notifications_;
  // Notifications awaiting a batched harvest (batch_submission only; always
  // empty otherwise).
  std::vector<Notification> pending_notify_;
  sim::WaitQueue notify_events_;
  std::vector<sim::Time> last_rx_;  // per peer node, grown on demand

  std::vector<Connection*> backlog_;
  std::vector<Connection*> backlog_scratch_;  // reused by flush_backlog()
  std::vector<Connection*> dirty_rings_;
  std::vector<Connection*> dirty_rings_scratch_;
  std::vector<RxItem> batch_spare_;           // reused by thread_loop()
  bool thread_active_ = false;
  std::unique_ptr<InvariantChecker> checker_;
  trace::TraceRecorder* tracer_ = nullptr;
  std::vector<trace::RailHealth*> rail_health_;
  stats::Counters counters_;
};

}  // namespace multiedge::proto
