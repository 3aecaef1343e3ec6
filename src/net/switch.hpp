// Store-and-forward Ethernet switch with MAC learning and finite output
// queues (tail drop) — the "simple forwarding functions" an edge-based
// network asks of its core (§1 of the paper).
//
// Hierarchical topologies (two-level, fat-tree) mark the ports that lead
// toward spine switches as UPLINKS. The flat MAC table then behaves like a
// leaf switch's: destinations behind an uplink are reached through an
// ECMP-style hash over the uplink group (per src/dst flow, so one flow stays
// on one path while the population of flows spreads across spines), and
// unknown destinations flood the local (non-uplink) ports but take only ONE
// hash-chosen uplink — multiple spines would otherwise deliver duplicate
// copies of every flooded frame. Frames arriving on an uplink are never
// reflected back into the fabric (split horizon), which keeps the leaf-
// spine-leaf graph loop-free without a spanning tree.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace multiedge::net {

struct SwitchConfig {
  /// Store-and-forward decision latency (lookup + crossbar), applied between
  /// full frame reception and enqueue on the output port.
  sim::Time forwarding_latency = sim::us(2);
  /// Output queue capacity in frames; overflow is tail-dropped, which is the
  /// congestion-loss mechanism the protocol's NACK path recovers from.
  std::size_t out_queue_frames = 256;
};

class Switch {
 public:
  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t flooded = 0;
    std::uint64_t tail_drops = 0;
    std::uint64_t fcs_drops = 0;
    /// Frames steered through the uplink group by the ECMP hash (both
    /// learned-behind-uplink forwards and the single flooded uplink copy).
    std::uint64_t ecmp_steered = 0;
  };

  Switch(sim::Simulator& sim, SwitchConfig config, std::string name)
      : sim_(sim), cfg_(config), name_(std::move(name)) {}
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Add a port transmitting on `out`. Returns the sink the peer's channel
  /// should deliver into. Ports flagged `uplink` form the ECMP group that
  /// leads toward the spine layer.
  FrameSink* add_port(Channel* out, bool uplink = false);

  std::size_t num_ports() const { return ports_.size(); }
  std::size_t num_uplinks() const { return uplinks_.size(); }
  const Stats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Frames enqueued toward port `port` (diagnostics / tests — the uplink
  /// spread assertions count these).
  std::uint64_t port_tx_frames(std::size_t port) const {
    return ports_[port]->tx_frames;
  }
  /// Whether port `port` is part of the uplink ECMP group.
  bool port_uplink(std::size_t port) const { return ports_[port]->uplink; }

 private:
  struct Port : FrameSink {
    Port(Switch* owner, std::size_t index, Channel* out_channel, bool up)
        : sw(owner), idx(index), out(out_channel), uplink(up) {}
    void deliver(FramePtr frame) override { sw->ingress(idx, std::move(frame)); }

    Switch* sw;
    std::size_t idx;
    Channel* out;
    bool uplink;
    std::uint64_t tx_frames = 0;
    std::deque<FramePtr> queue;
  };

  void ingress(std::size_t port, FramePtr frame);
  void enqueue(std::size_t port, FramePtr frame);
  void try_transmit(std::size_t port);
  void learn(const MacAddr& mac, std::size_t port);
  const std::size_t* lookup(const MacAddr& mac) const;
  /// ECMP member for a (src, dst) flow — deterministic per flow.
  std::size_t ecmp_uplink(const MacAddr& src, const MacAddr& dst) const;

  sim::Simulator& sim_;
  SwitchConfig cfg_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::size_t> uplinks_;  // indices of uplink ports, in add order
  // MAC learning table. A station count is a handful of node*rail entries,
  // so a flat array beats a tree: lookup is a short linear scan with no
  // pointer chasing, and learning an already-known MAC writes one slot.
  std::vector<std::pair<MacAddr, std::size_t>> mac_table_;
  Stats stats_;
};

}  // namespace multiedge::net
