// Cluster topology builder.
//
// Reproduces the paper's physical setups: N nodes, each with R NICs ("rails");
// rail r of every node connects to switch r. The evaluated configurations map
// to:
//   1L-1G  : rails=1, 1.0  Gbps, 16 nodes
//   2L-1G  : rails=2, 1.0  Gbps, 16 nodes (strict in-order delivery)
//   2Lu-1G : rails=2, 1.0  Gbps, 16 nodes (out-of-order delivery allowed)
//   1L-10G : rails=1, 10.0 Gbps,  4 nodes (Myricom NIC quirks)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace multiedge::net {

struct LinkSpec {
  double gbps = 1.0;
  sim::Time propagation_delay = sim::ns(500);  // cable + PHY
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  double dup_prob = 0.0;
  /// Max extra per-frame propagation delay (uniform in [0, jitter_max]);
  /// large values reorder frames within a single link.
  sim::Time jitter_max = 0;
  /// Gilbert–Elliott bursty loss applied to every node<->switch channel.
  GilbertElliott burst;
};

/// Scheduled failure/recovery of one rail: both directions of the matching
/// node<->switch links are dead during [start, end). With node == -1 the
/// outage hits every node's links on that rail (the whole rail dies — switch
/// power loss); with a specific node only that node's cable is pulled.
struct RailOutage {
  int rail = 0;
  int node = -1;  // -1 = all nodes on this rail
  sim::Time start = 0;
  sim::Time end = 0;
};

struct TopologyConfig {
  int num_nodes = 2;
  int rails = 1;
  LinkSpec link;
  NicConfig nic;          // gbps is overridden by link.gbps
  std::uint64_t seed = 42;

  /// Scheduled per-rail failure/recovery windows (§2.4: transfers survive
  /// transient link failures; one rail of a striped connection can die and
  /// come back mid-transfer).
  std::vector<RailOutage> rail_outages;

  /// Multi-switch core (the paper's §6 future work: "communication paths
  /// that consist of multiple switches"). 0 or 1 = one flat switch per
  /// rail. With G > 1, each rail gets G edge switches (nodes round-robin
  /// across groups) connected through one core switch per rail.
  int edge_groups = 1;
  /// Bandwidth of each edge-to-core uplink. Equal to the node links by
  /// default, i.e. an oversubscribed core.
  double core_uplink_gbps = 0.0;  // 0 = same as link.gbps
  /// Spine switches per rail (only meaningful with edge_groups > 1).
  /// 1 = the classic two-level tree with a single core. S > 1 = a folded
  /// Clos / fat-tree pod: every edge switch trunks to every spine and
  /// spreads flows across them with an ECMP hash at the edge.
  int spines = 1;
};

/// Two-level tree: `groups` edge switches per rail behind one core.
TopologyConfig two_level_topology(int nodes, int rails, int groups);
/// Fat-tree pod: `groups` edge switches per rail, each trunked to all
/// `spines` spine switches (ECMP across the uplinks).
TopologyConfig fat_tree_topology(int nodes, int rails, int groups, int spines);

/// NIC config presets matching the paper's hardware.
NicConfig broadcom_tg3_config();    // 1-GBit/s Broadcom Tigon 3
NicConfig intel_e1000_config();     // 1-GBit/s Intel PRO/1000
NicConfig myricom_10g_config();     // 10-GBit/s Myricom (tx irq unmaskable)

class Network {
 public:
  Network(sim::Simulator& sim, TopologyConfig config);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int num_nodes() const { return cfg_.num_nodes; }
  int rails() const { return cfg_.rails; }
  const TopologyConfig& config() const { return cfg_; }

  Nic& nic(int node, int rail) { return *nics_[node][rail]; }
  /// The switch node `0`'s group connects to on `rail` (the only switch in
  /// flat topologies).
  Switch& rail_switch(int rail) { return *switches_[rail * groups_per_rail_]; }
  Switch& edge_switch(int rail, int group) {
    return *switches_[rail * groups_per_rail_ + group];
  }
  Switch& core_switch(int rail) { return *cores_[rail * spines_per_rail_]; }
  Switch& spine_switch(int rail, int s) {
    return *cores_[rail * spines_per_rail_ + s];
  }
  int num_spines() const { return cores_.empty() ? 0 : spines_per_rail_; }
  bool has_core() const { return !cores_.empty(); }

  /// Channels for fault injection: node -> switch and switch -> node.
  Channel& uplink(int node, int rail) { return *uplinks_[node][rail]; }
  Channel& downlink(int node, int rail) { return *downlinks_[node][rail]; }

 private:
  sim::Simulator& sim_;
  TopologyConfig cfg_;
  int groups_per_rail_ = 1;
  int spines_per_rail_ = 1;
  std::vector<std::unique_ptr<Switch>> switches_;  // edge switches, rail-major
  std::vector<std::unique_ptr<Switch>> cores_;     // spines, rail-major
  std::vector<std::unique_ptr<Channel>> trunks_;   // edge<->core channels
  std::vector<std::vector<std::unique_ptr<Nic>>> nics_;          // [node][rail]
  std::vector<std::vector<std::unique_ptr<Channel>>> uplinks_;   // [node][rail]
  std::vector<std::vector<std::unique_ptr<Channel>>> downlinks_;
};

}  // namespace multiedge::net
