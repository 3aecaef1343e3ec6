#include "net/topology.hpp"

namespace multiedge::net {

NicConfig broadcom_tg3_config() {
  NicConfig c;
  c.model = "tg3";
  c.gbps = 1.0;
  c.rx_dma_latency = sim::ns(700);
  c.tx_irq_maskable = true;
  c.irq_coalesce_frames = 8;
  c.irq_coalesce_delay = sim::us(18);
  return c;
}

NicConfig intel_e1000_config() {
  NicConfig c;
  c.model = "e1000";
  c.gbps = 1.0;
  c.rx_dma_latency = sim::ns(650);
  c.tx_irq_maskable = true;
  c.irq_coalesce_frames = 8;
  c.irq_coalesce_delay = sim::us(20);
  return c;
}

NicConfig myricom_10g_config() {
  NicConfig c;
  c.model = "myri10ge";
  c.gbps = 10.0;
  c.rx_dma_latency = sim::ns(500);
  // The paper reports the 10G NIC "does not allow us to disable the
  // interrupts on the send path that are used for freeing send buffers".
  c.tx_irq_maskable = false;
  c.irq_coalesce_frames = 24;
  c.irq_coalesce_delay = sim::us(15);
  return c;
}

TopologyConfig two_level_topology(int nodes, int rails, int groups) {
  TopologyConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rails = rails;
  cfg.edge_groups = groups;
  cfg.spines = 1;
  return cfg;
}

TopologyConfig fat_tree_topology(int nodes, int rails, int groups, int spines) {
  TopologyConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rails = rails;
  cfg.edge_groups = groups;
  cfg.spines = spines;
  return cfg;
}

Network::Network(sim::Simulator& sim, TopologyConfig config)
    : sim_(sim), cfg_(std::move(config)) {
  cfg_.nic.gbps = cfg_.link.gbps;
  groups_per_rail_ = std::max(1, cfg_.edge_groups);
  const bool tree = groups_per_rail_ > 1;

  std::uint64_t seed = cfg_.seed;
  auto next_seed = [&seed] { return seed += 0x9e3779b97f4a7c15ULL; };

  for (int r = 0; r < cfg_.rails; ++r) {
    for (int g = 0; g < groups_per_rail_; ++g) {
      switches_.push_back(std::make_unique<Switch>(
          sim_, SwitchConfig{},
          "switch" + std::to_string(r) + "." + std::to_string(g)));
    }
  }
  if (tree) {
    spines_per_rail_ = std::max(1, cfg_.spines);
    const double trunk_gbps =
        cfg_.core_uplink_gbps > 0 ? cfg_.core_uplink_gbps : cfg_.link.gbps;
    for (int r = 0; r < cfg_.rails; ++r) {
      for (int s = 0; s < spines_per_rail_; ++s) {
        // Spine 0 keeps the historical "coreN" name so diagnostics from the
        // original single-core two-level mode read the same.
        std::string name = "core" + std::to_string(r);
        if (s > 0) name += "." + std::to_string(s);
        cores_.push_back(
            std::make_unique<Switch>(sim_, SwitchConfig{}, std::move(name)));
      }
      for (int g = 0; g < groups_per_rail_; ++g) {
        Switch& edge = edge_switch(r, g);
        for (int s = 0; s < spines_per_rail_; ++s) {
          // Full-duplex trunk between edge switch (r,g) and spine (r,s).
          auto e2c = std::make_unique<Channel>(
              sim_, trunk_gbps, cfg_.link.propagation_delay, next_seed());
          auto c2e = std::make_unique<Channel>(
              sim_, trunk_gbps, cfg_.link.propagation_delay, next_seed());
          Switch& spine = spine_switch(r, s);
          FrameSink* core_sink = spine.add_port(c2e.get());
          FrameSink* edge_sink = edge.add_port(e2c.get(), /*uplink=*/true);
          e2c->set_sink(core_sink);
          c2e->set_sink(edge_sink);
          trunks_.push_back(std::move(e2c));
          trunks_.push_back(std::move(c2e));
        }
      }
    }
  }

  nics_.resize(cfg_.num_nodes);
  uplinks_.resize(cfg_.num_nodes);
  downlinks_.resize(cfg_.num_nodes);
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    const int group = n % groups_per_rail_;
    for (int r = 0; r < cfg_.rails; ++r) {
      auto nic = std::make_unique<Nic>(sim_, cfg_.nic, MacAddr::for_nic(n, r));
      auto up = std::make_unique<Channel>(sim_, cfg_.link.gbps,
                                          cfg_.link.propagation_delay,
                                          next_seed());
      auto down = std::make_unique<Channel>(sim_, cfg_.link.gbps,
                                            cfg_.link.propagation_delay,
                                            next_seed());
      for (Channel* ch : {up.get(), down.get()}) {
        FaultModel& fm = ch->faults();
        fm.drop_prob = cfg_.link.drop_prob;
        fm.corrupt_prob = cfg_.link.corrupt_prob;
        fm.dup_prob = cfg_.link.dup_prob;
        fm.jitter_max = cfg_.link.jitter_max;
        fm.burst = cfg_.link.burst;
        for (const RailOutage& o : cfg_.rail_outages) {
          if (o.rail == r && (o.node < 0 || o.node == n)) {
            fm.outages.push_back({o.start, o.end});
          }
        }
      }

      // node --up--> switch port; switch --down--> node.
      FrameSink* sw_sink = edge_switch(r, group).add_port(down.get());
      up->set_sink(sw_sink);
      down->set_sink(nic.get());
      nic->attach_tx(up.get());

      nics_[n].push_back(std::move(nic));
      uplinks_[n].push_back(std::move(up));
      downlinks_[n].push_back(std::move(down));
    }
  }
}

}  // namespace multiedge::net
