#include "apps/harness.hpp"

#include <stdexcept>

namespace multiedge::apps {
namespace {

std::uint64_t network_drops(Cluster& cluster) {
  std::uint64_t total = 0;
  net::Network& net = cluster.network();
  for (int n = 0; n < net.num_nodes(); ++n) {
    for (int r = 0; r < net.rails(); ++r) {
      total += net.uplink(n, r).stats().frames_dropped;
      total += net.downlink(n, r).stats().frames_dropped;
      total += net.nic(n, r).stats().rx_ring_drops;
      total += net.nic(n, r).stats().rx_fcs_drops;
    }
  }
  for (int r = 0; r < net.rails(); ++r) {
    total += net.rail_switch(r).stats().tail_drops;
  }
  return total;
}

struct NicTotals {
  std::uint64_t frames = 0;
  std::uint64_t interrupts = 0;
};

NicTotals nic_totals(Cluster& cluster) {
  NicTotals t;
  net::Network& net = cluster.network();
  for (int n = 0; n < net.num_nodes(); ++n) {
    for (int r = 0; r < net.rails(); ++r) {
      const auto& s = net.nic(n, r).stats();
      t.frames += s.tx_frames + s.rx_frames;
      t.interrupts += s.interrupts;
    }
  }
  return t;
}

}  // namespace

HarnessOptions setup_1l_1g() {
  HarnessOptions o;
  o.cluster = config_1l_1g(16);
  o.setup_name = "1L-1G";
  return o;
}
HarnessOptions setup_2l_1g() {
  HarnessOptions o;
  o.cluster = config_2l_1g(16);
  o.setup_name = "2L-1G";
  return o;
}
HarnessOptions setup_2lu_1g() {
  HarnessOptions o;
  o.cluster = config_2lu_1g(16);
  o.dsm.use_fences = true;  // Figure 6: order only what must be ordered
  o.setup_name = "2Lu-1G";
  return o;
}
HarnessOptions setup_1l_10g() {
  HarnessOptions o;
  o.cluster = config_1l_10g(4);
  o.setup_name = "1L-10G";
  return o;
}

AppRunResult run_app(const HarnessOptions& opts, const std::string& app_name,
                     const AppParams& params, int nodes) {
  std::unique_ptr<Application> app = make_app(app_name, params);

  dsm::DsmConfig dcfg = opts.dsm;
  dcfg.home_block_pages =
      std::max<std::size_t>(1, app->preferred_home_block_pages(nodes));
  // Size the shared region and node memory to the application.
  dcfg.shared_bytes =
      std::max(dcfg.shared_bytes, app->footprint_bytes() + (4u << 20));
  dcfg.enable_coll = dcfg.enable_coll || params.use_coll;
  ClusterConfig ccfg = opts.cluster;
  ccfg.topology.num_nodes = nodes;
  ccfg.memory_bytes_per_node = dcfg.mailbox_bytes * (nodes + 1) +
                               dcfg.shared_bytes + (std::size_t{8} << 20);
  if (dcfg.enable_coll) {
    // Collective staging (CollDomain) plus the apps' symmetric exchange
    // buffers, both carved from endpoint memory.
    ccfg.memory_bytes_per_node +=
        8 * dcfg.coll_max_data_bytes + app->footprint_bytes();
  }
  Cluster cluster(ccfg);

  dsm::DsmSystem sys(cluster, dcfg);
  app->setup(sys);

  struct Capture {
    sim::Time t0 = 0, t1 = 0;
    std::vector<dsm::DsmNodeStats> dsm0;
    stats::Counters conns0;
    std::uint64_t drops0 = 0;
    NicTotals nics0;
  } cap;

  sys.run([&](dsm::Dsm& d) {
    app->init(d);
    d.barrier();
    if (d.rank() == 0) {
      cluster.reset_cpu_windows();
      cap.dsm0.clear();
      for (int i = 0; i < nodes; ++i) cap.dsm0.push_back(sys.node(i).stats());
      cap.conns0 = stats::Counters{};
      for (int i = 0; i < nodes; ++i) {
        cap.conns0.merge(cluster.engine(i).aggregate_counters());
      }
      cap.drops0 = network_drops(cluster);
      cap.nics0 = nic_totals(cluster);
      cap.t0 = cluster.sim().now();
    }
    d.barrier();
    app->run(d);
    d.barrier();
    if (d.rank() == 0) cap.t1 = cluster.sim().now();
  });

  AppRunResult r;
  r.app = app_name;
  r.setup = opts.setup_name;
  r.nodes = nodes;
  r.parallel_ms = sim::to_ms(cap.t1 - cap.t0);
  r.checksum = app->checksum(sys);

  const double elapsed = sim::to_ms(cap.t1 - cap.t0);
  for (int i = 0; i < nodes; ++i) {
    const dsm::DsmNodeStats& s1 = sys.node(i).stats();
    const dsm::DsmNodeStats& s0 = cap.dsm0[i];
    NodeBreakdown b;
    b.compute_ms = sim::to_ms(s1.compute - s0.compute);
    b.data_wait_ms = sim::to_ms(s1.data_wait - s0.data_wait);
    b.lock_wait_ms = sim::to_ms(s1.lock_wait - s0.lock_wait);
    b.barrier_wait_ms = sim::to_ms(s1.barrier_wait - s0.barrier_wait);
    b.dsm_overhead_ms = sim::to_ms(s1.overhead - s0.overhead);
    b.protocol_cpu = cluster.protocol_cpu_utilization(i);
    r.per_node.push_back(b);
    (void)elapsed;
  }

  stats::Counters conns1;
  for (int i = 0; i < nodes; ++i) {
    conns1.merge(cluster.engine(i).aggregate_counters());
  }
  const stats::Counters d = conns1.diff(cap.conns0);
  r.data_frames = d.get("data_frames_rcvd");
  r.ooo_frames = d.get("ooo_frames_rcvd");
  r.ack_frames = d.get("ack_frames_sent");
  r.retransmissions = d.get("retransmissions");
  r.dropped_frames = network_drops(cluster) - cap.drops0;
  const NicTotals nt = nic_totals(cluster);
  r.nic_frames = nt.frames - cap.nics0.frames;
  r.interrupts = nt.interrupts - cap.nics0.interrupts;
  return r;
}

}  // namespace multiedge::apps
