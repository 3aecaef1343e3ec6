#include "core/microbench.hpp"

#include <algorithm>
#include <cassert>

namespace multiedge {
namespace {

struct NetDropSnapshot {
  std::uint64_t total = 0;
};

NetDropSnapshot drops_now(Cluster& cluster) {
  NetDropSnapshot s;
  net::Network& net = cluster.network();
  for (int n = 0; n < net.num_nodes(); ++n) {
    for (int r = 0; r < net.rails(); ++r) {
      s.total += net.uplink(n, r).stats().frames_dropped;
      s.total += net.uplink(n, r).stats().frames_corrupted;
      s.total += net.downlink(n, r).stats().frames_dropped;
      s.total += net.downlink(n, r).stats().frames_corrupted;
      s.total += net.nic(n, r).stats().rx_ring_drops;
      s.total += net.nic(n, r).stats().rx_fcs_drops;
    }
  }
  for (int r = 0; r < net.rails(); ++r) {
    s.total += net.rail_switch(r).stats().tail_drops;
    s.total += net.rail_switch(r).stats().fcs_drops;
  }
  return s;
}

int auto_iterations(MicroBench bench, std::size_t size) {
  // Move a fixed data volume so small messages run long enough to reach
  // steady state without making large-message points needlessly slow.
  const std::size_t target = bench == MicroBench::kPingPong
                                 ? std::size_t{2} << 20
                                 : std::size_t{12} << 20;
  const auto it = static_cast<int>(target / std::max<std::size_t>(size, 1));
  return std::clamp(it, 8, bench == MicroBench::kPingPong ? 512 : 4096);
}

}  // namespace

std::string to_string(MicroBench b) {
  switch (b) {
    case MicroBench::kPingPong:
      return "ping-pong";
    case MicroBench::kOneWay:
      return "one-way";
    case MicroBench::kTwoWay:
      return "two-way";
  }
  return "?";
}

MicroResult run_micro(ClusterConfig cfg, MicroBench bench, MicroParams params) {
  cfg.topology.num_nodes = 2;
  const std::size_t size = params.message_bytes;
  const int iters =
      params.iterations > 0 ? params.iterations : auto_iterations(bench, size);

  Cluster cluster(cfg);

  const std::uint64_t src0 = cluster.memory(0).alloc(size);
  const std::uint64_t dst0 = cluster.memory(0).alloc(size);
  const std::uint64_t src1 = cluster.memory(1).alloc(size);
  const std::uint64_t dst1 = cluster.memory(1).alloc(size);

  struct Shared {
    sim::Time t_start = 0;
    sim::Time t_end = 0;
    sim::Time submit_time_total = 0;
    bool measuring = false;
    int warmups_done = 0;  // kTwoWay; its fibers outlive the case block
    stats::Counters base0, base1;
    std::uint64_t drops_base = 0;
    trace::LatencyHistogram lat_ns;
  } sh;

  auto begin_measurement = [&](Cluster& c) {
    c.reset_cpu_windows();
    sh.base0 = c.engine(0).aggregate_counters();
    sh.base1 = c.engine(1).aggregate_counters();
    sh.drops_base = drops_now(c).total;
    sh.t_start = c.sim().now();
    sh.measuring = true;
  };

  // Ordering guard for the completion notification of the last one-way op:
  // in out-of-order mode a later op may otherwise complete before earlier
  // ones, ending the measurement early.
  const std::uint16_t last_op_flags = static_cast<std::uint16_t>(
      kOpFlagNotify |
      (cfg.protocol.in_order_delivery ? kOpFlagNone : kOpFlagBackwardFence));

  switch (bench) {
    case MicroBench::kPingPong: {
      cluster.spawn(0, "pp0", [&](Endpoint& ep) {
        Connection c = ep.connect(1);
        // Warmup round trip.
        c.rdma_write(dst1, src0, static_cast<std::uint32_t>(size), kOpFlagNotify);
        ep.wait_notification();
        begin_measurement(cluster);
        for (int i = 0; i < iters; ++i) {
          const sim::Time t0 = cluster.sim().now();
          c.rdma_write(dst1, src0, static_cast<std::uint32_t>(size),
                       kOpFlagNotify);
          ep.wait_notification();
          // Half the round trip, in nanoseconds.
          sh.lat_ns.record(
              static_cast<std::uint64_t>((cluster.sim().now() - t0) / 2000));
        }
        sh.t_end = cluster.sim().now();
      });
      cluster.spawn(1, "pp1", [&](Endpoint& ep) {
        Connection c = ep.accept(0);
        for (int i = 0; i < iters + 1; ++i) {
          ep.wait_notification();
          c.rdma_write(dst0, src1, static_cast<std::uint32_t>(size),
                       kOpFlagNotify);
        }
      });
      break;
    }
    case MicroBench::kOneWay: {
      cluster.spawn(0, "ow0", [&](Endpoint& ep) {
        Connection c = ep.connect(1);
        c.rdma_write(dst1, src0, static_cast<std::uint32_t>(size), kOpFlagNotify)
            .wait();
        begin_measurement(cluster);
        for (int i = 0; i < iters; ++i) {
          const sim::Time t0 = cluster.sim().now();
          c.rdma_write(
              dst1, src0, static_cast<std::uint32_t>(size),
              i + 1 == iters ? last_op_flags : std::uint16_t{kOpFlagNone});
          sh.submit_time_total += cluster.sim().now() - t0;
          sh.lat_ns.record(
              static_cast<std::uint64_t>((cluster.sim().now() - t0) / 1000));
        }
      });
      cluster.spawn(1, "ow1", [&](Endpoint& ep) {
        ep.wait_notification();  // warmup
        ep.wait_notification();  // last measured op applied
        sh.t_end = cluster.sim().now();
      });
      break;
    }
    case MicroBench::kTwoWay: {
      for (int n = 0; n < 2; ++n) {
        cluster.spawn(n, "tw" + std::to_string(n), [&, n](Endpoint& ep) {
          const std::uint64_t my_src = n == 0 ? src0 : src1;
          const std::uint64_t peer_dst = n == 0 ? dst1 : dst0;
          Connection c = n == 0 ? ep.connect(1) : ep.accept(0);
          c.rdma_write(peer_dst, my_src, static_cast<std::uint32_t>(size),
                       kOpFlagNotify)
              .wait();
          ep.wait_notification();  // peer's warmup
          if (++sh.warmups_done == 2 && !sh.measuring) {
            begin_measurement(cluster);
          }
          // Both warmups seen on this node; the other node may start a hair
          // later, which is fine for steady-state measurement.
          for (int i = 0; i < iters; ++i) {
            const sim::Time t0 = cluster.sim().now();
            c.rdma_write(
                peer_dst, my_src, static_cast<std::uint32_t>(size),
                i + 1 == iters ? last_op_flags : std::uint16_t{kOpFlagNone});
            if (n == 0) {
              sh.submit_time_total += cluster.sim().now() - t0;
              sh.lat_ns.record(
                  static_cast<std::uint64_t>((cluster.sim().now() - t0) / 1000));
            }
          }
          ep.wait_notification();  // peer's last op landed here
          sh.t_end = std::max(sh.t_end, cluster.sim().now());
        });
      }
      break;
    }
  }

  cluster.run();
  assert(sh.t_end > sh.t_start);

  MicroResult r;
  const double elapsed_s = sim::to_sec(sh.t_end - sh.t_start);
  const double total_bytes =
      static_cast<double>(size) * iters *
      (bench == MicroBench::kOneWay ? 1.0 : 2.0);
  r.throughput_mbs = total_bytes / 1e6 / elapsed_s;
  if (bench == MicroBench::kPingPong) {
    r.latency_us = sim::to_us(sh.t_end - sh.t_start) / (2.0 * iters);
  } else {
    r.latency_us = sim::to_us(sh.submit_time_total) / iters;
  }
  r.cpu_utilization = std::max(cluster.protocol_cpu_utilization(0),
                               cluster.protocol_cpu_utilization(1));

  const stats::Counters d0 = cluster.engine(0).aggregate_counters().diff(sh.base0);
  const stats::Counters d1 = cluster.engine(1).aggregate_counters().diff(sh.base1);
  stats::Counters all = d0;
  all.merge(d1);
  r.data_frames = all.get("data_frames_rcvd");
  r.ooo_frames = all.get("ooo_frames_rcvd");
  r.ack_frames = all.get("ack_frames_sent");
  r.retransmissions = all.get("retransmissions");
  r.dropped_frames = drops_now(cluster).total - sh.drops_base;
  const std::uint64_t wakeups = all.get("thread_wakeups");
  r.coalescing_factor =
      wakeups ? static_cast<double>(all.get("thread_events")) / wakeups : 0.0;
  r.op_latency_ns = sh.lat_ns;
  return r;
}

}  // namespace multiedge
