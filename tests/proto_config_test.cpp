// Sanity checks on the HostCostModel calibration constants and the
// ProtocolConfig defaults (see the units/ordering contract documented in
// src/proto/config.hpp). These are relationship asserts, not golden values:
// retuning a constant is fine as long as the magnitude ordering that the
// simulation's cost accounting relies on still holds.
#include <gtest/gtest.h>

#include "proto/config.hpp"

namespace multiedge::proto {
namespace {

// Per-frame costs: reclaiming a send completion (a ring-slot read) is the
// cheapest, below both receive processing and the send path. The full
// tx_complete < rx_frame < tx_frame chain only holds for the host-resident
// default model (the offload preset shrinks the send path to a bare
// descriptor post, dropping tx_frame below rx_frame), so the rx/tx order is
// asserted per-model, not here.
void expect_frame_cost_ordering(const HostCostModel& c) {
  EXPECT_GT(c.tx_complete_cost, 0);
  EXPECT_LT(c.tx_complete_cost, c.rx_frame_cost);
  EXPECT_LT(c.tx_complete_cost, c.tx_frame_cost);
}

// Per-event kernel costs (syscall, irq, notify) dominate per-frame costs,
// and waking the protocol thread (full schedule + context switch) is the
// most expensive single event of all.
void expect_event_cost_ordering(const HostCostModel& c) {
  EXPECT_GT(c.syscall_cost, c.tx_frame_cost);
  EXPECT_GT(c.irq_cost, c.tx_frame_cost);
  EXPECT_GT(c.notify_cost, c.tx_frame_cost);
  EXPECT_GT(c.thread_wakeup_cost, c.syscall_cost);
  EXPECT_GT(c.thread_wakeup_cost, c.irq_cost);
  EXPECT_GT(c.thread_wakeup_cost, c.notify_cost);
}

// The batching amortization constants only pay off if the marginal
// per-descriptor / per-item cost is well below the per-event cost it
// replaces: a doorbell covering n descriptors costs
// syscall + n * submit_desc, which must undercut n * syscall for any n >= 2;
// a notification batch of n costs notify + (n-1) * notify_item, which must
// undercut n * notify.
void expect_batching_amortization(const HostCostModel& c) {
  EXPECT_GT(c.submit_desc_cost, 0);
  EXPECT_LT(c.submit_desc_cost, c.syscall_cost);
  EXPECT_GT(c.notify_item_cost, 0);
  EXPECT_LT(c.notify_item_cost, c.notify_cost);
  // n = 2, the smallest batch that must already win.
  EXPECT_LT(c.syscall_cost + 2 * c.submit_desc_cost, 2 * c.syscall_cost);
  EXPECT_LT(c.notify_cost + c.notify_item_cost, 2 * c.notify_cost);
}

TEST(HostCostModel, DefaultOrderingHolds) {
  const HostCostModel c;
  expect_frame_cost_ordering(c);
  // Host-resident model: header build + driver post make the send path the
  // most expensive per-frame cost.
  EXPECT_LT(c.rx_frame_cost, c.tx_frame_cost);
  expect_event_cost_ordering(c);
  expect_batching_amortization(c);
  // Per-byte copy rates are fractions of a ns/B (GB/s-class memcpy), and
  // the receive-side copy is cache-warm, hence cheaper.
  EXPECT_GT(c.app_copy_ns_per_byte, 0.0);
  EXPECT_LT(c.app_copy_ns_per_byte, 1.0);
  EXPECT_GT(c.kernel_copy_ns_per_byte, 0.0);
  EXPECT_LT(c.kernel_copy_ns_per_byte, c.app_copy_ns_per_byte);
  EXPECT_GT(c.op_build_cost, 0);
  EXPECT_LT(c.op_build_cost, c.syscall_cost);
  EXPECT_GT(c.ack_build_cost, 0);
  EXPECT_LT(c.ack_build_cost, c.syscall_cost);
}

TEST(HostCostModel, CopyHelpersScaleLinearly) {
  const HostCostModel c;
  EXPECT_EQ(c.copy_cost_app(0), 0);
  EXPECT_EQ(c.copy_cost_kernel(0), 0);
  // 0.30 ns/B * 1000 B = 300 ns, exactly representable in ps.
  EXPECT_EQ(c.copy_cost_app(1000), sim::ns(300));
  EXPECT_EQ(c.copy_cost_kernel(1000), sim::ns(220));
  EXPECT_LT(c.copy_cost_kernel(4096), c.copy_cost_app(4096));
}

TEST(HostCostModel, OffloadPresetShrinksEveryCost) {
  const HostCostModel d;
  const HostCostModel o = HostCostModel::offload();
  // The "syscall" becomes a single uncached MMIO doorbell write (~500 ns on
  // paper-era PCI-X), not zero: the doorbell itself is the irreducible cost
  // batch_submission amortizes.
  EXPECT_EQ(o.syscall_cost, sim::ns(500));
  EXPECT_LT(o.syscall_cost, d.syscall_cost);
  EXPECT_GT(o.syscall_cost, 0);
  // Every other host cost shrinks (or vanishes where the NIC absorbs it)...
  EXPECT_LT(o.op_build_cost, d.op_build_cost);
  EXPECT_LT(o.tx_frame_cost, d.tx_frame_cost);
  EXPECT_LT(o.tx_complete_cost, d.tx_complete_cost);
  EXPECT_LT(o.rx_frame_cost, d.rx_frame_cost);
  EXPECT_LT(o.irq_cost, d.irq_cost);
  EXPECT_LT(o.thread_wakeup_cost, d.thread_wakeup_cost);
  EXPECT_LT(o.notify_cost, d.notify_cost);
  EXPECT_LT(o.notify_item_cost, d.notify_item_cost);
  EXPECT_LT(o.submit_desc_cost, d.submit_desc_cost);
  EXPECT_EQ(o.app_copy_ns_per_byte, 0.0);     // NIC DMAs from user memory
  EXPECT_EQ(o.kernel_copy_ns_per_byte, 0.0);  // NIC places data directly
  EXPECT_EQ(o.ack_build_cost, 0);             // acks generated on the NIC
  // ...and the orderings the accounting relies on still hold.
  expect_frame_cost_ordering(o);
  expect_batching_amortization(o);
  EXPECT_GT(o.thread_wakeup_cost, o.syscall_cost);
  EXPECT_GT(o.thread_wakeup_cost, o.irq_cost);
  EXPECT_GT(o.thread_wakeup_cost, o.notify_cost);
}

TEST(ProtocolConfig, DefaultsPreserveUnbatchedBehavior) {
  const ProtocolConfig cfg;
  // Batching must default off and signaling to every-op so existing configs
  // keep bit-identical golden counter fingerprints.
  EXPECT_FALSE(cfg.batch_submission);
  EXPECT_EQ(cfg.signal_interval, 1u);
  EXPECT_GE(cfg.submit_ring_slots, 1u);
  // The ring threshold must sit below the sliding window or a full ring of
  // descriptors could never be in flight at once.
  EXPECT_LE(cfg.submit_ring_slots, cfg.window_frames);
}

TEST(ProtocolConfig, AckAndRetransmitTimersAreOrdered) {
  const ProtocolConfig cfg;
  // Delayed-ack frame threshold must fit inside the window, else the
  // sender's window drains before the receiver ever acks.
  EXPECT_LT(cfg.ack_threshold, cfg.window_frames);
  // Solicited acks are a shortened ack timer, and both ack timers must fire
  // well before the sender's coarse retransmission timeout.
  EXPECT_LT(kSolicitedAckDelay, kAckTimeout);
  EXPECT_LT(kAckTimeout, cfg.retransmit_timeout);
  // NACK escalation: first report, then re-report, then the RTO backstop.
  EXPECT_LE(kNackTimeout, kRenackTimeout);
  EXPECT_LT(kRenackTimeout, cfg.retransmit_timeout);
}

}  // namespace
}  // namespace multiedge::proto
