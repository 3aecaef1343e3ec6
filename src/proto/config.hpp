// Protocol parameters and the host cost model.
//
// The paper fixes its protocol timers at compile time; so does this file:
// the ack, NACK and handshake timers below are constants. ProtocolConfig
// keeps the parameters some experiment varies (window size, delayed-ACK
// threshold, retransmission timeout, striping policy, in-order vs
// out-of-order delivery, batching). HostCostModel collects the per-operation
// CPU costs the simulation charges; its defaults are calibrated so
// micro-benchmarks land on the paper's measured envelope (see DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace multiedge::proto {

/// Load-balancing policy for striping frames over multiple links (§2.5).
enum class StripingPolicy : std::uint8_t {
  kRoundRobin,        // the paper's policy
  kRandom,            // ablation: uniform random link choice
  kShortestQueue,     // ablation: join-shortest-queue by free tx slots
};

/// Delayed-ACK timer (§2.4): an explicit ACK goes out this long after the
/// first acknowledgeable frame if the frame threshold was not reached. Acks
/// matter for the sender's buffer reclamation and completion reporting, not
/// for receiver progress, so the timer is generous — request/response
/// traffic piggy-backs most acknowledgments anyway.
inline constexpr sim::Time kAckTimeout = sim::us(500);
/// When an operation completes at the receiver its initiator is usually
/// blocked on the acknowledgment, so the ack timer is shortened to this at
/// the next receive lull — long enough for an application reply to
/// piggy-back it, short enough not to stall releases.
inline constexpr sim::Time kSolicitedAckDelay = sim::us(25);
/// A sequence gap is NACKed once it is this old, even below
/// ProtocolConfig::nack_frame_threshold...
inline constexpr sim::Time kNackTimeout = sim::us(500);
/// ...and re-reported if still open after this long.
inline constexpr sim::Time kRenackTimeout = sim::ms(1);
/// Connection handshake retry interval.
inline constexpr sim::Time kConnectRetryTimeout = sim::ms(10);
/// Max frames the protocol thread processes per CPU quantum before
/// re-evaluating (bounds batching latency).
inline constexpr std::uint32_t kThreadBatchFrames = 16;

struct ProtocolConfig {
  /// Sliding window size in frames (fixed size, frame-granularity, §2.4).
  std::size_t window_frames = 64;

  /// Delayed acknowledgements (§2.4): send an explicit ACK after this many
  /// unacknowledged data frames, or after kAckTimeout.
  std::uint32_t ack_threshold = 24;

  /// Coarse-grain retransmission timeout: if no positive ACK arrives for the
  /// last transmitted frame within this period, retransmit it (§2.4).
  sim::Time retransmit_timeout = sim::ms(5);

  /// NACK generation: a sequence gap is reported once this many later data
  /// frames arrived while it stayed open (tolerates striping reorder), or
  /// once it is kNackTimeout old. The threshold must sit well above the
  /// apparent reorder introduced by striping plus round-robin ring polling
  /// at the receiver (~2x the NIC interrupt-moderation batch); the timeout
  /// path catches real losses when traffic stalls before the frame
  /// threshold is reached.
  std::uint32_t nack_frame_threshold = 40;

  /// Strict frame-order delivery (the 2L-1G configuration). When false,
  /// fragments apply as they arrive subject only to fence constraints (2Lu).
  bool in_order_delivery = true;

  StripingPolicy striping = StripingPolicy::kRoundRobin;

  /// Instantiate the protocol InvariantChecker (see proto/invariants.hpp).
  /// Test instrumentation: defaults off; when off the only cost is one null
  /// pointer check per hook site.
  bool check_invariants = false;

  // --- Submission batching & selective signaling (DESIGN.md §15) ---------

  /// Doorbell-batched submission rings. When off (default), every submit_*
  /// pays syscall_cost and kicks the transmit path immediately — the
  /// pre-batching behavior, bit-identical counters. When on, non-urgent
  /// submits append a descriptor to a per-connection ring; the doorbell
  /// (one syscall_cost + submit_desc_cost per descriptor) is rung on an
  /// explicit flush(), when the ring reaches submit_ring_slots, or by the
  /// protocol thread's idle sweep. Urgent/fenced ops ring the doorbell
  /// eagerly unless tagged kOpFlagBatched by the caller.
  bool batch_submission = false;

  /// Ring-threshold doorbell: an append that fills the ring to this many
  /// descriptors rings the doorbell itself (bounds batching latency and
  /// ring memory). Must be >= 1.
  std::uint32_t submit_ring_slots = 16;

  /// Selective completion signaling: mark only every Nth op per connection
  /// as signaled (solicits prompt acknowledgment); fenced/urgent/notify/
  /// solicit ops are always signaled. 1 (default) = every op signaled, the
  /// pre-batching wire behavior. Unsignaled ops still complete — cumulative
  /// ACKs cover the unsignaled prefix when a signaled op or the receiver's
  /// frame-count/timer thresholds trigger an ACK.
  std::uint32_t signal_interval = 1;
};

/// CPU costs charged by the simulated hosts. All values are calibration
/// constants (the paper's testbed was dual-Opteron 244 @ 1.8 GHz with a
/// Linux 2.6.12 kernel); defaults reproduce the paper's measured envelope:
/// ~30 us minimum one-way latency, ~2 us host initiation overhead, >95% of
/// 1-GBit/s line rate, ~88% of 10-GBit/s (sender-side bound).
///
/// Units: every `sim::Time` field is picoseconds (sim::Time's base unit;
/// always constructed via the sim::ns/us helpers), charged as busy time on
/// exactly one simulated CPU per event. The two `*_ns_per_byte` fields are
/// nanoseconds per byte (doubles, so sub-ns/B memcpy rates are exact);
/// copy_cost_app/copy_cost_kernel convert them to sim::Time for a given
/// transfer size. Expected magnitude ordering, asserted by
/// tests/proto_config_test.cpp: per-byte costs (fractions of a ns/B)
/// < per-frame costs (tens of ns..~1 us: tx_complete < rx_frame <
/// tx_frame) < per-event kernel costs (~1 us+: syscall, irq, notify)
/// < thread_wakeup_cost (a full schedule + context switch, the most
/// expensive single event).
struct HostCostModel {
  /// Entering the kernel for RDMA_operation (user library -> protocol
  /// layer): trap, register save, capability checks. Charged once per
  /// submitted op — or, with batch_submission, once per DOORBELL, which is
  /// what makes doorbell coalescing pay.
  sim::Time syscall_cost = sim::us_d(1.2);
  /// Per-operation bookkeeping when an op is created (descriptor fill,
  /// window accounting). Charged per op even when batched.
  sim::Time op_build_cost = sim::ns(300);
  /// User -> kernel DMA-buffer copy on the initiating CPU, per byte
  /// (ns/B). ~3.3 GB/s: an uncached memcpy on the paper's Opterons.
  double app_copy_ns_per_byte = 0.30;
  /// Per-frame send cost: header construction + driver post + DMA descriptor.
  sim::Time tx_frame_cost = sim::ns(820);
  /// Reclaiming one send completion.
  sim::Time tx_complete_cost = sim::ns(60);
  /// Per-frame receive processing (protocol thread).
  sim::Time rx_frame_cost = sim::ns(600);
  /// Kernel -> user copy at the receiver, per byte (ns/B). Cheaper than
  /// app_copy: the kernel buffer is cache-warm from rx processing.
  double kernel_copy_ns_per_byte = 0.22;
  /// Interrupt entry + minimal handler (mask + signal protocol thread).
  sim::Time irq_cost = sim::us_d(1.5);
  /// Waking the protocol kernel thread (schedule + context switch).
  sim::Time thread_wakeup_cost = sim::us_d(3.0);
  /// Building and posting an explicit ACK/NACK frame.
  sim::Time ack_build_cost = sim::ns(400);
  /// Delivering a completion notification to user level (first
  /// notification of a batch: queue insert + waiter wakeup).
  sim::Time notify_cost = sim::us_d(1.0);
  /// Each ADDITIONAL notification delivered in the same harvest batch
  /// (batch_submission only): queue insert without a separate wakeup.
  sim::Time notify_item_cost = sim::ns(150);
  /// Per-descriptor cost of a doorbell drain (batch_submission only): the
  /// protocol layer walks the submission ring and validates/queues each
  /// descriptor. A doorbell covering n descriptors costs
  /// syscall_cost + n * submit_desc_cost — amortizing the kernel entry is
  /// the whole point of the ring.
  sim::Time submit_desc_cost = sim::ns(80);

  /// Preset for the paper's §6 future-work hybrid: a NIC that offloads the
  /// edge-protocol fast path (framing, ack processing, copies via DMA
  /// engines). Host costs shrink to command-queue interactions: the
  /// "syscall" is no longer a kernel trap at all but a single uncached
  /// MMIO store to the NIC's doorbell register (~500 ns posted-write
  /// latency on the paper-era PCI-X hosts), which is why syscall_cost
  /// drops 2.4x rather than to zero — the doorbell write itself is the
  /// irreducible cost, and exactly the one batch_submission amortizes.
  static HostCostModel offload() {
    HostCostModel c;
    c.syscall_cost = sim::ns(500);        // doorbell write, no kernel entry
    c.op_build_cost = sim::ns(150);
    c.app_copy_ns_per_byte = 0.0;         // NIC DMAs from user memory
    c.tx_frame_cost = sim::ns(120);       // descriptor only
    c.tx_complete_cost = sim::ns(40);
    c.rx_frame_cost = sim::ns(150);       // completion-queue entry
    c.kernel_copy_ns_per_byte = 0.0;      // NIC places data directly
    c.irq_cost = sim::us_d(1.2);
    c.thread_wakeup_cost = sim::us_d(2.0);
    c.ack_build_cost = 0;                 // acks generated on the NIC
    c.notify_cost = sim::ns(600);
    c.notify_item_cost = sim::ns(100);
    c.submit_desc_cost = sim::ns(40);     // NIC parses the ring via DMA
    return c;
  }

  sim::Time copy_cost_app(std::size_t bytes) const {
    return static_cast<sim::Time>(app_copy_ns_per_byte * bytes * sim::kNanosecond);
  }
  sim::Time copy_cost_kernel(std::size_t bytes) const {
    return static_cast<sim::Time>(kernel_copy_ns_per_byte * bytes *
                                  sim::kNanosecond);
  }
};

}  // namespace multiedge::proto
