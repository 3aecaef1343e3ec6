// MultiEdge wire format.
//
// Every MultiEdge frame is a raw Ethernet frame (ethertype 0x88B5) whose
// payload starts with this fixed header. Data-path frames (remote-write
// fragments, read-response fragments, read requests) carry a per-connection,
// per-direction sequence number and are covered by the sliding window;
// explicit ACK frames are unsequenced control traffic carrying the cumulative
// acknowledgment plus an optional NACK list. All frames — control or data —
// piggy-back the cumulative ACK of the reverse direction (§2.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/frame.hpp"

namespace multiedge::proto {

enum class FrameKind : std::uint8_t {
  kData = 1,      // remote-write or read-response fragment (sequenced)
  kReadReq = 2,   // remote-read request (sequenced, no payload)
  kAck = 3,       // explicit ACK/NACK (unsequenced)
  kConnSyn = 4,   // connection handshake
  kConnSynAck = 5,
  kConnAck = 6,
};

enum class OpType : std::uint8_t {
  kWrite = 1,
  kReadResp = 2,
  /// A scatter write: the operation payload is an encoded list of
  /// (offset, length, bytes) segments applied relative to remote_va when the
  /// operation completes. One operation ships an arbitrarily fragmented
  /// update (e.g. a DSM page diff) in a single wire message.
  kScatterWrite = 3,
  /// A gather read request (the read-side mirror of kScatterWrite): a kReadReq
  /// frame whose payload is an encoded segment list. The target serves every
  /// segment in one kGatherResp message, so the initiator sees one wire
  /// operation and one completion regardless of how fragmented the region is.
  kGatherRead = 4,
  /// Response to kGatherRead: a scatter payload applied relative to the
  /// initiator's local base (carried in the request's aux_va).
  kGatherResp = 5,
};

/// One segment of a scatter-write payload (offsets relative to remote_va).
struct ScatterChunk {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// Encode segments + data into a scatter payload: [u32 count] then per
/// segment [u32 offset][u32 length][length bytes].
std::vector<std::byte> encode_scatter_payload(
    std::span<const ScatterChunk> chunks,
    std::span<const std::span<const std::byte>> data);

/// Decode a scatter payload; returns false if malformed. `out` receives
/// (offset, data view) pairs into `payload`.
bool decode_scatter_payload(
    std::span<const std::byte> payload,
    std::vector<std::pair<std::uint32_t, std::span<const std::byte>>>& out);

/// One segment of a gather-read request: `length` bytes read from (remote
/// base + remote_offset), delivered at (initiator base + local_offset).
struct GatherChunk {
  std::uint32_t remote_offset = 0;
  std::uint32_t local_offset = 0;
  std::uint32_t length = 0;
};

/// Encode a gather request descriptor: [u32 count] then per segment
/// [u32 remote_offset][u32 local_offset][u32 length].
std::vector<std::byte> encode_gather_request(std::span<const GatherChunk> chunks);

/// Decode a gather request descriptor; returns false if malformed.
bool decode_gather_request(std::span<const std::byte> payload,
                           std::vector<GatherChunk>& out);

/// Operation flag bits (the `flags` bit-field of RDMA_operation, §2.2/§2.5).
enum OpFlags : std::uint16_t {
  kOpFlagNone = 0,
  /// Performed only after all previous operations to this destination.
  kOpFlagBackwardFence = 1u << 0,
  /// Subsequent operations performed only after this one.
  kOpFlagForwardFence = 1u << 1,
  /// Deliver a completion notification to the remote node.
  kOpFlagNotify = 1u << 2,
  /// The initiator blocks on this operation's acknowledgment: the receiver
  /// shortens its delayed-ack timer once the operation completes (solicited
  /// ack) instead of waiting out the full delay.
  kOpFlagSolicit = 1u << 3,
  /// Latency-critical operation (solicited-event semantics): its frames
  /// carry a priority bit that exempts them from the receiving NIC's
  /// interrupt moderation, so a lone small frame is handed to the protocol
  /// thread immediately instead of after the coalescing delay. Meant for
  /// synchronization messages (collective signals); bulk traffic should not
  /// set it, or moderation stops moderating.
  kOpFlagUrgent = 1u << 4,
  /// Selective signaling (DESIGN.md §15): this operation solicits prompt
  /// completion acknowledgment. Set by the sender's connection when
  /// ProtocolConfig::signal_interval > 1 — on every Nth op and on every
  /// fenced/urgent/notify/solicit op; with signal_interval == 1 (default)
  /// no op carries the bit and the wire image is byte-identical to the
  /// pre-batching protocol. Unsignaled ops complete via cumulative ACKs
  /// triggered by a later signaled op or the receiver's frame-count/timer
  /// thresholds.
  kOpFlagSignaled = 1u << 5,
  /// Submit-side hint, NEVER on the wire (stripped before fragmentation):
  /// with batch_submission, keep this op in the submission ring even if it
  /// carries urgent/fence flags (the caller batches a burst and flushes
  /// explicitly, preserving wire-level urgency without per-op doorbells).
  /// Inert when batch_submission is off.
  kOpFlagBatched = 1u << 6,
  /// Notify-without-signal wire class: the caller declares that nobody on
  /// the INITIATOR side is latency-blocked on this op's acknowledgment, so
  /// selective signaling (signal_interval > 1) may leave it unsignaled like
  /// a plain op — only the every-Nth cadence applies. Exempts the op from
  /// the force-signal normally implied by Notify, Urgent and BackwardFence;
  /// Solicit and ForwardFence still force signaling (the initiator resp. its
  /// successors genuinely block on the ack). Receiver-side semantics are
  /// unaffected: notification delivery and fence apply-order ride the data
  /// frames, not the ACK. Meant for fire-and-forget RPC responses (the KV
  /// server never waits on a response write); an op someone wait()s on
  /// should not carry it. Inert when signal_interval <= 1.
  kOpFlagQuietNotify = 1u << 7,
};

/// Bits 8..15 of op_flags carry an 8-bit notification tag, so independent
/// subsystems (DSM mailboxes, collectives) can demultiplex their completion
/// notifications without stealing each other's events. Tag 0 is the default
/// channel; the low flag byte is unaffected.
inline constexpr std::uint16_t kOpFlagTagShift = 8;

constexpr std::uint16_t op_tag_flags(std::uint8_t tag) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(tag)
                                    << kOpFlagTagShift);
}

constexpr std::uint8_t op_flags_tag(std::uint16_t flags) {
  return static_cast<std::uint8_t>(flags >> kOpFlagTagShift);
}

/// Sentinel for "no forward-fence dependency".
inline constexpr std::uint64_t kNoFenceDep = ~std::uint64_t{0};

struct WireHeader {
  FrameKind kind = FrameKind::kData;
  OpType op_type = OpType::kWrite;
  std::uint16_t op_flags = 0;
  std::uint32_t conn_id = 0;      // receiver's connection identifier
  std::uint16_t src_node = 0;     // sender node id (handshake / diagnostics)
  std::uint64_t seq = 0;          // data-path sequence number
  std::uint64_t ack = 0;          // cumulative ack of reverse direction
  std::uint64_t op_id = 0;        // dense per-direction operation number
  std::uint64_t ffence_dep = kNoFenceDep;  // op that must complete first
  std::uint64_t remote_va = 0;    // destination VA of this fragment
  std::uint64_t aux_va = 0;       // read request: initiator's destination VA
  std::uint32_t frag_offset = 0;  // fragment offset within the operation
  std::uint32_t op_size = 0;      // total operation size in bytes
  std::uint16_t nack_count = 0;   // NACKed seqs appended after the header

  /// Serialized header size in bytes (68 bytes of fields, padded to 72).
  static constexpr std::size_t kBytes = 72;
  /// Data payload available per frame after the header.
  static constexpr std::size_t kMaxData = net::Frame::kMtu - kBytes;
  /// NACK list entries that fit in one explicit ACK frame.
  static constexpr std::size_t kMaxNacks = kMaxData / sizeof(std::uint64_t);
};
static_assert(WireHeader::kMaxData == 1428);

/// Encode `hdr` (+ optional nack list + data payload) directly into a
/// frame's inline payload (exact size, zero heap traffic).
/// Layout: [header | nack seqs (8B each) | data bytes]. The header pad
/// region is zeroed explicitly, so a recycled pooled frame carries no stale
/// bytes.
void encode_frame_payload_into(net::Payload& out, const WireHeader& hdr,
                               std::span<const std::uint64_t> nacks = {},
                               std::span<const std::byte> data = {});

/// Decode result: header plus views into the carried nacks and data.
struct DecodedFrame {
  WireHeader hdr;
  std::vector<std::uint64_t> nacks;
  std::span<const std::byte> data;  // view into the source payload
};

/// Decode a frame payload. Returns false on malformed input (too short,
/// inconsistent lengths) — the protocol drops such frames as damaged.
bool decode_frame_payload(std::span<const std::byte> payload, DecodedFrame& out);

/// Byte offset of the cumulative-ack field within the serialized header.
/// The sender patches this immediately before (re)transmission so every
/// outgoing frame piggy-backs the freshest acknowledgment (§2.4).
inline constexpr std::size_t kAckFieldOffset = 20;

void patch_ack(std::span<std::byte> payload, std::uint64_t ack);

}  // namespace multiedge::proto
