// Ethernet frame model.
//
// MultiEdge runs on raw Ethernet frames (no IP/TCP). The experimental
// switches in the paper did not support jumbo frames, so the payload is
// capped at the classic 1500-byte MTU. Timing includes the preamble, SFD and
// inter-frame gap, so achievable goodput on a 1-GBit/s link is ~117 MB/s for
// full frames — matching the ~120 MB/s the paper reports as line rate.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace multiedge::net {

struct MacAddr {
  std::array<std::uint8_t, 6> bytes{};

  /// Locally-administered address for NIC `nic` of node `node`: the node's
  /// high byte in byte 3 and its low byte in byte 4, so every node below
  /// 65,536 (the limit of the wire's 16-bit node fields) has its own MAC.
  static MacAddr for_nic(int node, int nic) {
    return MacAddr{{0x02, 0x4d, 0x45, static_cast<std::uint8_t>(node >> 8),
                    static_cast<std::uint8_t>(node),
                    static_cast<std::uint8_t>(nic)}};
  }

  friend bool operator==(const MacAddr&, const MacAddr&) = default;
  friend auto operator<=>(const MacAddr&, const MacAddr&) = default;

  std::string to_string() const;
};

/// Fixed-capacity inline payload storage: an MTU-sized small buffer living
/// inside the Frame itself, so building, pooling, or cloning a frame never
/// allocates. Keeps the std::vector surface the rest of the tree uses
/// (resize / size / data / operator[]) and converts to std::span for the
/// codecs. Capacity is the MTU; resize beyond it asserts.
class Payload {
 public:
  static constexpr std::size_t kCapacity = 1500;

  // User-provided (not defaulted) so a value-initialized Frame does not
  // zero the whole buffer; contents beyond size() are indeterminate, like
  // a vector's spare capacity.
  Payload() {}
  Payload(const Payload& o) : size_(o.size_) {
    std::memcpy(buf_, o.buf_, size_);
  }
  Payload& operator=(const Payload& o) {
    size_ = o.size_;
    std::memmove(buf_, o.buf_, size_);
    return *this;
  }
  Payload& operator=(std::span<const std::byte> s) {
    assign(s.data(), s.size());
    return *this;
  }
  Payload& operator=(const std::vector<std::byte>& v) {
    assign(v.data(), v.size());
    return *this;
  }

  /// Grow/shrink; grown bytes are zero-filled (std::vector semantics, which
  /// keeps recycled frames content-deterministic). Hot paths that overwrite
  /// every byte use resize_for_overwrite().
  void resize(std::size_t n) {
    assert(n <= kCapacity);
    if (n > size_) std::memset(buf_ + size_, 0, n - size_);
    size_ = n;
  }
  /// Set the size without touching the contents; the caller must write all
  /// `n` bytes (see encode_frame_payload_into).
  void resize_for_overwrite(std::size_t n) {
    assert(n <= kCapacity);
    size_ = n;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::byte* data() { return buf_; }
  const std::byte* data() const { return buf_; }
  std::byte& operator[](std::size_t i) { return buf_[i]; }
  const std::byte& operator[](std::size_t i) const { return buf_[i]; }

  operator std::span<std::byte>() { return {buf_, size_}; }
  operator std::span<const std::byte>() const { return {buf_, size_}; }

 private:
  void assign(const std::byte* p, std::size_t n) {
    assert(n <= kCapacity);
    std::memcpy(buf_, p, n);
    size_ = n;
  }

  std::size_t size_ = 0;
  std::byte buf_[kCapacity];
};

struct Frame {
  /// Maximum payload (no jumbo frames — see header comment).
  static constexpr std::size_t kMtu = Payload::kCapacity;
  /// Minimum payload (Ethernet 64-byte minimum frame).
  static constexpr std::size_t kMinPayload = 46;
  /// dst(6) + src(6) + ethertype(2).
  static constexpr std::size_t kHeaderBytes = 14;
  static constexpr std::size_t kFcsBytes = 4;
  /// Preamble(7) + SFD(1) + inter-frame gap(12) — occupy wire time only.
  static constexpr std::size_t kPreambleIfgBytes = 20;
  /// Ethertype claimed by the MultiEdge protocol (experimental range).
  static constexpr std::uint16_t kEthertypeMultiEdge = 0x88B5;

  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = kEthertypeMultiEdge;
  Payload payload;

  /// Set by the link error model: frame arrives but fails the FCS check.
  bool fcs_bad = false;

  /// Priority bit (802.1p-style): the receiving NIC treats this frame as a
  /// solicited event and fires its rx interrupt immediately instead of
  /// holding it back for moderation. Set by the protocol layer for frames
  /// of kOpFlagUrgent operations.
  bool urgent = false;

  /// Causal trace context of the operation this frame belongs to (0 = none).
  /// Carried out-of-band like fcs_bad/urgent: conceptually part of the
  /// protocol header, but kept off the serialized payload so wire_bytes()
  /// and therefore all timing stay identical whether or not a trace context
  /// is attached (tracing must remain a pure observer).
  std::uint64_t trace_id = 0;
  /// The sending operation's span id (the parent of the receiver-side span).
  std::uint64_t span_id = 0;

  /// Bytes that occupy the wire (for serialization-time computation).
  std::size_t wire_bytes() const {
    const std::size_t pay = payload.size() < kMinPayload ? kMinPayload : payload.size();
    return kHeaderBytes + pay + kFcsBytes + kPreambleIfgBytes;
  }
};

/// Read-only handle used once a frame is handed to the transport. Frames are
/// logically immutable in flight; the owning sender may patch one in place
/// (piggy-backed ACK refresh on retransmit) only while it holds the sole
/// reference — see Connection::try_transmit's copy-on-write check.
using FramePtr = std::shared_ptr<const Frame>;

/// Mutable handle used while a frame is being built or patched; converts
/// implicitly to FramePtr.
using MutFramePtr = std::shared_ptr<Frame>;

/// Anything that can accept a frame from a channel (NIC rx, switch port).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void deliver(FramePtr frame) = 0;
};

}  // namespace multiedge::net
