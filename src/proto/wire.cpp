#include "proto/wire.hpp"

#include <cassert>
#include <cstring>

namespace multiedge::proto {
namespace {

// Little-endian scalar packing. The simulator always runs on one host, but
// explicit serialization keeps the wire image well-defined and lets tests
// assert header-size/overhead properties independent of struct layout.
template <typename T>
void put(std::byte* base, std::size_t& off, T value) {
  std::memcpy(base + off, &value, sizeof value);
  off += sizeof value;
}

template <typename T>
bool take(std::span<const std::byte> buf, std::size_t& off, T& value) {
  if (off + sizeof value > buf.size()) return false;
  std::memcpy(&value, buf.data() + off, sizeof value);
  off += sizeof value;
  return true;
}

}  // namespace

void encode_frame_payload_into(net::Payload& out, const WireHeader& hdr,
                               std::span<const std::uint64_t> nacks,
                               std::span<const std::byte> data) {
  const std::size_t total = WireHeader::kBytes + nacks.size() * 8 + data.size();
  assert(total <= net::Frame::kMtu && "encoded frame exceeds MTU");
  out.resize_for_overwrite(total);  // every byte is written below
  std::byte* base = out.data();
  std::size_t off = 0;
  put(base, off, static_cast<std::uint8_t>(hdr.kind));
  put(base, off, static_cast<std::uint8_t>(hdr.op_type));
  put(base, off, hdr.op_flags);
  put(base, off, hdr.conn_id);
  put(base, off, hdr.src_node);
  put(base, off, static_cast<std::uint16_t>(nacks.size()));
  put(base, off, hdr.seq);
  put(base, off, hdr.ack);
  put(base, off, hdr.op_id);
  put(base, off, hdr.ffence_dep);
  put(base, off, hdr.remote_va);
  put(base, off, hdr.aux_va);
  put(base, off, hdr.frag_offset);
  put(base, off, hdr.op_size);
  // Zero the rest of the fixed header region: a recycled pooled frame must
  // not leak stale bytes into the pad.
  std::memset(base + off, 0, WireHeader::kBytes - off);
  off = WireHeader::kBytes;
  for (std::uint64_t n : nacks) put(base, off, n);
  if (!data.empty()) {
    std::memcpy(base + off, data.data(), data.size());
  }
}

bool decode_frame_payload(std::span<const std::byte> payload, DecodedFrame& out) {
  if (payload.size() < WireHeader::kBytes) return false;
  std::size_t off = 0;
  std::uint8_t kind = 0, op_type = 0;
  std::uint16_t nack_count = 0;
  WireHeader& h = out.hdr;
  if (!take(payload, off, kind) || !take(payload, off, op_type) ||
      !take(payload, off, h.op_flags) || !take(payload, off, h.conn_id) ||
      !take(payload, off, h.src_node) || !take(payload, off, nack_count) ||
      !take(payload, off, h.seq) || !take(payload, off, h.ack) ||
      !take(payload, off, h.op_id) || !take(payload, off, h.ffence_dep) ||
      !take(payload, off, h.remote_va) || !take(payload, off, h.aux_va) ||
      !take(payload, off, h.frag_offset) || !take(payload, off, h.op_size)) {
    return false;
  }
  h.kind = static_cast<FrameKind>(kind);
  h.op_type = static_cast<OpType>(op_type);
  h.nack_count = nack_count;
  if (kind < 1 || kind > 6) return false;

  off = WireHeader::kBytes;
  out.nacks.clear();
  out.nacks.reserve(nack_count);
  for (std::uint16_t i = 0; i < nack_count; ++i) {
    std::uint64_t n = 0;
    if (!take(payload, off, n)) return false;
    out.nacks.push_back(n);
  }
  out.data = payload.subspan(off);
  return true;
}

std::vector<std::byte> encode_scatter_payload(
    std::span<const ScatterChunk> chunks,
    std::span<const std::span<const std::byte>> data) {
  std::size_t total = 4;
  for (std::size_t i = 0; i < chunks.size(); ++i) total += 8 + chunks[i].length;
  std::vector<std::byte> out;
  out.reserve(total);  // exact reservation: one allocation, never regrown
  out.resize(total);
  [[maybe_unused]] const std::byte* base = out.data();
  std::size_t off = 0;
  put(out.data(), off, static_cast<std::uint32_t>(chunks.size()));
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    put(out.data(), off, chunks[i].offset);
    put(out.data(), off, chunks[i].length);
    std::memcpy(out.data() + off, data[i].data(), chunks[i].length);
    off += chunks[i].length;
  }
  assert(out.data() == base && off == total &&
         "encode_scatter_payload reallocated");
  return out;
}

bool decode_scatter_payload(
    std::span<const std::byte> payload,
    std::vector<std::pair<std::uint32_t, std::span<const std::byte>>>& out) {
  out.clear();
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!take(payload, off, count)) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t seg_off = 0, seg_len = 0;
    if (!take(payload, off, seg_off) || !take(payload, off, seg_len)) {
      return false;
    }
    if (off + seg_len > payload.size()) return false;
    out.emplace_back(seg_off, payload.subspan(off, seg_len));
    off += seg_len;
  }
  return true;
}

std::vector<std::byte> encode_gather_request(
    std::span<const GatherChunk> chunks) {
  const std::size_t total = 4 + chunks.size() * 12;
  std::vector<std::byte> out;
  out.reserve(total);  // exact reservation: one allocation, never regrown
  out.resize(total);
  std::size_t off = 0;
  put(out.data(), off, static_cast<std::uint32_t>(chunks.size()));
  for (const GatherChunk& c : chunks) {
    put(out.data(), off, c.remote_offset);
    put(out.data(), off, c.local_offset);
    put(out.data(), off, c.length);
  }
  assert(off == total);
  return out;
}

bool decode_gather_request(std::span<const std::byte> payload,
                           std::vector<GatherChunk>& out) {
  out.clear();
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!take(payload, off, count)) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 12) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GatherChunk c;
    if (!take(payload, off, c.remote_offset) ||
        !take(payload, off, c.local_offset) || !take(payload, off, c.length)) {
      return false;
    }
    out.push_back(c);
  }
  return true;
}

void patch_ack(std::span<std::byte> payload, std::uint64_t ack) {
  std::memcpy(payload.data() + kAckFieldOffset, &ack, sizeof ack);
}

}  // namespace multiedge::proto
