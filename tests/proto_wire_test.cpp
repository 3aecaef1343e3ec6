#include "proto/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "net/frame_pool.hpp"

namespace multiedge::proto {
namespace {

// Encode into a frame taken from the shared pool, as the protocol does.
net::MutFramePtr encode(const WireHeader& h,
                        std::span<const std::uint64_t> nacks = {},
                        std::span<const std::byte> data = {}) {
  auto frame = net::frame_pool().acquire();
  encode_frame_payload_into(frame->payload, h, nacks, data);
  return frame;
}

TEST(Wire, HeaderRoundTrip) {
  WireHeader h;
  h.kind = FrameKind::kData;
  h.op_type = OpType::kReadResp;
  h.op_flags = kOpFlagNotify | kOpFlagBackwardFence;
  h.conn_id = 0xdeadbeef;
  h.src_node = 13;
  h.seq = 0x1122334455667788ull;
  h.ack = 42;
  h.op_id = 7;
  h.ffence_dep = 5;
  h.remote_va = 0xabcdef;
  h.aux_va = 0x123456;
  h.frag_offset = 4096;
  h.op_size = 65536;

  auto frame = encode(h);
  const net::Payload& payload = frame->payload;
  EXPECT_EQ(payload.size(), WireHeader::kBytes);

  DecodedFrame df;
  ASSERT_TRUE(decode_frame_payload(payload, df));
  EXPECT_EQ(df.hdr.kind, h.kind);
  EXPECT_EQ(df.hdr.op_type, h.op_type);
  EXPECT_EQ(df.hdr.op_flags, h.op_flags);
  EXPECT_EQ(df.hdr.conn_id, h.conn_id);
  EXPECT_EQ(df.hdr.src_node, h.src_node);
  EXPECT_EQ(df.hdr.seq, h.seq);
  EXPECT_EQ(df.hdr.ack, h.ack);
  EXPECT_EQ(df.hdr.op_id, h.op_id);
  EXPECT_EQ(df.hdr.ffence_dep, h.ffence_dep);
  EXPECT_EQ(df.hdr.remote_va, h.remote_va);
  EXPECT_EQ(df.hdr.aux_va, h.aux_va);
  EXPECT_EQ(df.hdr.frag_offset, h.frag_offset);
  EXPECT_EQ(df.hdr.op_size, h.op_size);
  EXPECT_TRUE(df.nacks.empty());
  EXPECT_TRUE(df.data.empty());
}

TEST(Wire, DataPayloadCarriedVerbatim) {
  WireHeader h;
  std::vector<std::byte> data(100);
  for (int i = 0; i < 100; ++i) data[i] = static_cast<std::byte>(i);
  auto frame = encode(h, {}, data);
  DecodedFrame df;
  ASSERT_TRUE(decode_frame_payload(frame->payload, df));
  ASSERT_EQ(df.data.size(), 100u);
  EXPECT_EQ(std::memcmp(df.data.data(), data.data(), 100), 0);
}

TEST(Wire, NackListRoundTrip) {
  WireHeader h;
  h.kind = FrameKind::kAck;
  std::vector<std::uint64_t> nacks{3, 5, 8, 1000000007};
  auto frame = encode(h, nacks);
  DecodedFrame df;
  ASSERT_TRUE(decode_frame_payload(frame->payload, df));
  EXPECT_EQ(df.nacks, nacks);
}

TEST(Wire, TruncatedPayloadRejected) {
  WireHeader h;
  auto frame = encode(h);
  const std::span<const std::byte> payload = frame->payload;
  DecodedFrame df;
  EXPECT_FALSE(decode_frame_payload(payload.first(WireHeader::kBytes - 1), df));
}

TEST(Wire, TruncatedNackListRejected) {
  WireHeader h;
  std::vector<std::uint64_t> nacks{1, 2, 3};
  auto frame = encode(h, nacks);
  const std::span<const std::byte> payload = frame->payload;
  DecodedFrame df;
  // Cut the last nack in half.
  EXPECT_FALSE(decode_frame_payload(payload.first(payload.size() - 4), df));
}

TEST(Wire, GarbageKindRejected) {
  WireHeader h;
  auto frame = encode(h);
  frame->payload[0] = static_cast<std::byte>(99);
  DecodedFrame df;
  EXPECT_FALSE(decode_frame_payload(frame->payload, df));
}

TEST(Wire, PatchAckRewritesOnlyAckField) {
  WireHeader h;
  h.seq = 111;
  h.ack = 7;
  std::vector<std::byte> data(16, std::byte{0x5a});
  auto frame = encode(h, {}, data);
  patch_ack(frame->payload, 999);
  DecodedFrame df;
  ASSERT_TRUE(decode_frame_payload(frame->payload, df));
  EXPECT_EQ(df.hdr.ack, 999u);
  EXPECT_EQ(df.hdr.seq, 111u);
  EXPECT_EQ(df.data.size(), 16u);
}

TEST(Wire, MaxDataFitsInMtu) {
  WireHeader h;
  std::vector<std::byte> data(WireHeader::kMaxData);
  auto frame = encode(h, {}, data);
  EXPECT_EQ(frame->payload.size(), net::Frame::kMtu);
}

TEST(Wire, RecycledFrameEncodesLikeFreshFrame) {
  WireHeader h;
  h.kind = FrameKind::kData;
  h.seq = 9;
  h.op_size = 3;
  const std::vector<std::uint64_t> nacks{4, 6};
  const std::vector<std::byte> data(3, std::byte{0x11});

  // A recycled frame still holds its previous contents; 0xff everywhere
  // makes any byte the encoder skips (such as the header pad) show up.
  auto dirty = net::frame_pool().acquire();
  dirty->payload.resize(net::Frame::kMtu);
  std::memset(dirty->payload.data(), 0xff, net::Frame::kMtu);
  encode_frame_payload_into(dirty->payload, h, nacks, data);

  auto fresh = std::make_unique<net::Frame>();
  encode_frame_payload_into(fresh->payload, h, nacks, data);

  ASSERT_EQ(dirty->payload.size(), fresh->payload.size());
  EXPECT_EQ(std::memcmp(dirty->payload.data(), fresh->payload.data(),
                        fresh->payload.size()),
            0);
}

TEST(Wire, HeaderOverheadFraction) {
  // A full data frame: 72B header inside 1538 wire bytes -> >=92% goodput,
  // consistent with the paper's ~95% of 1-GBit/s line rate claim.
  const double goodput = static_cast<double>(WireHeader::kMaxData) /
                         (net::Frame::kMtu + net::Frame::kHeaderBytes +
                          net::Frame::kFcsBytes + net::Frame::kPreambleIfgBytes);
  EXPECT_GT(goodput, 0.92);
}

}  // namespace
}  // namespace multiedge::proto
