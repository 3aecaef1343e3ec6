// Notified-write mailboxes (DESIGN.md §17 "Channels"), after RAMC's channel
// (PAPERS.md): a ring the producer writes into the consumer's memory.
//
//   rings   [src][ring_bytes]  src's ring, in every destination's memory
//   staging [ring_bytes]       the sender's own ring of outbound messages
//
// A Channel opens no connections and issues no writes: the caller stages the
// message at `staging_va` and issues the notified write to `remote_va` on its
// own path (connection, flags, fence, trace span), so its wire is unchanged.
// place() never splits a message across the ring end: one that would cross
// it restarts at offset 0, so a fixed `reserve` is slot-modulo addressing.
// Both regions are reserved, not committed: a ring is written one slot at a
// time, so only the slots a run uses ever fault in (host memory only; no
// simulated time changes).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/api.hpp"

namespace multiedge::rma {

class Channel {
 public:
  /// Where one message goes: its slot in the destination's ring and its
  /// staging slot in the sender's memory.
  struct Slot {
    std::uint64_t remote_va = 0;
    std::uint64_t staging_va = 0;
  };

  Channel() = default;
  /// Reserves the rings, then the staging ring, on every node
  /// (Cluster::reserve_symmetric: throws if the layout is not symmetric).
  Channel(Cluster& cluster, std::size_t ring_bytes, std::uint8_t tag)
      : num_nodes_(cluster.num_nodes()),
        ring_bytes_(ring_bytes),
        tag_(tag),
        rings_va_(cluster.reserve_symmetric(ring_bytes * num_nodes_)),
        staging_va_(cluster.reserve_symmetric(ring_bytes)),
        tails_(static_cast<std::size_t>(num_nodes_) * num_nodes_, 0),
        staging_tails_(num_nodes_, 0) {}

  /// Reserve `reserve` bytes for one message from `self` to `dst` and
  /// advance that pair's cursor and `self`'s staging cursor.
  Slot place(int self, int dst, std::size_t reserve) {
    if (reserve > ring_bytes_) {
      throw std::length_error("rma::Channel: message larger than its ring");
    }
    const std::uint64_t ring = rings_va_ + self * ring_bytes_;
    return {ring + advance(tails_[self * num_nodes_ + dst], reserve),
            staging_va_ + advance(staging_tails_[self], reserve)};
  }

  std::uint8_t tag() const { return tag_; }
  /// The region holding every source's ring (the same VA on every node).
  std::uint64_t rings_va() const { return rings_va_; }
  std::uint64_t rings_bytes() const { return ring_bytes_ * num_nodes_; }

 private:
  std::uint64_t advance(std::uint64_t& tail, std::size_t reserve) const {
    if (tail + reserve > ring_bytes_) tail = 0;
    const std::uint64_t off = tail;
    tail += reserve;
    return off;
  }

  int num_nodes_ = 0;
  std::size_t ring_bytes_ = 0;
  std::uint8_t tag_ = 0;
  std::uint64_t rings_va_ = 0;
  std::uint64_t staging_va_ = 0;
  std::vector<std::uint64_t> tails_;          // [self * num_nodes + dst]
  std::vector<std::uint64_t> staging_tails_;  // [self]
};

}  // namespace multiedge::rma
