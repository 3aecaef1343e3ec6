// RDMA-native collective communication over the MultiEdge core API.
//
// The design follows the one-sided-RMA collectives literature (dissemination
// barriers, binomial trees, ring all-reduce) rather than manager-mediated
// schemes: every primitive is built from rdma_write / rdma_gather_read plus
// the protocol's fence and notification machinery — no central coordinator,
// no request/reply mailboxes.
//
// Memory model. Collectives assume SYMMETRIC virtual addresses: a user
// buffer passed to broadcast / all_reduce / all_to_all must sit at the same
// VA on every node (guaranteed when every node allocates in the same order —
// the same invariant the DSM relies on). The CollDomain allocates its own
// symmetric scratch once per cluster: per-source signal slots and a staging
// region for reduce trees and ring steps.
//
// Synchronization. A "signal" is an 8-byte notified put (rma::Window
// put_notify) into the receiver's (sender, channel) slot, tagged kTagColl
// (core/api.hpp) so DSM traffic is never stolen. Every signal is urgent and
// backward-fenced, which makes the receiver apply it only after every
// previously submitted operation on that connection completed. That
// gives two properties at once: "signal received" implies "all preceding
// data landed" (in both in-order 2L and out-of-order 2Lu delivery modes),
// and signals from one sender are delivered FIFO, so the i-th token consumed
// from a peer is the i-th token it sent — token counting per (source, slot)
// then stays correct across back-to-back collectives even when a fast rank
// races ahead into the next one.
//
// Pipelining. Bulk payloads are split into chunks of roughly
// window_frames * kMaxData bytes (one sliding-window's worth), so
// consecutive chunks overlap in flight and multi-rail striping keeps both
// rails busy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <stdexcept>

#include "core/api.hpp"
#include "member/member.hpp"
#include "rma/rma.hpp"
#include "stats/counters.hpp"

namespace multiedge::coll {

/// Thrown out of a collective when an attached membership view marks a peer
/// whose signal we are waiting on as Dead. Without membership attached,
/// collectives keep the original semantics (block forever on a dead peer —
/// the caller is expected to run under a failure-free assumption).
struct PeerFailure : std::runtime_error {
  explicit PeerFailure(int peer_node)
      : std::runtime_error("coll: peer " + std::to_string(peer_node) +
                           " marked dead during a collective"),
        peer(peer_node) {}
  int peer;
};

/// Algorithm selector, pluggable per primitive. kLinear is the naive
/// fan-in/fan-out fallback every other algorithm is differentially tested
/// against.
enum class CollAlgo : std::uint8_t {
  kLinear,
  kDissemination,  // barrier
  kBinomialTree,   // broadcast, reduce, all_reduce (reduce+broadcast)
  kRing,           // all_reduce
  kPairwise,       // all_to_all
};

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };
enum class DType : std::uint8_t { kF64, kU64 };

inline constexpr std::uint32_t dtype_bytes(DType) { return 8; }

/// Collective kinds (trace span identifiers).
enum class CollKind : std::uint8_t {
  kBarrier = 1,
  kBroadcast = 2,
  kReduce = 3,
  kAllReduce = 4,
  kAllToAll = 5,
  kAllToAllV = 6,
};

struct CollConfig {
  CollAlgo barrier_algo = CollAlgo::kDissemination;
  CollAlgo broadcast_algo = CollAlgo::kBinomialTree;
  CollAlgo reduce_algo = CollAlgo::kBinomialTree;
  CollAlgo all_reduce_algo = CollAlgo::kRing;
  CollAlgo all_to_all_algo = CollAlgo::kPairwise;

  /// Upper bound on one broadcast/reduce payload per node (sizes the
  /// symmetric staging region; ring all-reduce admits up to ~2x this).
  std::size_t max_data_bytes = std::size_t{1} << 20;

  /// Local combine cost (reduction arithmetic), charged to the app CPU.
  double combine_ns_per_byte = 0.5;
  /// Local pack/copy cost for staging moves, charged to the app CPU.
  double copy_ns_per_byte = 0.3;
};

/// Cluster-wide collective context: allocates the symmetric signal-slot and
/// staging memory on every node. Construct host-side (before Cluster::run),
/// exactly once per cluster, after any other symmetric allocations.
class CollDomain {
 public:
  CollDomain(Cluster& cluster, CollConfig cfg = {});

  Cluster& cluster() { return cluster_; }
  const CollConfig& config() const { return cfg_; }
  int num_nodes() const { return num_nodes_; }

  /// Channels of the per-source signal-slot array.
  static constexpr int kChanData = 0;
  static constexpr int kChanSync = 1;
  static constexpr int kNumChannels = 2;

  /// VA (symmetric) of the slot written by `src` on channel `chan`.
  std::uint64_t slot_va(int src, int chan) const {
    return slots_va_ + (static_cast<std::uint64_t>(src) * kNumChannels + chan) * 8;
  }
  /// VA (symmetric) of the 8-byte signal-source scratch word.
  std::uint64_t sig_src_va() const { return sig_src_va_; }

  // Staging layout (symmetric; writers per region are disjoint so one rank
  // racing ahead into the next collective can never clobber state a slower
  // rank still needs — see the per-algorithm comments in coll.cpp):
  //   [0, max)        reduce-tree contribution buffer (written locally only)
  //   [max, 2*max)    reduce-tree landing buffer (gather-read responses)
  //   [2*max, 4*max)  ring reduce-scatter slots (written by left neighbor)
  //   [4*max, ...)    all_to_all_v count row + n*n count matrix
  std::uint64_t staging_va() const { return staging_va_; }
  std::uint64_t contrib_va() const { return staging_va_; }
  std::uint64_t landing_va() const { return staging_va_ + cfg_.max_data_bytes; }
  std::uint64_t ring_slots_va() const {
    return staging_va_ + 2 * cfg_.max_data_bytes;
  }
  std::size_t ring_slots_bytes() const { return 2 * cfg_.max_data_bytes; }
  std::uint64_t counts_row_va() const {
    return staging_va_ + 4 * cfg_.max_data_bytes;
  }
  std::uint64_t counts_matrix_va() const;

 private:
  Cluster& cluster_;
  CollConfig cfg_;
  int num_nodes_;
  std::uint64_t slots_va_ = 0;
  std::uint64_t sig_src_va_ = 0;
  std::uint64_t staging_va_ = 0;
};

/// Per-node collective communicator. Construct one per node over that node's
/// Endpoint (host-side or in-fiber; connections are made lazily on first
/// use, from fiber context). Calls are collective: every rank must invoke
/// the same primitive with the same parameters, in the same order.
class Communicator {
 public:
  Communicator(CollDomain& domain, Endpoint& ep);

  int rank() const { return rank_; }
  int size() const { return size_; }
  const CollConfig& config() const { return domain_.config(); }

  /// Attach this rank's membership view: signal waits become fail-fast,
  /// throwing PeerFailure when the awaited peer is marked Dead. The extra
  /// polling path is taken ONLY when a view is attached, so failure-free
  /// benchmarks keep their exact original behavior (and fingerprints).
  void set_membership(const member::View* view) { member_view_ = view; }

  /// Block until every rank entered the barrier.
  void barrier();

  /// Replicate root's [va, va+bytes) to every rank's va.
  void broadcast(std::uint64_t va, std::uint32_t bytes, int root);

  /// Element-wise reduction of every rank's [va, ...) into root's va.
  /// Non-root buffers are left untouched.
  void reduce(std::uint64_t va, std::uint32_t count, DType dt, ReduceOp op,
              int root);

  /// Element-wise reduction, result replicated to every rank's va.
  void all_reduce(std::uint64_t va, std::uint32_t count, DType dt, ReduceOp op);

  /// Fixed-block exchange: rank s's send block d (send_va + d*block_bytes)
  /// lands in rank d's recv block s (recv_va + s*block_bytes).
  void all_to_all(std::uint64_t send_va, std::uint64_t recv_va,
                  std::uint32_t block_bytes);

  /// Variable-size exchange. `send_bytes[d]` is how many bytes this rank
  /// sends to rank d; send blocks are packed contiguously by destination
  /// rank in send_va, received blocks land packed by source rank in recv_va.
  /// Returns the full n*n count matrix (row s, column d = bytes s sent to
  /// d), from which callers derive the receive layout.
  std::vector<std::uint32_t> all_to_all_v(
      std::uint64_t send_va, std::uint64_t recv_va,
      const std::vector<std::uint32_t>& send_bytes);

  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

 private:
  Connection& conn_to(int peer);

  // -- signal plumbing (see file comment) --
  // Signals ride the communicator's rma::Window: signal() is a put_notify
  // that also closes the access epoch the preceding put() opened (the fenced
  // urgent notify is what publishes the epoch's data), consume_signal() is a
  // wait_notify/test_notify match on (source, slot address).
  void signal(int peer, int chan);
  void consume_signal(int src, int chan);

  // -- bulk data movement --
  std::uint32_t chunk_bytes() const;
  void put(int peer, std::uint64_t remote_va, std::uint64_t local_va,
           std::uint32_t bytes);
  void local_copy(std::uint64_t dst_va, std::uint64_t src_va,
                  std::uint32_t bytes);
  void combine(std::uint64_t acc_va, std::uint64_t in_va, std::uint32_t count,
               DType dt, ReduceOp op);

  // -- algorithm implementations --
  void barrier_linear();
  void barrier_dissemination();
  void broadcast_linear(std::uint64_t va, std::uint32_t bytes, int root);
  void broadcast_binomial(std::uint64_t va, std::uint32_t bytes, int root);
  void reduce_linear(std::uint64_t va, std::uint32_t count, DType dt,
                     ReduceOp op, int root);
  void reduce_tree(std::uint64_t va, std::uint32_t count, DType dt,
                   ReduceOp op, int root);
  void all_reduce_ring(std::uint64_t va, std::uint32_t count, DType dt,
                       ReduceOp op);
  void exchange_blocks(std::uint64_t send_va, std::uint64_t recv_va,
                       const std::vector<std::uint32_t>& matrix);
  std::vector<std::uint32_t> exchange_counts(
      const std::vector<std::uint32_t>& mine);

  /// Allocate the root span context for one collective ({} when tracing is
  /// off). Held in a SpanScope for the call's duration so every put/signal
  /// the collective issues stitches under it.
  trace::SpanContext begin_op();
  void trace_op(sim::Time t0, CollKind kind, CollAlgo algo, std::uint64_t bytes,
                const trace::SpanContext& ctx = {});
  void trace_round(int round, std::uint64_t bytes);

  CollDomain& domain_;
  Endpoint& ep_;
  int rank_;
  int size_;
  const member::View* member_view_ = nullptr;
  std::vector<Connection> conns_;  // lazily established, indexed by peer
  rma::Window win_;  // signal + put window over the communicator's conns_
  std::uint64_t sig_gen_ = 0;
  stats::Counters counters_;
};

}  // namespace multiedge::coll
