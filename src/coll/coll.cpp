#include "coll/coll.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "proto/wire.hpp"
#include "sim/process.hpp"

namespace multiedge::coll {

namespace {

// Interned counter handles: one registry lookup at startup, plain vector
// adds on the data path.
const stats::CounterId kCtrSignals =
    stats::CounterRegistry::intern("coll_signals");
const stats::CounterId kCtrPeerFailures =
    stats::CounterRegistry::intern("coll_peer_failures");
const stats::CounterId kCtrBytesPut =
    stats::CounterRegistry::intern("coll_bytes_put");
const stats::CounterId kCtrCombineBytes =
    stats::CounterRegistry::intern("coll_combine_bytes");
const stats::CounterId kCtrRounds =
    stats::CounterRegistry::intern("coll_rounds");
const stats::CounterId kCtrBarriers =
    stats::CounterRegistry::intern("coll_barriers");
const stats::CounterId kCtrBroadcasts =
    stats::CounterRegistry::intern("coll_broadcasts");
const stats::CounterId kCtrReduces =
    stats::CounterRegistry::intern("coll_reduces");
const stats::CounterId kCtrAllReduces =
    stats::CounterRegistry::intern("coll_all_reduces");
const stats::CounterId kCtrAllToAlls =
    stats::CounterRegistry::intern("coll_all_to_alls");

constexpr std::uint64_t align64(std::uint64_t v) { return (v + 63) & ~63ull; }

int ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// CollDomain
// ---------------------------------------------------------------------------

CollDomain::CollDomain(Cluster& cluster, CollConfig cfg)
    : cluster_(cluster), cfg_(cfg), num_nodes_(cluster.num_nodes()) {
  assert(cfg_.max_data_bytes >= 64u * static_cast<std::size_t>(num_nodes_) &&
         "max_data_bytes too small for the ring slot layout");
  const std::size_t slots_bytes =
      static_cast<std::size_t>(num_nodes_) * kNumChannels * 8;
  const std::size_t counts_bytes =
      align64(4ull * num_nodes_) + align64(4ull * num_nodes_ * num_nodes_);
  const std::size_t staging_bytes = 4 * cfg_.max_data_bytes + counts_bytes;

  // The same VAs on every node: the symmetry every put/signal address
  // computation relies on.
  slots_va_ = cluster_.alloc_symmetric(slots_bytes);
  sig_src_va_ = cluster_.alloc_symmetric(8);
  staging_va_ = cluster_.alloc_symmetric(staging_bytes);
}

std::uint64_t CollDomain::counts_matrix_va() const {
  return counts_row_va() + align64(4ull * num_nodes_);
}

// ---------------------------------------------------------------------------
// Communicator: plumbing
// ---------------------------------------------------------------------------

Communicator::Communicator(CollDomain& domain, Endpoint& ep)
    : domain_(domain),
      ep_(ep),
      rank_(ep.node_id()),
      size_(domain.num_nodes()),
      conns_(static_cast<std::size_t>(domain.num_nodes())),
      // One unchecked window (puts target user buffers at arbitrary symmetric
      // VAs) riding the communicator's own connection cache. Signals are the
      // window's notified puts: urgent + backward-fenced + tagged, exactly
      // the wire class the hand-rolled signal used.
      win_(ep,
           rma::WindowConfig{.tag = kTagColl},
           [this](int peer) -> Connection& { return conn_to(peer); }) {}

Connection& Communicator::conn_to(int peer) {
  assert(peer != rank_ && peer >= 0 && peer < size_);
  if (!conns_[peer].valid()) conns_[peer] = ep_.connect(peer);
  return conns_[peer];
}

void Communicator::signal(int peer, int chan) {
  // The token value is irrelevant (consumption is by counting), but give
  // each signal a fresh generation so traces are greppable.
  *ep_.memory().as<std::uint64_t>(domain_.sig_src_va()) = ++sig_gen_;
  win_.put_notify(peer, domain_.slot_va(rank_, chan), domain_.sig_src_va(), 8);
  // The fenced urgent notify is what publishes the preceding puts; if put()
  // opened an access epoch for them, this signal completes it.
  if (win_.epoch_open()) win_.close();
  counters_.add(kCtrSignals);
}

void Communicator::consume_signal(int src, int chan) {
  const std::uint64_t want_va = domain_.slot_va(src, chan);
  if (member_view_ == nullptr) {
    win_.wait_notify(src, want_va);
    return;
  }
  // Fail-fast path (membership attached): poll instead of blocking, so a
  // peer dying mid-collective surfaces as PeerFailure instead of a hang.
  // ANY dead peer aborts the wait, not just the one we are waiting on — a
  // collective involves every rank, and in chained algorithms (dissemination
  // barrier, ring) a rank can be blocked on an alive peer that is itself
  // stuck behind the dead one.
  for (;;) {
    rma::NotifyEvent ev;
    if (win_.test_notify(&ev, src, want_va)) return;
    if (member_view_->num_down() > 0) {
      int dead = src;
      for (int p = 0; p < size_; ++p) {
        if (member_view_->is_down(p)) {
          dead = p;
          break;
        }
      }
      counters_.add(kCtrPeerFailures);
      // Ship the black box before unwinding: the ring right now holds the
      // traffic leading up to the failure.
      ep_.cluster().trigger_postmortem("coll peer failure: node " +
                                       std::to_string(dead) +
                                       " marked dead during a collective");
      throw PeerFailure(dead);
    }
    sim::Process::current()->delay(sim::us(5));
  }
}

std::uint32_t Communicator::chunk_bytes() const {
  const auto& proto_cfg = ep_.cluster().config().protocol;
  return static_cast<std::uint32_t>(proto_cfg.window_frames *
                                    proto::WireHeader::kMaxData);
}

void Communicator::put(int peer, std::uint64_t remote_va,
                       std::uint64_t local_va, std::uint32_t bytes) {
  // Un-notified, un-waited epoch writes; the fenced signal that follows is
  // what publishes them (and closes the epoch this opens). Chunking to one
  // window's worth keeps successive chunks (and both rails, when striping)
  // in flight concurrently. Under ProtocolConfig::batch_submission these
  // chunks ride the submission ring and the urgent signal() that always
  // follows on the same connection is the doorbell that releases them — one
  // syscall per put+signal pair instead of one per chunk, with ordering kept
  // by the backward fence.
  const std::uint32_t chunk = chunk_bytes();
  if (!win_.epoch_open()) win_.open();
  for (std::uint32_t off = 0; off < bytes; off += chunk) {
    const std::uint32_t len = std::min(chunk, bytes - off);
    win_.put(peer, remote_va + off, local_va + off, len);
  }
  counters_.add(kCtrBytesPut, bytes);
}

void Communicator::local_copy(std::uint64_t dst_va, std::uint64_t src_va,
                              std::uint32_t bytes) {
  if (bytes == 0) return;
  proto::MemorySpace& mem = ep_.memory();
  std::memmove(mem.as<std::byte>(dst_va), mem.as<std::byte>(src_va), bytes);
  ep_.compute(sim::ns_d(config().copy_ns_per_byte * bytes));
}

void Communicator::combine(std::uint64_t acc_va, std::uint64_t in_va,
                           std::uint32_t count, DType dt, ReduceOp op) {
  if (count == 0) return;
  proto::MemorySpace& mem = ep_.memory();
  auto apply = [op](auto* acc, const auto* in, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] += in[i]; break;
        case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
        case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
      }
    }
  };
  if (dt == DType::kF64) {
    apply(mem.as<double>(acc_va), mem.as<const double>(in_va), count);
  } else {
    apply(mem.as<std::uint64_t>(acc_va), mem.as<const std::uint64_t>(in_va),
          count);
  }
  const std::uint64_t bytes = std::uint64_t{count} * dtype_bytes(dt);
  ep_.compute(sim::ns_d(config().combine_ns_per_byte * bytes));
  counters_.add(kCtrCombineBytes, bytes);
}

trace::SpanContext Communicator::begin_op() {
  trace::TraceRecorder* rec = ep_.cluster().tracer();
  return rec != nullptr ? rec->new_root() : trace::SpanContext{};
}

void Communicator::trace_op(sim::Time t0, CollKind kind, CollAlgo algo,
                            std::uint64_t bytes,
                            const trace::SpanContext& ctx) {
  if (trace::TraceRecorder* rec = ep_.cluster().tracer()) {
    const std::uint64_t a = (static_cast<std::uint64_t>(kind) << 8) |
                            static_cast<std::uint64_t>(algo);
    rec->record_span(t0, ep_.cluster().sim().now() - t0,
                     trace::EventType::kCollOp, rank_, -1, -1, a, bytes, ctx);
  }
}

void Communicator::trace_round(int round, std::uint64_t bytes) {
  counters_.add(kCtrRounds);
  if (trace::TraceRecorder* rec = ep_.cluster().tracer()) {
    rec->record(ep_.cluster().sim().now(), trace::EventType::kCollRound, rank_,
                -1, -1, static_cast<std::uint64_t>(round), bytes);
  }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void Communicator::barrier() {
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  if (size_ > 1) {
    if (config().barrier_algo == CollAlgo::kLinear) {
      barrier_linear();
    } else {
      barrier_dissemination();
    }
  }
  counters_.add(kCtrBarriers);
  trace_op(t0, CollKind::kBarrier, config().barrier_algo, 0, ctx);
}

// Centralized fan-in/fan-out through rank 0: O(N) serial signals at the
// root. The differential baseline the dissemination barrier is measured
// against.
void Communicator::barrier_linear() {
  if (rank_ == 0) {
    for (int p = 1; p < size_; ++p) consume_signal(p, CollDomain::kChanSync);
    for (int p = 1; p < size_; ++p) signal(p, CollDomain::kChanSync);
  } else {
    signal(0, CollDomain::kChanSync);
    consume_signal(0, CollDomain::kChanSync);
  }
  trace_round(0, 0);
}

// Dissemination barrier (Hensgen/Finkel/Manber): ceil(log2 n) rounds; in
// round k every rank signals (rank + 2^k) mod n and waits on
// (rank - 2^k) mod n. No rank is a bottleneck and every round's signals
// overlap in flight.
void Communicator::barrier_dissemination() {
  const int rounds = ceil_log2(size_);
  for (int k = 0; k < rounds; ++k) {
    const int dist = 1 << k;
    signal((rank_ + dist) % size_, CollDomain::kChanSync);
    consume_signal((rank_ - dist % size_ + size_) % size_,
                   CollDomain::kChanSync);
    trace_round(k, 0);
  }
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void Communicator::broadcast(std::uint64_t va, std::uint32_t bytes, int root) {
  assert(root >= 0 && root < size_);
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  if (size_ > 1 && bytes > 0) {
    if (config().broadcast_algo == CollAlgo::kLinear) {
      broadcast_linear(va, bytes, root);
    } else {
      broadcast_binomial(va, bytes, root);
    }
  }
  counters_.add(kCtrBroadcasts);
  trace_op(t0, CollKind::kBroadcast, config().broadcast_algo, bytes, ctx);
}

void Communicator::broadcast_linear(std::uint64_t va, std::uint32_t bytes,
                                    int root) {
  if (rank_ == root) {
    for (int p = 0; p < size_; ++p) {
      if (p == root) continue;
      put(p, va, va, bytes);
      signal(p, CollDomain::kChanData);
    }
  } else {
    consume_signal(root, CollDomain::kChanData);
  }
  trace_round(0, bytes);
}

// Binomial tree on virtual ranks vr = (rank - root) mod n: in round k
// (descending from ceil(log2 n) - 1) every rank holding the data sends to
// the rank 2^k beyond it, doubling the holder count each round.
void Communicator::broadcast_binomial(std::uint64_t va, std::uint32_t bytes,
                                      int root) {
  const int vr = (rank_ - root + size_) % size_;
  for (int k = ceil_log2(size_) - 1; k >= 0; --k) {
    const int mask = 1 << k;
    if (vr % (mask << 1) == 0) {
      if (vr + mask < size_) {
        const int dest = (vr + mask + root) % size_;
        put(dest, va, va, bytes);
        signal(dest, CollDomain::kChanData);
        trace_round(k, bytes);
      }
    } else if (vr % (mask << 1) == mask) {
      consume_signal((vr - mask + root) % size_, CollDomain::kChanData);
      trace_round(k, bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

void Communicator::reduce(std::uint64_t va, std::uint32_t count, DType dt,
                          ReduceOp op, int root) {
  assert(root >= 0 && root < size_);
  const std::uint64_t bytes = std::uint64_t{count} * dtype_bytes(dt);
  assert(bytes <= domain_.config().max_data_bytes &&
         "reduce payload exceeds CollConfig::max_data_bytes");
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  if (size_ > 1 && count > 0) {
    if (config().reduce_algo == CollAlgo::kLinear) {
      reduce_linear(va, count, dt, op, root);
    } else {
      reduce_tree(va, count, dt, op, root);
    }
  }
  counters_.add(kCtrReduces);
  trace_op(t0, CollKind::kReduce, config().reduce_algo, bytes, ctx);
}

// Collect one peer's contribution (its symmetric contrib buffer) into the
// local landing buffer with a single rdma_gather_read — one wire request,
// one completion — then fold it into the local accumulator.
namespace {
void gather_contrib(Connection& conn, CollDomain& dom, std::uint32_t bytes,
                    std::uint32_t seg_bytes) {
  std::vector<GatherSegment> segs;
  for (std::uint32_t off = 0; off < bytes; off += seg_bytes) {
    segs.push_back({off, dom.landing_va() + off,
                    std::min(seg_bytes, bytes - off)});
  }
  conn.rdma_gather_read(segs, dom.contrib_va()).wait();
}
}  // namespace

// Linear reduce: every peer stages its contribution and the root pulls them
// one by one. O(N) serial round trips at the root — the differential
// baseline for the tree.
void Communicator::reduce_linear(std::uint64_t va, std::uint32_t count,
                                 DType dt, ReduceOp op, int root) {
  const std::uint32_t bytes = count * dtype_bytes(dt);
  local_copy(domain_.contrib_va(), va, bytes);
  if (rank_ == root) {
    for (int p = 0; p < size_; ++p) {
      if (p == root) continue;
      consume_signal(p, CollDomain::kChanData);
      gather_contrib(conn_to(p), domain_, bytes, chunk_bytes());
      combine(domain_.contrib_va(), domain_.landing_va(), count, dt, op);
      signal(p, CollDomain::kChanSync);
      trace_round(p, bytes);
    }
    local_copy(va, domain_.contrib_va(), bytes);
  } else {
    signal(root, CollDomain::kChanData);
    // The sync ack licenses reuse of the contrib buffer: without it a fast
    // peer could start the next collective and overwrite its contribution
    // before the root's gather read was served.
    consume_signal(root, CollDomain::kChanSync);
  }
}

// Binomial-tree reduce on virtual ranks: in round k every surviving rank
// with bit k set signals readiness to its parent (vr - 2^k) and drops out;
// the parent pulls the child's staged partial with one gather read, folds
// it in, and acks. log2(n) rounds, each parent doing at most one pull per
// round.
void Communicator::reduce_tree(std::uint64_t va, std::uint32_t count, DType dt,
                               ReduceOp op, int root) {
  const std::uint32_t bytes = count * dtype_bytes(dt);
  const int vr = (rank_ - root + size_) % size_;
  local_copy(domain_.contrib_va(), va, bytes);
  for (int k = 0; (1 << k) < size_; ++k) {
    const int mask = 1 << k;
    if (vr % (mask << 1) == mask) {
      const int parent = (vr - mask + root) % size_;
      signal(parent, CollDomain::kChanData);
      consume_signal(parent, CollDomain::kChanSync);  // contrib reusable
      trace_round(k, bytes);
      break;
    }
    if (vr % (mask << 1) == 0 && vr + mask < size_) {
      const int child = (vr + mask + root) % size_;
      consume_signal(child, CollDomain::kChanData);
      gather_contrib(conn_to(child), domain_, bytes, chunk_bytes());
      combine(domain_.contrib_va(), domain_.landing_va(), count, dt, op);
      signal(child, CollDomain::kChanSync);
      trace_round(k, bytes);
    }
  }
  if (vr == 0) local_copy(va, domain_.contrib_va(), bytes);
}

// ---------------------------------------------------------------------------
// All-reduce
// ---------------------------------------------------------------------------

void Communicator::all_reduce(std::uint64_t va, std::uint32_t count, DType dt,
                              ReduceOp op) {
  const std::uint64_t bytes = std::uint64_t{count} * dtype_bytes(dt);
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  if (size_ > 1 && count > 0) {
    switch (config().all_reduce_algo) {
      case CollAlgo::kRing:
        all_reduce_ring(va, count, dt, op);
        break;
      case CollAlgo::kLinear:
        reduce_linear(va, count, dt, op, 0);
        broadcast_linear(va, static_cast<std::uint32_t>(bytes), 0);
        break;
      default:
        reduce_tree(va, count, dt, op, 0);
        broadcast_binomial(va, static_cast<std::uint32_t>(bytes), 0);
        break;
    }
  }
  counters_.add(kCtrAllReduces);
  trace_op(t0, CollKind::kAllReduce, config().all_reduce_algo, bytes, ctx);
}

// Ring all-reduce (bandwidth-optimal: each rank moves 2*(n-1)/n of the
// payload regardless of n). The buffer is split into n chunks; n-1
// reduce-scatter steps each send one chunk to the right neighbor's staging
// slot and fold the chunk arriving from the left into the local buffer,
// then n-1 all-gather steps circulate the fully-reduced chunks. Every step
// is a neighbor exchange, so all n links carry traffic concurrently and the
// chunked puts keep the sliding window (and both rails) full.
//
// Each reduce-scatter step writes a distinct staging slot: the left
// neighbor's progress is not gated on ours (dependencies flow leftward), so
// it may run several steps ahead and a single slot would be overwritten
// before we consumed it. The all-gather instead writes straight into the
// user buffer, which is only safe once the right neighbor has finished its
// reduce-scatter reads of that buffer — hence the sync handshake between
// the phases.
void Communicator::all_reduce_ring(std::uint64_t va, std::uint32_t count,
                                   DType dt, ReduceOp op) {
  const std::uint32_t width = dtype_bytes(dt);
  const int n = size_;
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  auto cbegin = [&](int c) {
    return static_cast<std::uint64_t>(count) * c / n;
  };
  const std::uint64_t stride =
      ((static_cast<std::uint64_t>(count) + n - 1) / n) * width;
  if ((n - 1) * stride > domain_.ring_slots_bytes()) {
    throw std::runtime_error(
        "all_reduce_ring: payload too large for the staging slots (raise "
        "CollConfig::max_data_bytes)");
  }
  const std::uint64_t slots = domain_.ring_slots_va();

  // Reduce-scatter.
  for (int s = 1; s < n; ++s) {
    const int send_c = (rank_ - s + 1 + n) % n;
    const int recv_c = (rank_ - s + n) % n;
    const std::uint32_t send_n =
        static_cast<std::uint32_t>(cbegin(send_c + 1) - cbegin(send_c));
    const std::uint32_t recv_n =
        static_cast<std::uint32_t>(cbegin(recv_c + 1) - cbegin(recv_c));
    if (send_n > 0) {
      put(right, slots + (s - 1) * stride, va + cbegin(send_c) * width,
          send_n * width);
    }
    signal(right, CollDomain::kChanData);  // always, even for empty chunks
    consume_signal(left, CollDomain::kChanData);
    combine(va + cbegin(recv_c) * width, slots + (s - 1) * stride, recv_n, dt,
            op);
    trace_round(s, std::uint64_t{send_n} * width);
  }

  // Phase handshake: tell the left neighbor our reduce-scatter reads of the
  // user buffer are done, and wait for the right neighbor's before writing
  // into its buffer.
  signal(left, CollDomain::kChanSync);
  consume_signal(right, CollDomain::kChanSync);

  // All-gather.
  for (int s = 1; s < n; ++s) {
    const int send_c = (rank_ - s + 2 + n) % n;
    const std::uint32_t send_n =
        static_cast<std::uint32_t>(cbegin(send_c + 1) - cbegin(send_c));
    if (send_n > 0) {
      put(right, va + cbegin(send_c) * width, va + cbegin(send_c) * width,
          send_n * width);
    }
    signal(right, CollDomain::kChanData);
    consume_signal(left, CollDomain::kChanData);
    trace_round(n - 1 + s, std::uint64_t{send_n} * width);
  }
}

// ---------------------------------------------------------------------------
// All-to-all
// ---------------------------------------------------------------------------

void Communicator::all_to_all(std::uint64_t send_va, std::uint64_t recv_va,
                              std::uint32_t block_bytes) {
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  // Uniform counts: the packed-by-rank displacements of exchange_blocks
  // reduce to d * block_bytes, the fixed-block layout.
  std::vector<std::uint32_t> matrix(
      static_cast<std::size_t>(size_) * size_, block_bytes);
  exchange_blocks(send_va, recv_va, matrix);
  counters_.add(kCtrAllToAlls);
  trace_op(t0, CollKind::kAllToAll, config().all_to_all_algo,
           std::uint64_t{block_bytes} * size_, ctx);
}

std::vector<std::uint32_t> Communicator::all_to_all_v(
    std::uint64_t send_va, std::uint64_t recv_va,
    const std::vector<std::uint32_t>& send_bytes) {
  assert(static_cast<int>(send_bytes.size()) == size_);
  const sim::Time t0 = ep_.cluster().sim().now();
  const trace::SpanContext ctx = begin_op();
  const trace::SpanScope scope(ctx);
  std::vector<std::uint32_t> matrix = exchange_counts(send_bytes);
  exchange_blocks(send_va, recv_va, matrix);
  std::uint64_t total = 0;
  for (std::uint32_t b : send_bytes) total += b;
  counters_.add(kCtrAllToAlls);
  trace_op(t0, CollKind::kAllToAllV, config().all_to_all_algo, total, ctx);
  return matrix;
}

// All-gather of every rank's count row into the full n*n matrix, via the
// dedicated counts region of the staging area. The matrix is copied out of
// staging before this returns (and before any data token is sent), so a
// fast rank's next count exchange can never clobber a row still being read.
std::vector<std::uint32_t> Communicator::exchange_counts(
    const std::vector<std::uint32_t>& mine) {
  const std::uint64_t row_bytes = 4ull * size_;
  proto::MemorySpace& mem = ep_.memory();
  std::memcpy(mem.as<std::byte>(domain_.counts_row_va()), mine.data(),
              row_bytes);
  std::memcpy(mem.as<std::byte>(domain_.counts_matrix_va() + rank_ * row_bytes),
              mine.data(), row_bytes);
  for (int p = 0; p < size_; ++p) {
    if (p == rank_) continue;
    put(p, domain_.counts_matrix_va() + rank_ * row_bytes,
        domain_.counts_row_va(), static_cast<std::uint32_t>(row_bytes));
    signal(p, CollDomain::kChanData);
  }
  for (int p = 0; p < size_; ++p) {
    if (p != rank_) consume_signal(p, CollDomain::kChanData);
  }
  std::vector<std::uint32_t> matrix(static_cast<std::size_t>(size_) * size_);
  std::memcpy(matrix.data(), mem.as<std::byte>(domain_.counts_matrix_va()),
              matrix.size() * 4);
  return matrix;
}

// Exchange packed-by-rank blocks according to the full count matrix.
// Layouts (both symmetric VAs): rank s's send block for d starts at
// send_va + sum(matrix[s][d'] for d' < d); the block from s lands at
// recv_va + sum(matrix[s'][d] for s' < s) on rank d.
//
// kPairwise staggers the schedule — step s pairs every rank with
// (rank + s) for sending and (rank - s) for receiving — so no destination
// is ever hit by more than one sender at a time. kLinear is the naive
// everyone-sends-in-rank-order baseline that produces incast at each
// destination in turn. A signal is sent every step even for empty blocks,
// keeping the token count schedule-independent.
void Communicator::exchange_blocks(std::uint64_t send_va,
                                   std::uint64_t recv_va,
                                   const std::vector<std::uint32_t>& matrix) {
  const int n = size_;
  auto m = [&](int s, int d) -> std::uint32_t {
    return matrix[static_cast<std::size_t>(s) * n + d];
  };
  auto send_off = [&](int d) {
    std::uint64_t off = 0;
    for (int d2 = 0; d2 < d; ++d2) off += m(rank_, d2);
    return off;
  };
  auto recv_off = [&](int src, int dst) {
    std::uint64_t off = 0;
    for (int s2 = 0; s2 < src; ++s2) off += m(s2, dst);
    return off;
  };

  local_copy(recv_va + recv_off(rank_, rank_), send_va + send_off(rank_),
             m(rank_, rank_));
  if (n == 1) return;

  const bool pairwise = config().all_to_all_algo != CollAlgo::kLinear;
  for (int s = 1; s < n; ++s) {
    int d, r;
    if (pairwise) {
      d = (rank_ + s) % n;
      r = (rank_ - s + n) % n;
    } else {
      d = r = s <= rank_ ? s - 1 : s;  // ascending rank order, skipping self
    }
    const std::uint32_t out = m(rank_, d);
    if (out > 0) put(d, recv_va + recv_off(rank_, d), send_va + send_off(d),
                     out);
    signal(d, CollDomain::kChanData);
    consume_signal(r, CollDomain::kChanData);
    trace_round(s, out);
  }
}

}  // namespace multiedge::coll
