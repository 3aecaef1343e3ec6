#include "kv/kv.hpp"

#include <cassert>
#include <cstddef>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "proto/wire.hpp"
#include "sim/process.hpp"
#include "trace/trace.hpp"

namespace multiedge::kv {

namespace {

// Interned counter handles: one registry lookup at startup, plain vector
// adds on the data path.
const stats::CounterId kCtrLocalOps =
    stats::CounterRegistry::intern("kv_local_ops");
const stats::CounterId kCtrServerRequests =
    stats::CounterRegistry::intern("kv_server_requests");
const stats::CounterId kCtrServerWrongPrimary =
    stats::CounterRegistry::intern("kv_server_wrong_primary");
const stats::CounterId kCtrDupRequests =
    stats::CounterRegistry::intern("kv_dup_requests");
const stats::CounterId kCtrDeletesApplied =
    stats::CounterRegistry::intern("kv_deletes_applied");
const stats::CounterId kCtrNoSpace =
    stats::CounterRegistry::intern("kv_no_space");
const stats::CounterId kCtrPutsApplied =
    stats::CounterRegistry::intern("kv_puts_applied");
const stats::CounterId kCtrReplSent =
    stats::CounterRegistry::intern("kv_repl_sent");
const stats::CounterId kCtrReplAcked =
    stats::CounterRegistry::intern("kv_repl_acked");
const stats::CounterId kCtrReplAbandoned =
    stats::CounterRegistry::intern("kv_repl_abandoned");
const stats::CounterId kCtrReplReceived =
    stats::CounterRegistry::intern("kv_repl_received");
const stats::CounterId kCtrReplApplied =
    stats::CounterRegistry::intern("kv_repl_applied");
const stats::CounterId kCtrReplDups =
    stats::CounterRegistry::intern("kv_repl_dups");
const stats::CounterId kCtrResponses =
    stats::CounterRegistry::intern("kv_responses");
const stats::CounterId kCtrGets = stats::CounterRegistry::intern("kv_gets");
const stats::CounterId kCtrPuts = stats::CounterRegistry::intern("kv_puts");
const stats::CounterId kCtrDels = stats::CounterRegistry::intern("kv_dels");
const stats::CounterId kCtrRpcRetries =
    stats::CounterRegistry::intern("kv_rpc_retries");
const stats::CounterId kCtrWrongPrimary =
    stats::CounterRegistry::intern("kv_wrong_primary");
const stats::CounterId kCtrRpcSent =
    stats::CounterRegistry::intern("kv_rpc_sent");
const stats::CounterId kCtrStaleResponses =
    stats::CounterRegistry::intern("kv_stale_responses");
const stats::CounterId kCtrRpcTimeouts =
    stats::CounterRegistry::intern("kv_rpc_timeouts");
const stats::CounterId kCtrGetRetries =
    stats::CounterRegistry::intern("kv_get_retries");
const stats::CounterId kCtrGetLocal =
    stats::CounterRegistry::intern("kv_get_local");
const stats::CounterId kCtrGetTimeouts =
    stats::CounterRegistry::intern("kv_get_timeouts");
const stats::CounterId kCtrGetTorn =
    stats::CounterRegistry::intern("kv_get_torn");
const stats::CounterId kCtrGetBufStalls =
    stats::CounterRegistry::intern("kv_get_buf_stalls");
const stats::CounterId kCtrPeersMarkedDown =
    stats::CounterRegistry::intern("kv_peers_marked_down");
const stats::CounterId kCtrRejected =
    stats::CounterRegistry::intern("kv_rejected");
const stats::CounterId kCtrClientConns =
    stats::CounterRegistry::intern("kv_client_conns");
const stats::CounterId kCtrTornMessages =
    stats::CounterRegistry::intern("kv_torn_messages");

constexpr std::uint64_t align64(std::uint64_t v) { return (v + 63) & ~63ull; }

// Operation codes carried in ReqHeader::op.
constexpr std::uint32_t kOpGet = 0;
constexpr std::uint32_t kOpPut = 1;
constexpr std::uint32_t kOpDel = 2;

/// Wire layout of a client request / replication message. Key bytes follow
/// the header, value bytes follow the key.
struct ReqHeader {
  std::uint64_t seq = 0;
  std::uint32_t op = 0;
  std::uint32_t key_len = 0;
  std::uint32_t val_len = 0;
  std::uint32_t partition = 0;    // replication only (requests recompute it)
  std::uint16_t client_node = 0;
  std::uint16_t cslot = 0;
  std::uint32_t repl_gen = 0;     // replication only: value echoed in the ack
  std::uint64_t checksum = 0;     // message_checksum: the seal
};
static_assert(sizeof(ReqHeader) == 40);

/// Seal of a request or replication message: a hash of every header field
/// before `checksum`, then of the key and value bytes. A mailbox slot holds
/// one message, so a stale notification can find a newer message still
/// landing in it; the seal rejects that mix (DESIGN §13 "Writes").
std::uint64_t message_checksum(const ReqHeader& h, const std::byte* body) {
  const std::uint64_t head = detail::hash_words(
      reinterpret_cast<const std::byte*>(&h), offsetof(ReqHeader, checksum),
      0);
  return record_checksum(head, h.key_len, h.val_len, body, body + h.key_len);
}

/// Writes a request or replication message at `va`: `h` with its key_len,
/// val_len and checksum filled in, then the key, then the value. Returns
/// the message length.
std::uint32_t encode_request(proto::MemorySpace& mem, std::uint64_t va,
                             ReqHeader h, std::string_view key,
                             std::string_view value) {
  h.key_len = static_cast<std::uint32_t>(key.size());
  h.val_len = static_cast<std::uint32_t>(value.size());
  std::byte* body = mem.as<std::byte>(va + sizeof(ReqHeader));
  std::memcpy(body, key.data(), key.size());
  // An empty value's data() may be null, which memcpy does not accept.
  if (!value.empty()) {
    std::memcpy(body + key.size(), value.data(), value.size());
  }
  h.checksum = message_checksum(h, body);
  *mem.as<ReqHeader>(va) = h;
  return static_cast<std::uint32_t>(sizeof(ReqHeader) + key.size() +
                                    value.size());
}

/// A request or replication message copied out of its slot. Handlers take
/// the copy BEFORE they yield: the slot is remotely writable, and a retry
/// (or the sender's next message) can land in it meanwhile.
struct DecodedRequest {
  ReqHeader h;
  std::string key;
  std::string value;
};

/// Copies the message at `va` out of its slot, or returns nothing if its
/// lengths are out of bounds or its seal does not match: the slot is torn.
std::optional<DecodedRequest> decode_request(const proto::MemorySpace& mem,
                                             std::uint64_t va,
                                             std::uint32_t max_value_bytes) {
  DecodedRequest r{*mem.as<ReqHeader>(va), {}, {}};
  if (r.h.key_len > kMaxKeyBytes || r.h.val_len > max_value_bytes) {
    return std::nullopt;
  }
  const std::byte* body = mem.as<std::byte>(va + sizeof(ReqHeader));
  if (message_checksum(r.h, body) != r.h.checksum) return std::nullopt;
  const auto* chars = reinterpret_cast<const char*>(body);
  r.key.assign(chars, r.h.key_len);
  r.value.assign(chars + r.h.key_len, r.h.val_len);
  return r;
}

/// Wire layout of a server response; value bytes follow.
struct RespHeader {
  std::uint64_t seq;
  std::uint32_t status;
  std::uint32_t val_len;
};
static_assert(sizeof(RespHeader) == 16);

/// In-memory record slot header; key bytes follow, then value bytes.
/// version: odd = update in progress; even with key_len == 0 = free slot.
struct RecordHeader {
  std::uint64_t version;
  std::uint64_t checksum;
  std::uint64_t seq;
  std::uint32_t key_len;
  std::uint32_t val_len;
};
static_assert(sizeof(RecordHeader) == 32);

/// Sleep without occupying the app core. All fibers of a node share ONE
/// core; an idle poll loop modeled as compute() would monopolize it and
/// starve the fibers doing real work. A blocked/parked thread burns no CPU.
void idle_wait(sim::Time t) { sim::Process::current()->delay(t); }

std::uint32_t bucket_of(std::uint64_t key_hash, const KvConfig& cfg) {
  // Re-mix so the bucket index is independent of the ring's partition cut.
  return static_cast<std::uint32_t>(mix64(key_hash) %
                                    cfg.buckets_per_partition);
}

/// Root span for one client operation (kKvOp). Alive across the whole retry
/// loop so every attempt's request write adopts it; the destructor records
/// the span covering the full client-observed latency.
class KvOpSpan {
 public:
  KvOpSpan(Cluster& cluster, int node, std::uint32_t op)
      : cluster_(cluster),
        node_(node),
        op_(op),
        start_(cluster.sim().now()),
        root_(cluster.tracer() != nullptr ? cluster.tracer()->new_root()
                                          : trace::SpanContext{}),
        scope_(root_) {}
  ~KvOpSpan() {
    trace::TraceRecorder* t = cluster_.tracer();
    if (t == nullptr || !root_.active()) return;
    t->record_span(start_, cluster_.sim().now() - start_,
                   trace::EventType::kKvOp, node_, -1, -1, op_, 0, root_);
  }

 private:
  Cluster& cluster_;
  int node_;
  std::uint32_t op_;
  sim::Time start_;
  trace::SpanContext root_;
  trace::SpanScope scope_;
};

/// Response tags run from kTagKvResponseBase up, one per client slot, and a
/// tag is 8 bits wide: a wider config would wrap a slot onto another
/// subsystem's tag.
const KvConfig& check_client_slots(const KvConfig& cfg) {
  constexpr int kMaxClients = 256 - kTagKvResponseBase;
  if (cfg.clients_per_node > kMaxClients) {
    throw std::invalid_argument("kv: clients_per_node above " +
                                std::to_string(kMaxClients) +
                                " (one 8-bit response tag per client slot)");
  }
  return cfg;
}

void check_sizes(const KvConfig& cfg, std::string_view key,
                 std::string_view value) {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    throw std::invalid_argument("kv: key length out of range");
  }
  if (value.size() > cfg.max_value_bytes) {
    throw std::invalid_argument("kv: value too large");
  }
}

}  // namespace

const char* status_str(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kNoSpace: return "no_space";
    case Status::kWrongPrimary: return "wrong_primary";
    case Status::kUnavailable: return "unavailable";
    case Status::kRejected: return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// KvDomain
// ---------------------------------------------------------------------------

KvDomain::KvDomain(Cluster& cluster, const KvConfig& cfg)
    : cfg_(&cfg), num_nodes_(cluster.num_nodes()) {
  bucket_entry_bytes_ = 8 + 8 * cfg.chain_slots;
  record_stride_ = static_cast<std::uint32_t>(
      align64(sizeof(RecordHeader) + kMaxKeyBytes + cfg.max_value_bytes));
  req_stride_ = static_cast<std::uint32_t>(
      align64(sizeof(ReqHeader) + kMaxKeyBytes + cfg.max_value_bytes));
  resp_stride_ = static_cast<std::uint32_t>(
      align64(sizeof(RespHeader) + cfg.max_value_bytes));
  get_buf_stride_ = static_cast<std::uint32_t>(
      align64(bucket_entry_bytes_) +
      std::uint64_t{cfg.chain_slots} * record_stride_);

  const std::uint64_t P = cfg.partitions;
  const std::uint64_t B = cfg.buckets_per_partition;
  const std::uint64_t S = cfg.slots_per_partition;
  const std::uint64_t N = num_nodes_;
  const std::uint64_t C = cfg.clients_per_node;

  // Every region is reserved: a page faults in when a write first lands in
  // it. A PUT to an existing key overwrites its slot in place
  // (Server::apply), so only new keys touch fresh slab pages; a GET lands
  // only its bucket entry and `count` records, nearly always in set 0 of its
  // client's landing buffers (DESIGN.md §11 "Node memory").
  buckets_va_ = cluster.reserve_symmetric(P * B * bucket_entry_bytes_);
  slab_va_ = cluster.reserve_symmetric(P * S * record_stride_);
  seq_table_va_ = cluster.reserve_symmetric(P * N * C * 8);
  for (int c = 0; c < cfg.clients_per_node; ++c) {
    requests_.emplace_back(cluster, req_stride_, kTagKvRequest);
    responses_.emplace_back(cluster, resp_stride_,
                            static_cast<std::uint8_t>(kTagKvResponseBase + c));
  }
  replication_ = rma::Channel(cluster, req_stride_, kTagKvReplication);
  ack_va_ = cluster.reserve_symmetric(N * 8);
  ack_src_va_ = cluster.reserve_symmetric(N * 8);
  get_buf_va_ = cluster.reserve_symmetric(C * kGetBufSets * get_buf_stride_);
}

// ---------------------------------------------------------------------------
// HostBarrier
// ---------------------------------------------------------------------------

void HostBarrier::arrive_and_wait(int expected) {
  const std::uint64_t gen = gen_;
  if (++count_ >= expected) {
    count_ = 0;
    ++gen_;
    released_.touch();
    return;
  }
  sim::Process::running().wait({&released_},
                               [this, gen] { return gen_ != gen; });
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(System& sys, int node)
    : sys_(sys),
      node_(node),
      // Replication fan-out window: fenced urgent notified puts,
      // QuietNotify (the primary blocks on the backup's ack word, never on
      // this op's own completion), ring-batched exactly when server bursting
      // is on — closing the fan-out epoch is then the burst doorbell.
      repl_win_(sys.cluster().endpoint(node),
                rma::WindowConfig{.tag = sys.domain().replication().tag(),
                                  .quiet = true,
                                  .batched = sys.config().server_burst > 1},
                [this](int peer) -> Connection& {
                  return sys_.conn_to(sys_.cluster().endpoint(node_), peer);
                }),
      // Ack window: each ack is a notified put of the generation word. The
      // notification is a wakeup hint for the primary's ack wait; the word
      // itself stays authoritative (late or duplicated hints are harmless).
      ack_win_(sys.cluster().endpoint(node),
               rma::WindowConfig{.tag = kTagKvAck, .quiet = true},
               [this](int peer) -> Connection& {
                 return sys_.conn_to(sys_.cluster().endpoint(node_), peer);
               }) {
  free_slots_.resize(sys.config().partitions);
  next_fresh_.assign(sys.config().partitions, 0);
}

void Server::serve(Endpoint& ep) {
  const KvConfig& cfg = sys_.config();
  while (!sys_.stopped()) {
    bool did = false;
    // Poll only while holding the node lock: a fiber blocked on the lock
    // must never be able to steal notifications from the holder (the holder
    // services replication traffic itself while waiting for acks).
    if (lock_.try_lock()) {
      Notification n;
      rma::NotifyEvent ev;
      // Late ack hints (a backup acking after the detector made the primary
      // abandon it) are consumed here so they never pile up; the ack words
      // they announce were already applied by the data frames.
      while (ack_win_.test_notify(&ev)) {
      }
      if (repl_win_.test_notify(&ev)) {
        handle_repl(ep, ev);
        did = true;
      } else if (ep.poll_notification(&n, kTagKvRequest)) {
        handle_request(ep, n);
        did = true;
        // Burst drain (server_burst > 1): handle whatever requests are
        // already queued back-to-back — their responses are ring-batched —
        // then push the whole burst out with one doorbell. With the default
        // burst of 1 this degenerates to exactly the original shape.
        for (int i = 1;
             i < cfg.server_burst && ep.poll_notification(&n, kTagKvRequest);
             ++i) {
          handle_request(ep, n);
        }
        if (cfg.server_burst > 1) ep.flush();
      }
      lock_.unlock();
    }
    if (!did) {
      // Idle until a pass would do something: a free lock with waiters
      // (the try_lock/unlock pair wakes one) or a pending notification.
      sim::Process::current()->wait(
          {&sys_.stop_signal(), &lock_.signal(), &ack_win_.notify_signal(),
           &repl_win_.notify_signal(), &ep.notification_signal(kTagKvRequest)},
          [&] {
            return sys_.stopped() ||
                   (!lock_.held() &&
                    (lock_.has_waiters() || ack_win_.notify_pending() ||
                     repl_win_.notify_pending() ||
                     ep.has_notification(kTagKvRequest)));
          });
    }
  }
}

Status Server::execute_local(Endpoint& ep, std::uint32_t op,
                             std::string_view key, std::string_view value,
                             std::uint64_t seq, int client_node, int cslot,
                             std::string* out) {
  lock_.lock();
  ApplyResult r = dispatch(ep, op, key, value, seq, client_node, cslot);
  lock_.unlock();
  counters_.add(kCtrLocalOps);
  if (out) *out = std::move(r.value);
  return r.status;
}

void Server::handle_request(Endpoint& ep, const Notification& n) {
  // Snapshot the slot BEFORE dispatching: dispatch yields (replication ack
  // wait), during which a retry — or, once the response write has raced
  // ahead, the client's NEXT request — lands in the same slot. Re-reading the
  // header after the yield would respond with the new request's seq without
  // ever applying it. A slot that fails its seal holds a newer message still
  // landing: drop it unanswered; that message's own notification follows.
  const std::optional<DecodedRequest> sealed =
      decode_request(ep.memory(), n.va, sys_.config().max_value_bytes);
  if (!sealed) {
    counters_.add(kCtrTornMessages);
    return;
  }
  const DecodedRequest& req = *sealed;
  const ReqHeader& h = req.h;
  counters_.add(kCtrServerRequests);
  // Handler span: child of the request's receive span, parent of the
  // replication and response writes issued while the scope is live.
  trace::TraceRecorder* tr = sys_.cluster().tracer();
  trace::SpanContext hctx;
  if (tr != nullptr && n.ctx.active()) hctx = tr->new_child(n.ctx);
  const sim::Time h0 = sys_.cluster().sim().now();
  {
    const trace::SpanScope scope(hctx);
    const ApplyResult r =
        dispatch(ep, h.op, req.key, req.value, h.seq, h.client_node, h.cslot);
    respond(ep, h.client_node, h.cslot, h.seq, r.status, r.value);
  }
  if (hctx.active()) {
    tr->record_span(h0, sys_.cluster().sim().now() - h0,
                    trace::EventType::kKvHandler, node_, -1, -1, h.op, h.seq,
                    hctx, n.ctx.span_id);
  }
}

Server::ApplyResult Server::dispatch(Endpoint& ep, std::uint32_t op,
                                     std::string_view key,
                                     std::string_view value, std::uint64_t seq,
                                     int client_node, int cslot) {
  const int p = sys_.ring().partition_of(fnv1a64(key));
  ApplyResult r;
  // Only the acting primary (in THIS node's liveness view) serves; anyone
  // else bounces the client back to re-resolve. Views converge within a
  // heartbeat timeout, and the seq table keeps retried writes exactly-once.
  if (sys_.ring().primary_of(p, sys_.detector(node_).down_map()) != node_) {
    counters_.add(kCtrServerWrongPrimary);
    r.status = Status::kWrongPrimary;
    return r;
  }
  std::uint64_t* tbl = ep.memory().as<std::uint64_t>(
      sys_.domain().seq_table_va(p, client_node, cslot));
  const std::uint64_t prev_seq = *tbl >> 8;
  if (op == kOpGet) {
    r.status = lookup_local(ep, p, key, &r.value);
    if (seq > prev_seq) {
      *tbl = (seq << 8) | static_cast<std::uint64_t>(r.status);
    }
    return r;
  }
  if (seq <= prev_seq) {
    // Retry of an already-applied mutation (possibly first applied on a
    // now-dead primary and learned here through replication). Never
    // re-apply; do re-replicate a successful one, so a backup the dead
    // primary missed converges (backups dedupe by the same table).
    counters_.add(kCtrDupRequests);
    r.status = seq == prev_seq ? static_cast<Status>(*tbl & 0xff) : Status::kOk;
    if (seq == prev_seq && r.status == Status::kOk) {
      replicate(ep, op, p, key, value, seq, client_node, cslot);
    }
    return r;
  }
  r.status = apply(ep, op, p, key, value, seq, /*pause=*/true);
  *tbl = (seq << 8) | static_cast<std::uint64_t>(r.status);
  if (r.status == Status::kOk) {
    // Replication completes (every live backup applied + acked) BEFORE the
    // caller responds to the client: an acked write survives this node.
    replicate(ep, op, p, key, value, seq, client_node, cslot);
  }
  return r;
}

Status Server::apply(Endpoint& ep, std::uint32_t op, int partition,
                     std::string_view key, std::string_view value,
                     std::uint64_t seq, bool pause) {
  const KvConfig& cfg = sys_.config();
  const KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep.memory();
  const std::uint64_t entry_va =
      dom.bucket_entry_va(partition, bucket_of(fnv1a64(key), cfg));
  std::uint64_t* e = mem.as<std::uint64_t>(entry_va);
  const int idx = find_in_bucket(entry_va, key);

  if (op == kOpDel) {
    if (idx < 0) return Status::kNotFound;
    const std::uint64_t sva = e[1 + idx];
    const std::uint64_t cnt = e[0];
    e[1 + idx] = e[cnt];  // swap in the last chain entry
    e[0] = cnt - 1;
    // Tombstone the slot for one-sided readers still holding its VA from an
    // older chain snapshot: version stays even (freed, not torn), key_len 0
    // marks it free. No fiber yield between these writes, so a remote read
    // sees either the old record or the tombstone, never a mix.
    auto* rh = mem.as<RecordHeader>(sva);
    rh->version += 2;
    rh->key_len = 0;
    rh->val_len = 0;
    rh->checksum = 0;
    free_slots_[partition].push_back(static_cast<std::uint32_t>(
        (sva - dom.slot_va(partition, 0)) / dom.record_stride()));
    ep.compute(sim::ns(100));
    counters_.add(kCtrDeletesApplied);
    return Status::kOk;
  }

  assert(op == kOpPut);
  std::uint64_t sva;
  bool fresh = false;
  if (idx >= 0) {
    sva = e[1 + idx];
  } else {
    if (e[0] >= cfg.chain_slots) {
      counters_.add(kCtrNoSpace);
      return Status::kNoSpace;
    }
    const std::uint32_t slot = alloc_slot(partition);
    if (slot == UINT32_MAX) {
      counters_.add(kCtrNoSpace);
      return Status::kNoSpace;
    }
    sva = dom.slot_va(partition, slot);
    fresh = true;
  }
  auto* rh = mem.as<RecordHeader>(sva);
  std::byte* kdst = mem.as<std::byte>(sva + sizeof(RecordHeader));
  rh->version += 1;  // odd: update in progress
  rh->seq = seq;
  rh->key_len = static_cast<std::uint32_t>(key.size());
  rh->val_len = static_cast<std::uint32_t>(value.size());
  std::memcpy(kdst, key.data(), key.size());
  // An empty value's data() may be null, which memcpy does not accept.
  if (!value.empty()) {
    std::memcpy(kdst + key.size(), value.data(), value.size());
  }
  // The copy cost (plus any configured pause) lands INSIDE the odd-version
  // window — this is the fiber yield a concurrent one-sided reader can
  // observe, and what the torn-read retry protocol exists for.
  ep.compute(sim::ns_d(0.1 * static_cast<double>(key.size() + value.size())) +
             (pause ? cfg.put_pause : 0));
  rh->checksum = record_checksum(seq, rh->key_len, rh->val_len, kdst,
                                 kdst + key.size());
  rh->version += 1;  // even: stable
  if (fresh) {
    // Link only after the record is valid; no yield between these writes.
    e[1 + e[0]] = sva;
    e[0] += 1;
  }
  counters_.add(kCtrPutsApplied);
  return Status::kOk;
}

Status Server::lookup_local(Endpoint& ep, int partition, std::string_view key,
                            std::string* out) {
  const KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep.memory();
  const std::uint64_t entry_va =
      dom.bucket_entry_va(partition, bucket_of(fnv1a64(key), sys_.config()));
  const int idx = find_in_bucket(entry_va, key);
  ep.compute(sim::ns(100));
  if (idx < 0) return Status::kNotFound;
  const std::uint64_t sva = mem.as<std::uint64_t>(entry_va)[1 + idx];
  const auto* rh = mem.as<RecordHeader>(sva);
  if (out) {
    const char* v = reinterpret_cast<const char*>(
        mem.as<std::byte>(sva + sizeof(RecordHeader) + rh->key_len));
    out->assign(v, rh->val_len);
  }
  return Status::kOk;
}

void Server::replicate(Endpoint& ep, std::uint32_t op, int partition,
                       std::string_view key, std::string_view value,
                       std::uint64_t seq, int client_node, int cslot) {
  const KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep.memory();
  const member::View& det = sys_.detector(node_);

  std::vector<int> targets;
  for (int rep : sys_.ring().replicas(partition)) {
    if (rep != node_ && !det.is_down(rep)) targets.push_back(rep);
  }
  if (targets.empty()) return;

  const std::uint32_t gen = ++repl_gen_;
  const ReqHeader h{.seq = seq,
                    .op = op,
                    .partition = static_cast<std::uint32_t>(partition),
                    .client_node = static_cast<std::uint16_t>(client_node),
                    .cslot = static_cast<std::uint16_t>(cslot),
                    .repl_gen = gen};

  // The fan-out is one access epoch on the replication window. With server
  // bursting the window is batched: the notified puts park in the submission
  // rings and close() is the doorbell that pushes the whole replication
  // round out — mandatory before blocking on acks (a parked write would
  // never start).
  rma::Channel& mailbox = sys_.domain().replication();
  repl_win_.open();
  for (int t : targets) {
    const rma::Channel::Slot slot = mailbox.place(node_, t, dom.req_stride());
    const std::uint32_t bytes =
        encode_request(mem, slot.staging_va, h, key, value);
    repl_win_.put_notify(t, slot.remote_va, slot.staging_va, bytes);
  }
  repl_win_.close();
  counters_.add(kCtrReplSent, targets.size());

  // Wait for every live backup's ack (its per-primary ack word reaching this
  // generation). While waiting, keep servicing INCOMING replication traffic —
  // two primaries replicating to each other would otherwise deadlock. There
  // is no ack timeout: a backup either acks or gets marked down.
  std::vector<char> acked(targets.size(), 0);
  // True when a pass over the targets would mark one acked or abandoned.
  const auto ack_progress = [&] {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (!acked[i] &&
          (*mem.as<std::uint64_t>(dom.ack_slot_va(targets[i])) >= gen ||
           det.is_down(targets[i]))) {
        return true;
      }
    }
    return false;
  };
  for (;;) {
    rma::NotifyEvent ev;
    while (repl_win_.test_notify(&ev)) handle_repl(ep, ev);
    // Drain ack hints; the generation words checked below are authoritative.
    while (ack_win_.test_notify(&ev)) {
    }
    bool all = true;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (acked[i]) continue;
      if (*mem.as<std::uint64_t>(dom.ack_slot_va(targets[i])) >= gen) {
        acked[i] = 1;
        counters_.add(kCtrReplAcked);
      } else if (det.is_down(targets[i])) {
        acked[i] = 1;  // pruned: the detector gave up on this backup
        counters_.add(kCtrReplAbandoned);
      } else {
        all = false;
      }
    }
    if (all) {
      return;
    }
    // An ack word lands with its kTagKvAck notification.
    sim::Process::current()->wait(
        {&repl_win_.notify_signal(), &ack_win_.notify_signal(),
         &det.down_signal()},
        [&] {
          return repl_win_.notify_pending() || ack_win_.notify_pending() ||
                 ack_progress();
        });
  }
}

void Server::handle_repl(Endpoint& ep, const rma::NotifyEvent& n) {
  const KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep.memory();
  // Snapshot before apply: apply() charges CPU (yields), and the sender may
  // reuse the slot for the next generation once it prunes a slow ack. A torn
  // slot is dropped unacked, as in handle_request.
  const std::optional<DecodedRequest> sealed =
      decode_request(mem, n.va, sys_.config().max_value_bytes);
  if (!sealed) {
    counters_.add(kCtrTornMessages);
    return;
  }
  const DecodedRequest& req = *sealed;
  const ReqHeader* h = &req.h;
  const int src = n.src;
  const int p = static_cast<int>(h->partition);
  counters_.add(kCtrReplReceived);
  // Replication span: child of the replication write's receive span; the
  // ack write back to the primary is issued inside it.
  trace::TraceRecorder* tr = sys_.cluster().tracer();
  trace::SpanContext rctx;
  if (tr != nullptr && n.ctx.active()) rctx = tr->new_child(n.ctx);
  const sim::Time r0 = sys_.cluster().sim().now();
  const trace::SpanScope scope(rctx);

  // Apply if new (by the replicated client-seq table), regardless of whether
  // WE still think the sender is primary: seq monotonicity already makes the
  // apply idempotent and stale-proof, and judging the sender's primacy by a
  // possibly-diverged local view would drop real writes.
  if (src != node_ && sys_.ring().is_replica(p, node_) &&
      sys_.ring().is_replica(p, src)) {
    std::uint64_t* tbl = mem.as<std::uint64_t>(
        dom.seq_table_va(p, h->client_node, h->cslot));
    if (h->seq > (*tbl >> 8)) {
      const Status st = apply(ep, h->op, p, req.key, req.value, h->seq,
                              /*pause=*/false);
      *tbl = (h->seq << 8) | static_cast<std::uint64_t>(st);
      counters_.add(kCtrReplApplied);
    } else {
      counters_.add(kCtrReplDups);
    }
  }
  // Ack unconditionally — a notified put of the generation number on the
  // ack window. Withholding acks would wedge a primary whose ring view
  // disagrees with ours. The window is fenced (ack writes from this node
  // must apply in issue order at the primary, or a retransmitted older ack
  // could land after and mask a newer generation, wedging the primary's ack
  // wait) and quiet (the primary consumes the ack as a notification / the
  // delivered word, never this op's initiator-side acknowledgment).
  const std::uint64_t src_slot = dom.ack_src_va() + std::uint64_t{8} * src;
  *mem.as<std::uint64_t>(src_slot) = h->repl_gen;
  ack_win_.put_notify(src, dom.ack_slot_va(node_), src_slot, 8);
  if (rctx.active()) {
    tr->record_span(r0, sys_.cluster().sim().now() - r0,
                    trace::EventType::kKvRepl, node_, -1, -1, h->op, h->seq,
                    rctx, n.ctx.span_id);
  }
}

void Server::respond(Endpoint& ep, int client_node, int cslot,
                     std::uint64_t seq, Status st, std::string_view value) {
  assert(client_node != node_ && "local clients use execute_local");
  const KvConfig& cfg = sys_.config();
  KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep.memory();
  rma::Channel& mailbox = dom.responses(cslot);
  const rma::Channel::Slot slot =
      mailbox.place(node_, client_node, dom.resp_stride());
  const std::uint64_t build = slot.staging_va;
  auto* rh = mem.as<RespHeader>(build);
  rh->seq = seq;
  rh->status = static_cast<std::uint32_t>(st);
  rh->val_len = static_cast<std::uint32_t>(value.size());
  if (!value.empty()) {
    std::memcpy(mem.as<std::byte>(build + sizeof(RespHeader)), value.data(),
                value.size());
  }
  // QuietNotify: a response is fire-and-forget — the server never waits on
  // this op, and the client unblocks on the data-frame notification, not the
  // ack — so under selective signaling it may ride unsignaled like bulk.
  std::uint16_t flags =
      kOpFlagNotify | kOpFlagUrgent | kOpFlagBackwardFence |
      kOpFlagQuietNotify | op_tag_flags(mailbox.tag());
  // Under a serve-loop burst the responses of the whole burst share one
  // doorbell (serve() flushes after the drain); the response data is copied
  // into frames at submit, so reusing the staging slot per response stays
  // safe.
  if (cfg.server_burst > 1) flags |= kOpFlagBatched;
  sys_.conn_to(ep, client_node)
      .rdma_write(slot.remote_va, build,
                  static_cast<std::uint32_t>(sizeof(RespHeader) + value.size()),
                  flags);
  counters_.add(kCtrResponses);
}

int Server::find_in_bucket(std::uint64_t bucket_entry,
                           std::string_view key) const {
  const proto::MemorySpace& mem = sys_.cluster().memory(node_);
  const std::uint64_t* e = mem.as<std::uint64_t>(bucket_entry);
  for (std::uint64_t i = 0; i < e[0]; ++i) {
    const auto* rh = mem.as<RecordHeader>(e[1 + i]);
    if (rh->key_len != key.size()) continue;
    const auto* k = mem.as<std::byte>(e[1 + i] + sizeof(RecordHeader));
    if (std::memcmp(k, key.data(), key.size()) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::uint32_t Server::alloc_slot(int partition) {
  std::vector<std::uint32_t>& free = free_slots_[partition];
  if (!free.empty()) {
    const std::uint32_t s = free.back();
    free.pop_back();
    return s;
  }
  if (next_fresh_[partition] < sys_.config().slots_per_partition) {
    return next_fresh_[partition]++;
  }
  return UINT32_MAX;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(System& sys, Endpoint& ep, int cslot, svc::Tenant* tenant)
    : sys_(sys), ep_(ep), node_(ep.node_id()), cslot_(cslot), tenant_(tenant) {
  if (sys_.config().conn_mode == ConnMode::kPerClient) {
    own_conns_.resize(sys_.cluster().num_nodes());
  }
}

Connection& Client::direct_conn(int peer) {
  if (sys_.config().conn_mode == ConnMode::kPerClient) {
    // The connection-per-client baseline: every fiber its own QPs, no
    // sharing, no dedupe needed (the vector is fiber-private).
    if (!own_conns_[peer].valid()) {
      own_conns_[peer] = ep_.connect(peer);
      counters_.add(kCtrClientConns);
    }
    return own_conns_[peer];
  }
  return sys_.conn_to(ep_, peer);
}

ClientOpRef Client::issue_write(int peer, std::uint64_t remote_va,
                                std::uint64_t local_va, std::uint32_t bytes,
                                std::uint16_t flags) {
  ClientOpRef r;
  if (tenant_ != nullptr) {
    r.s = tenant_->write(peer, remote_va, local_va, bytes, flags);
  } else {
    r.h = direct_conn(peer).rdma_write(remote_va, local_va, bytes, flags);
  }
  return r;
}

ClientOpRef Client::issue_read(int peer, std::uint64_t local_va,
                               std::uint64_t remote_va, std::uint32_t bytes,
                               std::uint16_t flags) {
  ClientOpRef r;
  if (tenant_ != nullptr) {
    r.s = tenant_->read(peer, local_va, remote_va, bytes, flags);
  } else {
    r.h = direct_conn(peer).rdma_read(local_va, remote_va, bytes, flags);
  }
  return r;
}

ClientOpRef Client::issue_gather_read(int peer, std::vector<GatherSegment> segs,
                                      std::uint64_t remote_base,
                                      std::uint16_t flags) {
  ClientOpRef r;
  if (tenant_ != nullptr) {
    r.s = tenant_->gather_read(peer, std::move(segs), remote_base, flags);
  } else {
    r.h = direct_conn(peer).rdma_gather_read(segs, remote_base, flags);
  }
  return r;
}

Status Client::get(std::string_view key, std::string* out) {
  check_sizes(sys_.config(), key, {});
  const KvOpSpan span(sys_.cluster(), node_, kOpGet);
  const sim::Time t0 = sys_.cluster().sim().now();
  const Status st = one_sided_get(key, out);
  get_hist_.record(
      static_cast<std::uint64_t>(sim::to_ns(sys_.cluster().sim().now() - t0)));
  counters_.add(kCtrGets);
  return st;
}

Status Client::put(std::string_view key, std::string_view value) {
  check_sizes(sys_.config(), key, value);
  const KvOpSpan span(sys_.cluster(), node_, kOpPut);
  const sim::Time t0 = sys_.cluster().sim().now();
  const Status st = rpc(kOpPut, key, value);
  put_hist_.record(
      static_cast<std::uint64_t>(sim::to_ns(sys_.cluster().sim().now() - t0)));
  counters_.add(kCtrPuts);
  return st;
}

Status Client::del(std::string_view key) {
  check_sizes(sys_.config(), key, {});
  const KvOpSpan span(sys_.cluster(), node_, kOpDel);
  const sim::Time t0 = sys_.cluster().sim().now();
  const Status st = rpc(kOpDel, key, {});
  put_hist_.record(
      static_cast<std::uint64_t>(sim::to_ns(sys_.cluster().sim().now() - t0)));
  counters_.add(kCtrDels);
  return st;
}

void Client::pause(sim::Time t) { idle_wait(t); }

Status Client::shed(const ClientOpRef& r) {
  last_retry_after_ = r.retry_after();
  counters_.add(kCtrRejected);
  return Status::kRejected;
}

Status Client::rpc(std::uint32_t op, std::string_view key,
                   std::string_view value) {
  const KvConfig& cfg = sys_.config();
  KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep_.memory();
  const int p = sys_.ring().partition_of(fnv1a64(key));
  const std::uint64_t seq = ++seq_;  // retries of this op reuse the seq
  rma::Channel& requests = dom.requests(cslot_);
  const int resp_tag = dom.responses(cslot_).tag();

  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt) counters_.add(kCtrRpcRetries);
    const int primary =
        sys_.ring().primary_of(p, sys_.detector(node_).down_map());
    if (primary < 0) return Status::kUnavailable;
    if (primary == node_) {
      const Status st = sys_.server(node_).execute_local(
          ep_, op, key, value, seq, node_, cslot_, nullptr);
      if (st == Status::kWrongPrimary) {
        counters_.add(kCtrWrongPrimary);
        idle_wait(cfg.heartbeat_period);  // let the detectors converge
        continue;
      }
      return st;
    }

    const rma::Channel::Slot slot =
        requests.place(node_, primary, dom.req_stride());
    const std::uint32_t bytes = encode_request(
        mem, slot.staging_va,
        ReqHeader{.seq = seq,
                  .op = op,
                  .partition = static_cast<std::uint32_t>(p),
                  .client_node = static_cast<std::uint16_t>(node_),
                  .cslot = static_cast<std::uint16_t>(cslot_)},
        key, value);
    // Under submission batching the request rides the ring as a BATCHED
    // (non-urgent) op and is pushed out by the engine-wide flush below: one
    // doorbell syscall can release requests several client fibers on this
    // node just parked, and dropping the urgency lets the server's protocol
    // thread harvest arriving requests in notification batches. Without
    // batching the request is urgent — submitted and transmitted eagerly.
    const bool batch = ep_.engine().config().batch_submission;
    const std::uint16_t req_flags = static_cast<std::uint16_t>(
        kOpFlagNotify | kOpFlagBackwardFence | op_tag_flags(requests.tag()) |
        (batch ? kOpFlagBatched : kOpFlagUrgent));
    const ClientOpRef req = issue_write(primary, slot.remote_va,
                                        slot.staging_va, bytes, req_flags);
    if (req.rejected()) {
      // Broker admission control shed the request before it touched the
      // wire: fail fast so the caller backs off instead of piling retries
      // onto an already-saturated serving tier. The broker's retry-after
      // hint rides along (last_retry_after()).
      return shed(req);
    }
    // The wait loop below never auto-flushes; brokered ops are flushed by
    // the broker's dispatcher instead.
    if (batch && tenant_ == nullptr) ep_.flush();
    counters_.add(kCtrRpcSent);

    // Await the matching response; a resend can race a late original, so
    // stale-seq responses are drained and dropped.
    const sim::Simulator& sim = sys_.cluster().sim();
    const sim::Time deadline = sim.now() + cfg.rpc_timeout;
    bool got = false, wrong_primary = false;
    Status st = Status::kUnavailable;
    while (sim.now() < deadline && !got) {
      Notification n;
      while (ep_.poll_notification(&n, resp_tag)) {
        const auto* rh = mem.as<RespHeader>(n.va);
        if (rh->seq != seq) {
          counters_.add(kCtrStaleResponses);
          continue;
        }
        st = static_cast<Status>(rh->status);
        wrong_primary = st == Status::kWrongPrimary;
        got = true;
        break;
      }
      if (!got) {
        sim::Process::current()->wait(
            {{&ep_.notification_signal(resp_tag)}, deadline},
            [&] { return ep_.has_notification(resp_tag); });
      }
    }
    if (got && !wrong_primary) return st;
    if (wrong_primary) {
      counters_.add(kCtrWrongPrimary);
      idle_wait(cfg.heartbeat_period);
    } else {
      counters_.add(kCtrRpcTimeouts);  // re-resolve (maybe re-route) + resend
    }
  }
  return Status::kUnavailable;
}

Status Client::one_sided_get(std::string_view key, std::string* out) {
  const KvConfig& cfg = sys_.config();
  const KvDomain& dom = sys_.domain();
  proto::MemorySpace& mem = ep_.memory();
  const std::uint64_t kh = fnv1a64(key);
  const int p = sys_.ring().partition_of(kh);
  const std::uint64_t entry_va = dom.bucket_entry_va(p, bucket_of(kh, cfg));
  const std::uint32_t entry_bytes = dom.bucket_entry_bytes();
  const std::uint64_t entry_pad = align64(entry_bytes);
  const std::uint32_t stride = dom.record_stride();
  const std::uint64_t slab_base = dom.slot_va(p, 0);
  const std::uint64_t slab_end =
      slab_base + std::uint64_t{cfg.slots_per_partition} * stride;
  const std::uint16_t rflags = kOpFlagSolicit | kOpFlagUrgent;

  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt) counters_.add(kCtrGetRetries);
    const int primary =
        sys_.ring().primary_of(p, sys_.detector(node_).down_map());
    if (primary < 0) return Status::kUnavailable;
    if (primary == node_) {
      // Fast path: the data is local; read it under the node lock (no
      // concurrent updater mid-record, so no validation loop needed).
      std::string local;
      const Status st = sys_.server(node_).execute_local(
          ep_, kOpGet, key, {}, ++seq_, node_, cslot_, &local);
      if (st == Status::kWrongPrimary) {
        counters_.add(kCtrWrongPrimary);
        idle_wait(cfg.heartbeat_period);
        continue;
      }
      counters_.add(kCtrGetLocal);
      if (out) *out = std::move(local);
      return st;
    }

    const int set = acquire_get_buf();
    const std::uint64_t buf = dom.get_buf_va(cslot_, set);

    // Round trip 1: the bucket's chain descriptor (count + slot VAs).
    const ClientOpRef h = issue_read(primary, buf, entry_va, entry_bytes,
                                     rflags);
    if (h.rejected()) {
      return shed(h);
    }
    get_pending_[set] = h;
    if (!svc::wait_op(sys_.cluster(), h, cfg.get_timeout)) {
      counters_.add(kCtrGetTimeouts);
      continue;  // re-resolve: the primary may be on its way down
    }
    if (h.rejected()) {  // broker stopped mid-wait and shed the queue
      return shed(h);
    }
    const std::uint64_t* e = mem.as<std::uint64_t>(buf);
    const std::uint64_t count = e[0];
    if (count > cfg.chain_slots) {  // not a valid descriptor snapshot
      counters_.add(kCtrGetTorn);
      continue;
    }
    if (count == 0) return Status::kNotFound;
    std::vector<GatherSegment> segs;
    segs.reserve(count);
    bool sane = true;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t sva = e[1 + i];
      if (sva < slab_base || sva + stride > slab_end ||
          (sva - slab_base) % stride != 0) {
        sane = false;
        break;
      }
      segs.push_back(GatherSegment{sva - slab_base, buf + entry_pad + i * stride,
                                   stride});
    }
    if (!sane) {
      counters_.add(kCtrGetTorn);
      continue;
    }
    // Round trip 2: every candidate record in ONE gather read.
    const ClientOpRef g =
        issue_gather_read(primary, std::move(segs), slab_base, rflags);
    if (g.rejected()) {
      return shed(g);
    }
    get_pending_[set] = g;
    if (!svc::wait_op(sys_.cluster(), g, cfg.get_timeout)) {
      counters_.add(kCtrGetTimeouts);
      continue;
    }
    if (g.rejected()) {
      return shed(g);
    }
    const Status st = validate_snapshot(mem.as<std::byte>(buf),
                                        mem.as<std::byte>(buf + entry_pad),
                                        key, out);
    if (st != Status::kWrongPrimary) return st;  // kWrongPrimary = torn here
    counters_.add(kCtrGetTorn);
    idle_wait(kTornGetBackoff);
  }
  return Status::kUnavailable;
}

int Client::acquire_get_buf() {
  const auto free_set = [&] {
    for (int set = 0; set < KvDomain::kGetBufSets; ++set) {
      if (!get_pending_[set].valid() || get_pending_[set].test()) return set;
    }
    return -1;
  };
  int set = free_set();
  if (set < 0) {
    // Every set has a timed-out read still outstanding; the protocol is
    // reliable, so one of them will complete.
    std::array<sim::Signal*, KvDomain::kGetBufSets> on;
    for (int s = 0; s < KvDomain::kGetBufSets; ++s) {
      on[s] = get_pending_[s].done_signal();
    }
    counters_.add(kCtrGetBufStalls);
    sim::Process::current()->wait(sim::Wake{on},
                                  [&] { return free_set() >= 0; });
    set = free_set();
  }
  return set;
}

Status Client::validate_snapshot(const std::byte* bucket,
                                 const std::byte* slots, std::string_view key,
                                 std::string* out) {
  const KvConfig& cfg = sys_.config();
  const std::uint32_t stride = sys_.domain().record_stride();
  std::uint64_t count;
  std::memcpy(&count, bucket, sizeof(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::byte* rec = slots + i * stride;
    RecordHeader rh;
    std::memcpy(&rh, rec, sizeof(rh));
    if (rh.version & 1) return Status::kWrongPrimary;  // mid-update: torn
    if (rh.key_len == 0) continue;  // freed between the two round trips
    if (rh.key_len > kMaxKeyBytes || rh.val_len > cfg.max_value_bytes) {
      return Status::kWrongPrimary;
    }
    const std::byte* k = rec + sizeof(RecordHeader);
    const std::byte* v = k + rh.key_len;
    if (record_checksum(rh.seq, rh.key_len, rh.val_len, k, v) != rh.checksum) {
      return Status::kWrongPrimary;
    }
    if (rh.key_len == key.size() &&
        std::memcmp(k, key.data(), key.size()) == 0) {
      if (out) out->assign(reinterpret_cast<const char*>(v), rh.val_len);
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

// ---------------------------------------------------------------------------
// System
// ---------------------------------------------------------------------------

System::System(Cluster& cluster, KvConfig cfg, member::Service* membership)
    : cluster_(cluster),
      cfg_(check_client_slots(cfg)),
      ring_(cluster.num_nodes(), cfg.partitions, cfg.replication, cfg.vnodes,
            cfg.seed),
      domain_(cluster, cfg_) {
  if (membership) {
    member_ = membership;
  } else {
    member::MemberConfig mc;
    mc.period = cfg_.heartbeat_period;
    mc.suspect_timeout = cfg_.failure_timeout;
    mc.seed = cfg_.seed ^ 0x6d656d62ull;  // decorrelate from the ring
    owned_member_ = std::make_unique<member::Service>(cluster_, mc);
    member_ = owned_member_.get();
  }
  // Preserve the old detector's observable counter: every Dead transition in
  // any node's view is a "peer marked down" on that node.
  member_->add_on_transition(
      [this](int observer, int peer, member::PeerState st, sim::Time) {
        (void)peer;
        if (st == member::PeerState::kDead) {
          nodes_[observer]->server->counters().add(kCtrPeersMarkedDown);
        }
      });
  if (cfg_.conn_mode == ConnMode::kBroker) {
    broker_ = std::make_unique<svc::Broker>(cluster_, cfg_.broker);
  }
  const int n = cluster.num_nodes();
  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto ctx = std::make_unique<NodeCtx>();
    ctx->server = std::make_unique<Server>(*this, i);
    ctx->conns.resize(n);
    ctx->connecting.assign(n, false);
    nodes_.push_back(std::move(ctx));
  }
  for (int i = 0; i < n; ++i) {
    cluster_.spawn(i, "kv-serve-" + std::to_string(i), [this](Endpoint& ep) {
      nodes_[ep.node_id()]->server->serve(ep);
    });
  }
}

Connection& System::conn_to(Endpoint& ep, int peer) {
  assert(peer != ep.node_id());
  NodeCtx& ctx = *nodes_[ep.node_id()];
  // One shared connection per peer; fibers racing to create it wait for the
  // first one's handshake instead of opening duplicates.
  if (ctx.connecting[peer]) {
    sim::Process::running().wait({&ctx.conn_done}, [&ctx, peer] {
      return !ctx.connecting[peer];
    });
  }
  if (ctx.conns[peer].valid()) return ctx.conns[peer];
  ctx.connecting[peer] = true;
  Connection c = ep.connect(peer);
  ctx.conns[peer] = c;
  ctx.connecting[peer] = false;
  ctx.conn_done.touch();
  return ctx.conns[peer];
}

void System::spawn_client(int node, std::string name,
                          std::function<void(Client&)> body) {
  NodeCtx& ctx = *nodes_[node];
  const int cslot = ctx.next_cslot++;
  if (cslot >= cfg_.clients_per_node) {
    throw std::runtime_error("kv: more clients than clients_per_node on node " +
                             std::to_string(node));
  }
  ++clients_active_;
  any_client_spawned_ = true;
  // In broker mode every client fiber is a tenant of the node-local broker;
  // attaching is pure bookkeeping, so it happens here (host side).
  svc::Tenant* tenant =
      broker_ ? &broker_->attach(node, name) : nullptr;
  cluster_.spawn(node, std::move(name),
                 [this, cslot, tenant, body = std::move(body)](Endpoint& ep) {
                   Client c(*this, ep, cslot, tenant);
                   body(c);
                   if (tenant != nullptr) tenant->close();
                   nodes_[ep.node_id()]->client_counters.merge(c.counters());
                   // Last client out stops the service fibers (and the
                   // membership service, if this System owns it).
                   if (--clients_active_ == 0) stop();
                 });
}

stats::Counters System::aggregate_counters() const {
  stats::Counters all;
  for (const auto& ctx : nodes_) {
    all.merge(ctx->server->counters());
    all.merge(ctx->client_counters);
  }
  if (broker_) all.merge(broker_->aggregate_counters());
  return all;
}

}  // namespace multiedge::kv
