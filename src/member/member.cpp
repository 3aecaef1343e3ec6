#include "member/member.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <sstream>

#include "proto/wire.hpp"
#include "sim/process.hpp"

namespace multiedge::member {

namespace {

// Interned counter handles: one registry lookup at startup, plain vector
// adds on the data path.
const stats::CounterId kCtrMsgsUnroutable =
    stats::CounterRegistry::intern("member_msgs_unroutable");
const stats::CounterId kCtrMsgsSent =
    stats::CounterRegistry::intern("member_msgs_sent");
const stats::CounterId kCtrMsgsRx =
    stats::CounterRegistry::intern("member_msgs_rx");
const stats::CounterId kCtrAcksSent =
    stats::CounterRegistry::intern("member_acks_sent");
const stats::CounterId kCtrRelayPings =
    stats::CounterRegistry::intern("member_relay_pings");
const stats::CounterId kCtrProbeMsgs =
    stats::CounterRegistry::intern("member_probe_msgs");
const stats::CounterId kCtrIndirectRescues =
    stats::CounterRegistry::intern("member_indirect_rescues");
const stats::CounterId kCtrMsgsBadType =
    stats::CounterRegistry::intern("member_msgs_bad_type");
const stats::CounterId kCtrSuspicionsCleared =
    stats::CounterRegistry::intern("member_suspicions_cleared");
const stats::CounterId kCtrRefutes =
    stats::CounterRegistry::intern("member_refutes");
const stats::CounterId kCtrSelfDeclaredDead =
    stats::CounterRegistry::intern("member_self_declared_dead");
const stats::CounterId kCtrSuspects =
    stats::CounterRegistry::intern("member_suspects");
const stats::CounterId kCtrDeadMarks =
    stats::CounterRegistry::intern("member_dead_marks");
const stats::CounterId kCtrEagerGossip =
    stats::CounterRegistry::intern("member_eager_gossip");
const stats::CounterId kCtrProbesSuppressed =
    stats::CounterRegistry::intern("member_probes_suppressed");
const stats::CounterId kCtrPingsSent =
    stats::CounterRegistry::intern("member_pings_sent");
const stats::CounterId kCtrPingReqsSent =
    stats::CounterRegistry::intern("member_ping_reqs_sent");

constexpr std::uint64_t align64(std::uint64_t v) { return (v + 63) & ~63ull; }

int ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

// Message types carried in MsgHeader::type.
constexpr std::uint8_t kPing = 0;
constexpr std::uint8_t kAck = 1;
constexpr std::uint8_t kPingReq = 2;
constexpr std::uint8_t kGossip = 3;  // updates only, no reply expected

/// Wire layout of a membership message; UpdateEntry records follow.
struct MsgHeader {
  std::uint8_t type;
  std::uint8_t num_updates;
  std::uint16_t src;     // sender
  std::uint16_t target;  // kPing/kPingReq: node being probed; kAck: acker
  std::uint16_t origin;  // node the ack must go to (the probing node)
  std::uint64_t seq;     // probe sequence, echoed by the ack
};
static_assert(sizeof(MsgHeader) == 16);

struct UpdateEntry {
  std::uint32_t node;
  std::uint32_t state;  // PeerState
  std::uint64_t incarnation;
};
static_assert(sizeof(UpdateEntry) == 16);

/// One inbox slot: a header plus a full update list, 64-byte aligned.
constexpr std::uint32_t kMsgStride = static_cast<std::uint32_t>(align64(
    sizeof(MsgHeader) + std::uint64_t{kMaxUpdates} * sizeof(UpdateEntry)));

/// Sleep without occupying the app core (same rationale as the KV layer:
/// a blocked fiber burns no CPU; a compute() poll loop would starve the
/// node's real work).
void idle_wait(sim::Time t) { sim::Process::current()->delay(t); }

/// Close out one probe round's span (kMemberProbe): a = probed peer,
/// b = 1 when the round ended with an ack, 0 when it matured into suspicion.
void record_probe_span(trace::TraceRecorder* tr, sim::Time now, int self,
                       sim::Time started, const trace::SpanContext& ctx,
                       int target, bool acked) {
  if (tr == nullptr || !ctx.active()) return;
  tr->record_span(started, now - started, trace::EventType::kMemberProbe, self,
                  -1, -1, static_cast<std::uint64_t>(target), acked ? 1 : 0,
                  ctx);
}

}  // namespace

const char* state_str(PeerState s) {
  switch (s) {
    case PeerState::kAlive: return "alive";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "?";
}

sim::Time detection_bound(const MemberConfig& cfg, int n) {
  if (cfg.mesh) return cfg.period + kMeshTimeout + cfg.period;
  // Detection: with ~n-1 independent shuffled probers, some live node probes
  // the dead peer within a handful of periods w.h.p.; the suspicion then
  // needs ping + indirect timeouts to form and suspect_timeout to mature.
  // Dissemination: piggybacked gossip is epidemic — O(log n) periods. The
  // constants are deliberately loose; this is a ceiling for tests.
  const int rounds = 10 + 3 * ceil_log2(std::max(2, n));
  return cfg.period * rounds + kPingTimeout + kIndirectTimeout +
         cfg.suspect_timeout;
}

// ---------------------------------------------------------------------------
// Construction / symmetric domain
// ---------------------------------------------------------------------------

Service::Service(Cluster& cluster, MemberConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      num_nodes_(cluster.num_nodes()),
      gossip_budget_(kRetransmitFactor * (ceil_log2(num_nodes_) + 1)),
      inbox_(cluster, kInboxSlots * kMsgStride, kTagMember),
      hb_va_(cluster.reserve_symmetric(num_nodes_ * 8)),
      hb_src_va_(cluster.reserve_symmetric(8)) {

  nodes_.reserve(num_nodes_);
  for (int i = 0; i < num_nodes_; ++i) {
    auto ctx = std::make_unique<NodeCtx>(
        i, num_nodes_, cfg_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    ctx->conns.assign(num_nodes_, nullptr);
    ctx->connect_started.assign(num_nodes_, 0);
    ctx->suspect_since.assign(num_nodes_, 0);
    if (cfg_.mesh) {
      ctx->mesh_last_val.assign(num_nodes_, 0);
      ctx->mesh_last_change.assign(num_nodes_, 0);
    } else {
      // Shuffled round-robin probe schedule (SWIM §4.3): every peer is
      // probed within n-1 rounds, in an order uncorrelated across nodes.
      for (int p = 0; p < num_nodes_; ++p) {
        if (p != i) ctx->probe_order.push_back(p);
      }
      for (std::size_t k = ctx->probe_order.size(); k > 1; --k) {
        std::swap(ctx->probe_order[k - 1],
                  ctx->probe_order[ctx->rng.next_below(k)]);
      }
    }
    nodes_.push_back(std::move(ctx));
  }
  for (int i = 0; i < num_nodes_; ++i) {
    cluster_.spawn(i, "member-" + std::to_string(i), [this](Endpoint& ep) {
      if (cfg_.mesh) {
        mesh_fiber(ep);
      } else {
        fiber(ep);
      }
    });
  }

  // Postmortem section: every node's membership view at dump time, one
  // compact string per node ('.' self, 'a' alive, 's' suspect, 'd' dead).
  cluster_.add_postmortem_provider("membership", [this] {
    std::ostringstream os;
    os << "{\"nodes\": [";
    for (int i = 0; i < num_nodes_; ++i) {
      const View& v = nodes_[i]->view;
      os << (i ? "," : "") << "\n    {\"node\": " << i
         << ", \"num_down\": " << v.num_down() << ", \"view\": \"";
      for (int p = 0; p < num_nodes_; ++p) {
        if (p == i) {
          os << '.';
        } else {
          switch (v.state(p)) {
            case PeerState::kAlive: os << 'a'; break;
            case PeerState::kSuspect: os << 's'; break;
            case PeerState::kDead: os << 'd'; break;
          }
        }
      }
      os << "\"}";
    }
    os << "\n  ]}";
    return os.str();
  });
}

stats::Counters Service::aggregate_counters() const {
  stats::Counters all;
  for (const auto& ctx : nodes_) all.merge(ctx->counters);
  return all;
}

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

proto::Connection* Service::conn_or_null(NodeCtx& ctx, Endpoint& ep,
                                         int peer) {
  proto::Connection*& c = ctx.conns[peer];
  if (c && c->state() == proto::ConnState::kEstablished) return c;
  // Any established connection works; prefer one the peer already opened
  // toward us (the common case for acks: the ping arrived on it).
  if (proto::Connection* r = ep.engine().responder_for(peer)) return r;
  if (!c) {
    // Non-blocking connect: Endpoint::connect would park this fiber forever
    // on a crashed peer, which is exactly the case a failure detector must
    // survive. The engine keeps retrying SYNs; we just poll state().
    c = ep.engine().connect(peer);
    ctx.connect_started[peer] = cluster_.sim().now();
  }
  return c->state() == proto::ConnState::kEstablished ? c : nullptr;
}

void Service::send_msg(NodeCtx& ctx, Endpoint& ep, int dst, std::uint8_t type,
                       int target, int origin, std::uint64_t seq) {
  proto::Connection* pc = conn_or_null(ctx, ep, dst);
  if (!pc) {
    // Still handshaking (or the peer is gone). Probe logic treats the
    // missing ack like any other loss; gossip rides later messages.
    ctx.counters.add(kCtrMsgsUnroutable);
    return;
  }
  const int self = ctx.view.self();
  const rma::Channel::Slot slot = inbox_.place(self, dst, kMsgStride);
  proto::MemorySpace& mem = ep.memory();
  auto* h = mem.as<MsgHeader>(slot.staging_va);
  h->type = type;
  h->src = static_cast<std::uint16_t>(self);
  h->target = static_cast<std::uint16_t>(target);
  h->origin = static_cast<std::uint16_t>(origin);
  h->seq = seq;
  auto* entries = mem.as<UpdateEntry>(slot.staging_va + sizeof(MsgHeader));
  // Entry 0 is always the sender's own Alive(incarnation) — every message
  // doubles as a heartbeat and as the refutation carrier after an
  // incarnation bump.
  int m = 0;
  entries[m++] = UpdateEntry{static_cast<std::uint32_t>(self),
                             static_cast<std::uint32_t>(PeerState::kAlive),
                             ctx.view.incarnation(self)};
  if (!ctx.gossip.empty() && m < kMaxUpdates) {
    // Piggyback the freshest updates (highest remaining send budget).
    std::vector<int> idx(ctx.gossip.size());
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t take = std::min<std::size_t>(
        idx.size(), static_cast<std::size_t>(kMaxUpdates - m));
    std::partial_sort(idx.begin(), idx.begin() + take, idx.end(),
                      [&](int a, int b) {
                        return ctx.gossip[a].sends_left > ctx.gossip[b].sends_left;
                      });
    for (std::size_t k = 0; k < take; ++k) {
      GossipEntry& g = ctx.gossip[idx[k]];
      entries[m++] = UpdateEntry{
          static_cast<std::uint32_t>(g.node),
          static_cast<std::uint32_t>(ctx.view.state(g.node)),
          ctx.view.incarnation(g.node)};
      --g.sends_left;
    }
    ctx.gossip.erase(std::remove_if(ctx.gossip.begin(), ctx.gossip.end(),
                                    [](const GossipEntry& g) {
                                      return g.sends_left <= 0;
                                    }),
                     ctx.gossip.end());
  }
  h->num_updates = static_cast<std::uint8_t>(m);

  const auto bytes = static_cast<std::uint32_t>(sizeof(MsgHeader) +
                                                m * sizeof(UpdateEntry));
  // BackwardFence keeps one sender's messages applying in issue order, so
  // the receiver's per-source ring is consumed FIFO.
  Connection(&ep, pc).rdma_write(
      slot.remote_va, slot.staging_va, bytes,
      kOpFlagNotify | kOpFlagUrgent | kOpFlagBackwardFence |
          op_tag_flags(inbox_.tag()));
  ctx.counters.add(kCtrMsgsSent);
}

void Service::handle_msg(NodeCtx& ctx, Endpoint& ep, const Notification& n) {
  proto::MemorySpace& mem = ep.memory();
  // Copy the message out before doing anything that can yield (sends charge
  // CPU): the slot ring may be rewritten by the source meanwhile.
  MsgHeader h;
  std::memcpy(&h, mem.as<std::byte>(n.va), sizeof(h));
  std::array<UpdateEntry, 255> updates;
  const int m = std::min<int>(h.num_updates, kMaxUpdates);
  std::memcpy(updates.data(), mem.as<std::byte>(n.va + sizeof(MsgHeader)),
              static_cast<std::size_t>(m) * sizeof(UpdateEntry));
  ctx.counters.add(kCtrMsgsRx);
  // Replies issued below (acks, relayed pings) stitch under the incoming
  // message's receive span, so a full ping-req round renders as one trace.
  const trace::SpanScope scope(n.ctx);

  const int src = h.src;
  // First-hand evidence beats gossip: a message FROM a peer proves it alive
  // regardless of incarnation bookkeeping.
  mark_peer_alive(ctx, src);
  for (int i = 0; i < m; ++i) {
    apply_update(ctx, static_cast<int>(updates[i].node),
                 static_cast<PeerState>(updates[i].state),
                 updates[i].incarnation);
  }

  switch (h.type) {
    case kPing:
      // Ack straight to the probing node (h.origin) — for an indirect probe
      // that skips the relay hop on the way back.
      send_msg(ctx, ep, h.origin, kAck, ctx.view.self(), h.origin, h.seq);
      ctx.counters.add(kCtrAcksSent);
      break;
    case kPingReq:
      // Probe h.target on behalf of h.origin; the target acks h.origin.
      send_msg(ctx, ep, h.target, kPing, h.target, h.origin, h.seq);
      ctx.counters.add(kCtrRelayPings);
      ctx.counters.add(kCtrProbeMsgs);
      break;
    case kAck:
      if (ctx.probe.target == src && h.seq == ctx.probe.seq) {
        record_probe_span(cluster_.tracer(), cluster_.sim().now(),
                          ctx.view.self(), ctx.probe.started, ctx.probe.ctx,
                          ctx.probe.target, /*acked=*/true);
        ctx.probe.target = -1;  // round succeeded
        if (ctx.probe.indirect) ctx.counters.add(kCtrIndirectRescues);
      }
      break;
    case kGossip:
      break;  // updates were applied above; nothing to answer
    default:
      ctx.counters.add(kCtrMsgsBadType);
      break;
  }
}

// ---------------------------------------------------------------------------
// SWIM state machine
// ---------------------------------------------------------------------------

void Service::transition(NodeCtx& ctx, int peer, PeerState st) {
  View& v = ctx.view;
  if (v.state_[peer] == st) return;
  v.state_[peer] = st;
  if (st == PeerState::kDead && !v.down_[peer]) {
    v.down_[peer] = true;
    ++v.num_down_;
    v.down_signal_.touch();
  }
  const sim::Time now = cluster_.sim().now();
  for (const auto& fn : on_transition_) fn(v.self(), peer, st, now);
}

void Service::enqueue_gossip(NodeCtx& ctx, int node) {
  if (node == ctx.view.self()) return;  // entry 0 of every message is self
  for (GossipEntry& g : ctx.gossip) {
    if (g.node == node) {
      g.sends_left = gossip_budget_;  // refresh: state changed again
      return;
    }
  }
  ctx.gossip.push_back(GossipEntry{node, gossip_budget_});
}

void Service::mark_peer_alive(NodeCtx& ctx, int peer) {
  View& v = ctx.view;
  if (peer == v.self() || v.state_[peer] != PeerState::kSuspect) return;
  // Local clear only — no incarnation bump (that is the suspect's own
  // privilege); other views converge through the suspect's refutation.
  ctx.suspect_since[peer] = 0;
  --ctx.num_suspects;
  transition(ctx, peer, PeerState::kAlive);
  ctx.counters.add(kCtrSuspicionsCleared);
}

void Service::apply_update(NodeCtx& ctx, int node, PeerState st,
                           std::uint64_t inc) {
  View& v = ctx.view;
  const int self = v.self();
  if (node < 0 || node >= num_nodes_) return;
  if (node == self) {
    // Someone thinks we are suspect/dead. Refute suspicion by bumping our
    // incarnation; death cannot be refuted (sticky by design).
    if (st == PeerState::kSuspect && inc >= v.incarnation_[self]) {
      v.incarnation_[self] = inc + 1;
      ctx.counters.add(kCtrRefutes);
    } else if (st == PeerState::kDead) {
      ctx.counters.add(kCtrSelfDeclaredDead);
    }
    return;
  }
  const PeerState cur = v.state_[node];
  const std::uint64_t cur_inc = v.incarnation_[node];
  if (cur == PeerState::kDead) return;  // sticky for the session

  switch (st) {
    case PeerState::kAlive:
      if (inc > cur_inc) {
        v.incarnation_[node] = inc;
        if (cur == PeerState::kSuspect) {
          ctx.suspect_since[node] = 0;
          --ctx.num_suspects;
          transition(ctx, node, PeerState::kAlive);
          ctx.counters.add(kCtrSuspicionsCleared);
        }
        enqueue_gossip(ctx, node);  // relay the refutation
      }
      break;
    case PeerState::kSuspect:
      if (inc > cur_inc || (inc == cur_inc && cur == PeerState::kAlive)) {
        v.incarnation_[node] = inc;
        if (cur == PeerState::kAlive) {
          ctx.suspect_since[node] = cluster_.sim().now();
          ++ctx.num_suspects;
          transition(ctx, node, PeerState::kSuspect);
          ctx.counters.add(kCtrSuspects);
        }
        enqueue_gossip(ctx, node);
      }
      break;
    case PeerState::kDead:
      if (cur == PeerState::kSuspect) {
        ctx.suspect_since[node] = 0;
        --ctx.num_suspects;
      }
      transition(ctx, node, PeerState::kDead);
      ctx.counters.add(kCtrDeadMarks);
      enqueue_gossip(ctx, node);
      // A confirmed death is too important to wait out the next probe tick:
      // push it to kIndirectK random live peers right away. Each recipient
      // that learns something new pushes again, so the confirmation spreads
      // in O(log n) network hops instead of O(log n) probe periods.
      if (ctx.ep) eager_disseminate(ctx, *ctx.ep);
      break;
  }
}

void Service::eager_disseminate(NodeCtx& ctx, Endpoint& ep) {
  std::vector<int> cands;
  for (int p = 0; p < num_nodes_; ++p) {
    if (p == ctx.view.self() || ctx.view.state(p) == PeerState::kDead) {
      continue;
    }
    cands.push_back(p);
  }
  for (int k = 0; k < kIndirectK && !cands.empty(); ++k) {
    const std::size_t i = ctx.rng.next_below(cands.size());
    const int dst = cands[i];
    cands[i] = cands.back();
    cands.pop_back();
    send_msg(ctx, ep, dst, kGossip, dst, ctx.view.self(), 0);
    ctx.counters.add(kCtrEagerGossip);
  }
}

bool Service::passively_fresh(Endpoint& ep, int peer) const {
  const sim::Time lr = ep.engine().last_rx_from(peer);
  return lr > 0 && cluster_.sim().now() - lr <= kSuppressWindow;
}

int Service::next_probe_target(NodeCtx& ctx) {
  for (std::size_t tried = 0; tried < ctx.probe_order.size(); ++tried) {
    if (ctx.probe_pos >= ctx.probe_order.size()) {
      ctx.probe_pos = 0;
      for (std::size_t k = ctx.probe_order.size(); k > 1; --k) {
        std::swap(ctx.probe_order[k - 1],
                  ctx.probe_order[ctx.rng.next_below(k)]);
      }
    }
    const int cand = ctx.probe_order[ctx.probe_pos++];
    if (ctx.view.state(cand) != PeerState::kDead) return cand;
  }
  return -1;  // everyone else is dead
}

void Service::start_probe(NodeCtx& ctx, Endpoint& ep) {
  if (ctx.probe.target >= 0) return;  // previous round still awaiting acks
  const int target = next_probe_target(ctx);
  if (target < 0) return;
  if (passively_fresh(ep, target)) {
    // The peer's own frames arrived within the window: provably alive, no
    // dedicated probe needed. This is what keeps a busy cluster's probe
    // traffic near zero.
    ctx.counters.add(kCtrProbesSuppressed);
    mark_peer_alive(ctx, target);
    return;
  }
  if (!conn_or_null(ctx, ep, target)) {
    const sim::Time started = ctx.connect_started[target];
    if (started != 0 &&
        cluster_.sim().now() - started > cfg_.suspect_timeout) {
      // The handshake itself cannot complete — the peer (or its links) is
      // gone. Treat like a failed probe and move on to the next target.
      apply_update(ctx, target, PeerState::kSuspect,
                   ctx.view.incarnation(target));
    } else if (ctx.probe_pos > 0) {
      // Still handshaking: retry the SAME target next round instead of
      // advancing. Otherwise a cold-started cluster burns every round on a
      // fresh handshake and never sends a single ping (and a crashed peer
      // is only re-examined after a full n-1 round cycle).
      --ctx.probe_pos;
    }
    return;
  }
  const std::uint64_t seq = ctx.next_seq++;
  // Root span of this probe round; the ping (and any later ping-req
  // fan-out) adopts it, so the whole round stitches into one trace.
  trace::TraceRecorder* tr = cluster_.tracer();
  const trace::SpanContext pctx =
      tr != nullptr ? tr->new_root() : trace::SpanContext{};
  {
    const trace::SpanScope scope(pctx);
    send_msg(ctx, ep, target, kPing, target, ctx.view.self(), seq);
  }
  ctx.counters.add(kCtrPingsSent);
  ctx.counters.add(kCtrProbeMsgs);
  ctx.probe = Probe{target, seq, cluster_.sim().now() + kPingTimeout,
                    false, cluster_.sim().now(), pctx};
}

void Service::advance_probe(NodeCtx& ctx, Endpoint& ep) {
  if (ctx.probe.target < 0 || cluster_.sim().now() < ctx.probe.deadline) {
    return;
  }
  const int target = ctx.probe.target;
  if (passively_fresh(ep, target)) {
    record_probe_span(cluster_.tracer(), cluster_.sim().now(),
                      ctx.view.self(), ctx.probe.started, ctx.probe.ctx,
                      target, /*acked=*/true);
    ctx.probe.target = -1;  // its frames arrived while we waited
    ctx.counters.add(kCtrProbesSuppressed);
    return;
  }
  // Ping-reqs continue the probe round's span.
  const trace::SpanScope scope(ctx.probe.ctx);
  if (!ctx.probe.indirect) {
    // Direct ping timed out: ask k random live peers to probe on our
    // behalf (SWIM's ping-req — distinguishes a dead peer from a lossy or
    // congested direct path).
    int sent = 0;
    std::vector<int> cands;
    for (int p = 0; p < num_nodes_; ++p) {
      if (p == ctx.view.self() || p == target) continue;
      if (ctx.view.state(p) == PeerState::kDead) continue;
      cands.push_back(p);
    }
    for (int k = 0; k < kIndirectK && !cands.empty(); ++k) {
      const std::size_t i = ctx.rng.next_below(cands.size());
      const int helper = cands[i];
      cands[i] = cands.back();
      cands.pop_back();
      send_msg(ctx, ep, helper, kPingReq, target, ctx.view.self(),
               ctx.probe.seq);
      ctx.counters.add(kCtrPingReqsSent);
      ctx.counters.add(kCtrProbeMsgs);
      ++sent;
    }
    if (sent > 0) {
      ctx.probe.indirect = true;
      ctx.probe.deadline = cluster_.sim().now() + kIndirectTimeout;
      return;
    }
  }
  // No ack, direct or indirect: suspect (refutable — not a down-mark yet).
  record_probe_span(cluster_.tracer(), cluster_.sim().now(), ctx.view.self(),
                    ctx.probe.started, ctx.probe.ctx, target,
                    /*acked=*/false);
  ctx.probe.target = -1;
  apply_update(ctx, target, PeerState::kSuspect,
               ctx.view.incarnation(target));
}

void Service::check_suspects(NodeCtx& ctx) {
  if (ctx.num_suspects == 0) return;
  const sim::Time now = cluster_.sim().now();
  for (int p = 0; p < num_nodes_; ++p) {
    if (ctx.suspect_since[p] == 0 ||
        ctx.view.state(p) != PeerState::kSuspect) {
      continue;
    }
    if (now - ctx.suspect_since[p] > cfg_.suspect_timeout) {
      apply_update(ctx, p, PeerState::kDead, ctx.view.incarnation(p));
    }
  }
}

// ---------------------------------------------------------------------------
// Fibers
// ---------------------------------------------------------------------------

void Service::fiber(Endpoint& ep) {
  NodeCtx& ctx = *nodes_[ep.node_id()];
  ctx.ep = &ep;
  // Desynchronize round starts across nodes (same spirit as jittered cron).
  sim::Time next_round =
      cluster_.sim().now() + cfg_.period +
      sim::Time(ctx.rng.next_below(
          static_cast<std::uint64_t>(std::max<sim::Time>(1, cfg_.period))));
  while (!stop_) {
    Notification n;
    while (ep.poll_notification(&n, inbox_.tag())) handle_msg(ctx, ep, n);
    advance_probe(ctx, ep);
    if (cluster_.sim().now() >= next_round) {
      next_round = cluster_.sim().now() + cfg_.period;
      start_probe(ctx, ep);
    }
    check_suspects(ctx);
    idle_wait(kPollInterval);
  }
}

void Service::mesh_fiber(Endpoint& ep) {
  // The pre-SWIM baseline: every node one-sided-writes a heartbeat counter
  // to EVERY peer each period and marks silent peers dead after
  // kMeshTimeout. O(n) probe frames per node per period, no suspicion.
  NodeCtx& ctx = *nodes_[ep.node_id()];
  const int me = ctx.view.self();
  proto::MemorySpace& mem = ep.memory();
  while (!stop_) {
    *mem.as<std::uint64_t>(hb_src_va_) = ++ctx.mesh_counter;
    for (int peer = 0; peer < num_nodes_; ++peer) {
      if (peer == me || ctx.view.is_down(peer)) continue;
      proto::Connection* pc = conn_or_null(ctx, ep, peer);
      if (!pc) continue;
      Connection(&ep, pc).rdma_write(hb_slot_va(me), hb_src_va_, 8,
                                     kOpFlagUrgent);
      ctx.counters.add(kCtrProbeMsgs);
    }
    idle_wait(cfg_.period);
    const sim::Time now = cluster_.sim().now();
    for (int peer = 0; peer < num_nodes_; ++peer) {
      if (peer == me || ctx.view.is_down(peer)) continue;
      const std::uint64_t v = *mem.as<std::uint64_t>(hb_slot_va(peer));
      if (v != ctx.mesh_last_val[peer]) {
        ctx.mesh_last_val[peer] = v;
        ctx.mesh_last_change[peer] = now;
      } else if (ctx.mesh_last_change[peer] == 0) {
        // Handshake grace: count silence from the first check, not t=0, or
        // slow connection setup at scale reads as a death.
        ctx.mesh_last_change[peer] = now;
      } else if (now - ctx.mesh_last_change[peer] > kMeshTimeout) {
        transition(ctx, peer, PeerState::kDead);
        ctx.counters.add(kCtrDeadMarks);
      }
    }
  }
}

}  // namespace multiedge::member
