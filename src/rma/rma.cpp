#include "rma/rma.hpp"

#include <cassert>
#include <stdexcept>

namespace multiedge::rma {

namespace {

const stats::CounterId kCtrEpochs = stats::CounterRegistry::intern("rma_epochs");
const stats::CounterId kCtrPuts = stats::CounterRegistry::intern("rma_puts");
const stats::CounterId kCtrBytesPut =
    stats::CounterRegistry::intern("rma_bytes_put");
const stats::CounterId kCtrNotifiesSent =
    stats::CounterRegistry::intern("rma_notifies_sent");
const stats::CounterId kCtrNotifiesMatched =
    stats::CounterRegistry::intern("rma_notifies_matched");
const stats::CounterId kCtrNotifiesQueued =
    stats::CounterRegistry::intern("rma_notifies_queued");
const stats::CounterId kCtrFlushes =
    stats::CounterRegistry::intern("rma_flushes");
const stats::CounterId kCtrFlushStalls =
    stats::CounterRegistry::intern("rma_flush_stalls");

// Completed handles are swept once the tracked set reaches this size, so a
// long-lived window that never flushes (fire-and-forget signal streams)
// stays bounded.
constexpr std::size_t kPruneThreshold = 64;

}  // namespace

Window::Window(Endpoint& ep, WindowConfig cfg, ConnProvider conns)
    : ep_(ep),
      cfg_(cfg),
      conn_of_(std::move(conns)),
      nq_(ep, cfg.tag, counters_, kCtrNotifiesMatched, kCtrNotifiesQueued) {
  assert(cfg_.tag >= 0 && cfg_.tag <= 255 && "rma: tag must fit 8 bits");
  if (!conn_of_) conns_.resize(ep_.cluster().num_nodes());
}

Connection& Window::conn(int peer) {
  if (conn_of_) return conn_of_(peer);
  assert(peer >= 0 && peer < static_cast<int>(conns_.size()) &&
         peer != ep_.node_id());
  if (!conns_[peer].valid()) conns_[peer] = ep_.connect(peer);
  return conns_[peer];
}

void Window::check_range(std::uint64_t remote_va, std::uint32_t bytes) const {
  if (cfg_.bytes == 0) return;
  if (remote_va < cfg_.base || remote_va + bytes > cfg_.base + cfg_.bytes) {
    throw std::logic_error("rma: access outside the window region");
  }
}

std::uint16_t Window::notify_flags(bool fenced) const {
  std::uint16_t flags = kOpFlagNotify | op_tag_flags(
      static_cast<std::uint8_t>(cfg_.tag));
  if (cfg_.urgent) flags |= kOpFlagUrgent;
  if (cfg_.quiet) flags |= kOpFlagQuietNotify;
  if (fenced) flags |= kOpFlagBackwardFence;
  if (cfg_.batched) flags |= kOpFlagBatched;
  return flags;
}

// ---------------------------------------------------------------------------
// Epochs
// ---------------------------------------------------------------------------

void Window::open() {
  if (epoch_open_) throw std::logic_error("rma: epoch already open");
  epoch_open_ = true;
  counters_.add(kCtrEpochs);
}

void Window::close() {
  if (!epoch_open_) throw std::logic_error("rma: close without an open epoch");
  epoch_open_ = false;
  // Epoch close issues the doorbell: one kernel entry releases every op the
  // epoch parked in the submission rings. Free when nothing is batched.
  if (cfg_.batched) ep_.flush();
}

// ---------------------------------------------------------------------------
// Access
// ---------------------------------------------------------------------------

OpHandle Window::put(int peer, std::uint64_t remote_va, std::uint64_t local_va,
                     std::uint32_t bytes) {
  if (!epoch_open_) throw std::logic_error("rma: put outside an open epoch");
  check_range(remote_va, bytes);
  counters_.add(kCtrPuts);
  counters_.add(kCtrBytesPut, bytes);
  return issue(peer, remote_va, local_va, bytes,
               cfg_.batched ? kOpFlagBatched : kOpFlagNone);
}

OpHandle Window::put_notify(int peer, std::uint64_t remote_va,
                            std::uint64_t local_va, std::uint32_t bytes) {
  return put_notify(peer, remote_va, local_va, bytes, cfg_.fenced);
}

OpHandle Window::put_notify(int peer, std::uint64_t remote_va,
                            std::uint64_t local_va, std::uint32_t bytes,
                            bool fenced) {
  check_range(remote_va, bytes);
  counters_.add(kCtrNotifiesSent);
  counters_.add(kCtrBytesPut, bytes);
  return issue(peer, remote_va, local_va, bytes, notify_flags(fenced));
}

NotifyEvent Window::wait_notify(int src, std::uint64_t va) {
  return nq_.wait(src, va);
}

bool Window::test_notify(NotifyEvent* out, int src, std::uint64_t va) {
  return nq_.test(out, src, va);
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void Window::flush() {
  counters_.add(kCtrFlushes);
  ep_.flush();  // release anything still parked behind an un-rung doorbell
  bool stalled = false;
  for (const OpHandle& h : inflight_) {
    if (!h.test()) {
      stalled = true;
      h.wait();
    }
  }
  if (stalled) counters_.add(kCtrFlushStalls);
  inflight_.clear();
}

OpHandle Window::issue(int peer, std::uint64_t remote_va,
                       std::uint64_t local_va, std::uint32_t bytes,
                       std::uint16_t flags) {
  Connection& c = conn(peer);
  trace::TraceRecorder* tr = ep_.cluster().tracer();
  OpHandle h;
  if (tr != nullptr) {
    // kRmaOp span, issue -> local completion. The scope makes the wire op
    // submitted below adopt it as parent, stitching window traffic into the
    // caller's causal tree.
    const trace::SpanContext cur = trace::SpanScope::current();
    const trace::SpanContext ctx =
        cur.active() ? tr->new_child(cur) : tr->new_root();
    const std::uint64_t parent = cur.span_id;
    const sim::Time start = ep_.cluster().sim().now();
    Cluster* cluster = &ep_.cluster();
    const int node = ep_.node_id();
    // Anchor the span id the moment the op is issued (kOpSubmit's trick): a
    // quiet fire-and-forget op whose ack never lands before the run ends
    // still resolves as a parent in the stitched tree.
    tr->record(start, trace::EventType::kRmaSubmit, node, -1, -1,
               static_cast<std::uint64_t>(peer), bytes, ctx, parent);
    trace::SpanScope scope(ctx);
    h = c.rdma_write(remote_va, local_va, bytes, flags);
    h.on_complete([cluster, ctx, parent, start, node, peer, bytes]() {
      if (auto* t = cluster->tracer()) {
        t->record_span(start, cluster->sim().now() - start,
                       trace::EventType::kRmaOp, node, -1, -1,
                       static_cast<std::uint64_t>(peer), bytes, ctx, parent);
      }
    });
  } else {
    h = c.rdma_write(remote_va, local_va, bytes, flags);
  }
  track(h);
  return h;
}

void Window::track(const OpHandle& h) {
  if (inflight_.size() >= kPruneThreshold) {
    std::erase_if(inflight_, [](const OpHandle& t) { return t.test(); });
  }
  inflight_.push_back(h);
}

}  // namespace multiedge::rma
