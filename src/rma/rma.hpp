// Notified-access RMA: windows, epochs, flush (DESIGN.md §17).
//
// foMPI (Gerstenberger et al., PAPERS.md) showed that three primitives —
// exposure/access epochs over registered windows, flush, and *notified
// access* (a one-sided write the target can wait on without polling) — are a
// small, reusable synchronization vocabulary that scales to hundreds of
// thousands of cores. This layer generalizes the hand-rolled urgent-notify +
// fence idioms that grew separately in the KV store (replication acks), the
// collectives (put+signal pairs) and the DSM (barrier write-notices) into
// one audited primitive set. No new wire format: every Window operation
// compiles down to the existing flag classes (kOpFlagNotify / Urgent /
// QuietNotify / BackwardFence / Batched + the 8-bit demux tag), so a
// consumer rebased onto a Window is wire- and fingerprint-identical to the
// idiom it replaces (proved by the differential tests in tests/rma_test.cpp).
//
//   Window win{ep, {.base = va, .bytes = len, .tag = 3}};
//   // producer                           // consumer
//   win.open();                           rma::NotifyEvent ev =
//   win.put(peer, dst, src, n);               win.wait_notify(src);
//   win.put_notify(peer, flag, tok, 8);   // payload of `ev.src` is visible:
//   win.close();   // rings the doorbell  // the notified put is fenced
//                  // when cfg.batched    // behind the epoch's plain puts
//
// Epoch rules (misuse throws std::logic_error):
//  * put() requires an open epoch; open() twice / close() without an open
//    epoch are errors.
//  * put_notify() works inside OR outside an epoch — a notified access
//    carries its own synchronization.
//  * close() ends the epoch and, when cfg.batched, issues the submission-
//    ring doorbell (one syscall releases the whole epoch). It does NOT wait.
//  * flush() = local + remote completion of every tracked op: in this
//    transport an op's ack arrives only after the target applied its data,
//    so waiting for local completion is remote completion. Ordering without
//    waiting is cheaper: a fenced notified put (cfg.fenced, the default)
//    publishes every earlier op on the same connection via BackwardFence.
//
// Each window op records a kRmaOp trace span; the wire op submitted under it
// parents into the span, stitching window traffic into the causal tree.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/api.hpp"
#include "rma/notify_queue.hpp"
#include "stats/counters.hpp"

namespace multiedge::rma {

struct WindowConfig {
  /// Symmetric VA of the exposed region. bytes == 0 disables range checks
  /// (for windows spanning a whole subsystem's symmetric layout).
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  /// Notification demultiplexing tag (0..255) — the window's channel.
  int tag = 0;
  /// Notified ops ride the urgent (solicited-event) wire class: they bypass
  /// interrupt moderation and wake the target immediately.
  bool urgent = true;
  /// Notified ops ride kOpFlagQuietNotify: notify without forcing a
  /// completion signal under selective signaling (DESIGN.md §15).
  bool quiet = false;
  /// Notified ops carry kOpFlagBackwardFence: the notification is delivered
  /// only after every earlier op on the same connection has been applied —
  /// this is what makes put(); put_notify() a publication.
  bool fenced = true;
  /// Epoch ops park in the submission rings (kOpFlagBatched); close() rings
  /// the doorbell. Off: urgent/fenced ops submit eagerly as usual.
  bool batched = false;
};

/// One registered symmetric region plus its access-epoch state, completion
/// tracking and receive-side notify matching queue.
class Window {
 public:
  /// Connection lookup, so a window can ride its consumer's existing
  /// connection cache (per-connection FIFO/fence semantics — and wire
  /// identity — depend on sharing connections with the surrounding code).
  using ConnProvider = std::function<Connection&(int peer)>;

  /// With no provider the window keeps its own lazily-connected cache.
  Window(Endpoint& ep, WindowConfig cfg, ConnProvider conns = {});

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  // --- access epochs ---
  void open();
  void close();
  bool epoch_open() const { return epoch_open_; }

  // --- one-sided access (requires an open epoch) ---
  /// Plain write: local [local_va, ..+bytes) -> peer [remote_va, ...).
  OpHandle put(int peer, std::uint64_t remote_va, std::uint64_t local_va,
               std::uint32_t bytes);

  // --- notified access (inside or outside an epoch) ---
  /// Write + notification: the payload lands at the target and one
  /// NotifyEvent {src, va, bytes} becomes matchable in the target window's
  /// queue. Fencing defaults to cfg.fenced; the overload pins it per call.
  OpHandle put_notify(int peer, std::uint64_t remote_va,
                      std::uint64_t local_va, std::uint32_t bytes);
  OpHandle put_notify(int peer, std::uint64_t remote_va,
                      std::uint64_t local_va, std::uint32_t bytes, bool fenced);

  /// Receive side: block for / probe for a matching notified access.
  /// src = kAnySrc and va = kAnyVa widen the match (see notify_queue.hpp).
  NotifyEvent wait_notify(int src = kAnySrc, std::uint64_t va = kAnyVa);
  bool test_notify(NotifyEvent* out, int src = kAnySrc,
                   std::uint64_t va = kAnyVa);
  /// Read-only peek: would test_notify() with the same match succeed?
  bool notify_pending(int src = kAnySrc, std::uint64_t va = kAnyVa) const {
    return nq_.pending(src, va);
  }
  /// Wake source of a wait on notify_pending() (sim::Wake): touched
  /// when a notification of this window's tag arrives. Stashed ones move
  /// only on the window's own fiber.
  sim::Signal& notify_signal() const {
    return ep_.notification_signal(cfg_.tag);
  }

  /// Local + remote completion of every op issued through this window since
  /// the last flush. Implies the doorbell for batched ops.
  void flush();

  Endpoint& endpoint() { return ep_; }
  const WindowConfig& config() const { return cfg_; }
  /// Per-window counters: rma_epochs, rma_puts, rma_notifies_sent,
  /// rma_notifies_matched, rma_notifies_queued, rma_flushes,
  /// rma_flush_stalls, ...
  const stats::Counters& counters() const { return counters_; }

 private:
  Connection& conn(int peer);
  void check_range(std::uint64_t remote_va, std::uint32_t bytes) const;
  std::uint16_t notify_flags(bool fenced) const;
  /// Submit one write under a fresh kRmaOp span and track its handle.
  OpHandle issue(int peer, std::uint64_t remote_va, std::uint64_t local_va,
                 std::uint32_t bytes, std::uint16_t flags);
  void track(const OpHandle& h);

  Endpoint& ep_;
  WindowConfig cfg_;
  ConnProvider conn_of_;
  std::vector<Connection> conns_;  // lazy cache when no provider
  stats::Counters counters_;       // declared before nq_ (referenced by it)
  NotifyQueue nq_;
  bool epoch_open_ = false;
  std::vector<OpHandle> inflight_;
};

}  // namespace multiedge::rma
