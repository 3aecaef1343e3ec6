// GeNIMA-like page-based software DSM over the MultiEdge public API.
//
// Protocol: home-based lazy release consistency with multiple writers.
//  * Every page has a home node; the home copy is authoritative.
//  * Read fault: fetch the page from its home with one remote read.
//  * Write fault: fetch if invalid, make a twin, write locally.
//  * Release (unlock / barrier arrive): diff each dirty page against its
//    twin, flush the diff runs to the home with remote writes, and produce a
//    write notice (list of dirtied pages).
//  * Acquire (lock grant / barrier release): invalidate cached copies of
//    pages in the received notices (except pages homed locally, which are
//    always current). Pages dirty at notice time are marked stale and drop
//    to Invalid after their next flush (page-level multiple-writer support).
//  * Notice propagation: lock managers keep an epoch-stamped notice history
//    per lock and send each acquirer only what it has not seen; barriers
//    aggregate every node's notices accumulated since its last barrier.
//
// All communication uses rdma_read / rdma_write (+ notifications) — exactly
// the traffic mix the paper's application study stresses. With
// DsmConfig::use_fences (Figure 6 / 2Lu mode), release messages ride the
// same connection as the diffs they cover, ordered by a backward fence,
// instead of waiting for every diff to be acknowledged.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "coll/coll.hpp"
#include "core/api.hpp"
#include "dsm/config.hpp"
#include "dsm/msg.hpp"
#include "rma/rma.hpp"
#include "sim/wait_queue.hpp"

namespace multiedge::dsm {

struct DsmNodeStats {
  sim::Time compute = 0;       // charged via Dsm::compute()
  sim::Time data_wait = 0;     // blocked fetching pages
  sim::Time lock_wait = 0;     // blocked in lock()
  sim::Time barrier_wait = 0;  // blocked in barrier() (incl. flush)
  sim::Time overhead = 0;      // twins, diffs, fault handling, messages

  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t pages_fetched = 0;
  std::uint64_t twins_created = 0;
  std::uint64_t diffs_flushed = 0;
  std::uint64_t diff_bytes = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t barriers = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t messages = 0;
};

class DsmSystem;

/// Per-node DSM instance. All public methods must run in the node's worker
/// fiber (they may block on simulated communication).
class Dsm {
 public:
  Dsm(DsmSystem& system, Endpoint& ep, int rank);
  Dsm(const Dsm&) = delete;
  Dsm& operator=(const Dsm&) = delete;

  int rank() const { return rank_; }
  int num_nodes() const;
  const DsmConfig& config() const;

  // --- shared-memory access ---
  //
  // Both take a fast path, inline, when [va, va+len) lies in one page whose
  // state already allows the access; everything else takes the general
  // path. The fast path only reads state: it is the case in which the
  // general path would charge no simulated time and change nothing.

  /// Make [va, va+len) readable on this node (fetching pages as needed).
  void ensure_read(std::uint64_t va, std::size_t len) {
    if (!allows(va, len, PageState::kReadOnly)) ensure_read_general(va, len);
  }

  /// Make [va, va+len) writable (fetch + twin as needed).
  void ensure_write(std::uint64_t va, std::size_t len) {
    if (!allows(va, len, PageState::kDirty)) ensure_write_general(va, len);
  }

  /// Raw pointer into this node's copy of shared memory. Only valid for
  /// ranges covered by a preceding ensure_read/ensure_write in the current
  /// synchronization interval.
  template <typename T>
  T* ptr(std::uint64_t va) {
    return ep_.memory().as<T>(va);
  }

  // --- synchronization ---
  void lock(int lock_id);
  void unlock(int lock_id);
  void barrier();

  /// Eagerly flush dirty pages to their homes outside any critical section.
  /// The flushed pages are published through the *next barrier's* write
  /// notices (not through lock releases) — use it for data consumed after a
  /// barrier (e.g. result buffers) to keep critical sections short.
  void flush();

  // --- application time accounting ---
  /// Charge modelled application compute time to this node's CPU.
  void compute(sim::Time t);
  /// Convenience: charge `units * ns_per_unit` nanoseconds.
  void compute_units(double units, double ns_per_unit) {
    compute(static_cast<sim::Time>(units * ns_per_unit * sim::kNanosecond));
  }

  DsmNodeStats& stats() { return stats_; }
  Endpoint& endpoint() { return ep_; }

  /// This node's collective communicator, or nullptr unless
  /// DsmConfig::enable_coll is set. Collective calls run in the worker fiber
  /// on their own notification tag, concurrently with the DSM's tag-0
  /// mailbox traffic.
  coll::Communicator* comm() { return comm_.get(); }

 private:
  friend class DsmSystem;

  // Ordered by what they allow: reading needs at least kReadOnly, writing
  // kDirty. A page homed here is always current, so it starts kReadOnly
  // and is never Invalid; it is kDirty (with no twin) from its first write
  // in an interval until the flush that lists it in a write notice.
  enum class PageState : std::uint8_t { kInvalid, kReadOnly, kDirty };
  struct Page {
    PageState state = PageState::kInvalid;
    bool stale_while_dirty = false;  // invalidated by a notice while dirty
    bool home = false;               // homed on this node
    bool since_barrier = false;      // listed in since_barrier_pages_
    std::unique_ptr<std::byte[]> twin;
  };
  struct LockState {
    bool held = false;
    bool waiting = false;
    sim::WaitQueue waiters;
  };
  // Lock-manager bookkeeping (lives on the lock's manager node).
  struct ManagedLock {
    bool busy = false;
    std::deque<int> queue;  // waiting requesters
    // Epoch-stamped notice history for propagation between acquirers.
    std::uint32_t next_epoch = 1;
    std::deque<std::pair<std::uint32_t, NoticeSection>> history;
    std::map<int, std::uint32_t> last_sent;  // requester -> epoch
  };
  // Per-epoch arrival collection at the barrier manager. Keyed by epoch:
  // the completion handler blocks while distributing releases, during which
  // the service fiber may already collect next-epoch arrivals.
  struct BarrierSlot {
    int arrived = 0;
    std::vector<NoticeSection> sections;
  };

  std::uint32_t page_of(std::uint64_t va) const {
    assert(va >= shared_base_ && va - shared_base_ < pages_.size() * kPageBytes);
    return static_cast<std::uint32_t>((va - shared_base_) >> kPageShift);
  }
  int home_of(std::uint32_t page) const;
  std::uint64_t va_of(std::uint32_t page) const {
    return shared_base_ + (std::uint64_t{page} << kPageShift);
  }
  Connection& conn_to(int node);

  /// The fast path: [va, va+len) is in one page whose state is `need` or
  /// more.
  bool allows(std::uint64_t va, std::size_t len, PageState need) const {
    const std::uint32_t page = page_of(va);
    return page == page_of(va + len - 1) && pages_[page].state >= need;
  }
  void ensure_read_general(std::uint64_t va, std::size_t len);
  void ensure_write_general(std::uint64_t va, std::size_t len);
  void fetch_batch(std::uint32_t first, std::uint32_t last);
  void write_fault(std::uint32_t page);
  /// Lists `page` in the next barrier's write notice (once).
  void note_since_barrier(std::uint32_t page);

  /// Diff + flush all dirty pages. Returns the write notice. Diffs flushed
  /// to `fence_peer` are not awaited (the caller orders the following
  /// message with a backward fence); pass -1 to await everything.
  NoticeSection flush_dirty(int fence_peer);

  void apply_notices(const std::vector<NoticeSection>& sections);

  void send_msg(int dst, Message m, bool fence);
  void handle_msg(const Message& m);
  void grant_lock(int lock_id, int to);
  void service_loop();

  DsmSystem& system_;
  Endpoint& ep_;
  int rank_;
  std::uint64_t shared_base_;

  std::vector<Page> pages_;
  std::vector<std::uint32_t> dirty_pages_;  // pages with twins
  // Unsorted and duplicate-free (kDirty and Page::since_barrier say which
  // pages are in them); sorted where they become notices.
  std::vector<std::uint32_t> home_dirty_pages_;     // locally-written home pages
  std::vector<std::uint32_t> since_barrier_pages_;  // all flushes since barrier

  std::map<int, Connection> conns_;
  std::vector<MailboxWriter> mailbox_writers_;  // indexed by destination
  MailboxWriter staging_writer_;                // local outbound staging ring
  rma::Window msg_win_;  // tag-0 window over the mailbox rings: every control
                         // message is a notified put, the service loop a
                         // test_notify + notify-event wait

  std::map<int, LockState> lock_states_;
  std::map<int, ManagedLock> managed_locks_;

  std::uint32_t barrier_gen_ = 0;           // my arrivals
  std::uint32_t barrier_released_gen_ = 0;  // releases seen
  sim::WaitQueue barrier_waiters_;
  std::map<std::uint32_t, BarrierSlot> barrier_slots_;  // manager node only
  std::unique_ptr<coll::Communicator> comm_;

  bool stop_service_ = false;
  DsmNodeStats stats_;
};

/// Cluster-wide DSM: builds one Dsm per node, lays out mailboxes and the
/// shared region identically everywhere, and runs worker fibers.
class DsmSystem {
 public:
  DsmSystem(Cluster& cluster, DsmConfig config);
  ~DsmSystem();
  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  /// Host-side bump allocation in the shared region (identical layout on
  /// every node). Call before run().
  std::uint64_t shared_alloc(std::size_t bytes, std::size_t align = 64);

  Dsm& node(int i) { return *nodes_[i]; }
  int num_nodes() const { return cluster_.num_nodes(); }
  Cluster& cluster() { return cluster_; }
  const DsmConfig& config() const { return cfg_; }
  std::uint64_t shared_base() const { return shared_base_; }

  /// Spawn `worker` on every node, run to completion, stop service fibers.
  void run(std::function<void(Dsm&)> worker);

  /// Aggregate per-node stats (max/avg summaries are up to the caller).
  const DsmNodeStats& node_stats(int i) { return nodes_[i]->stats(); }

 private:
  friend class Dsm;

  Cluster& cluster_;
  DsmConfig cfg_;
  std::uint64_t mailbox_base_ = 0;
  std::uint64_t staging_base_ = 0;
  std::uint64_t shared_base_ = 0;
  std::uint64_t shared_brk_ = 0;
  std::unique_ptr<coll::CollDomain> coll_domain_;  // enable_coll only
  std::vector<std::unique_ptr<Dsm>> nodes_;
  std::vector<std::unique_ptr<sim::Process>> service_procs_;
};

}  // namespace multiedge::dsm
