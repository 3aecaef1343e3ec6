#include "dsm/dsm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

namespace multiedge::dsm {

// ---------------------------------------------------------------------------
// DsmSystem
// ---------------------------------------------------------------------------

DsmSystem::DsmSystem(Cluster& cluster, DsmConfig config)
    : cluster_(cluster), cfg_(config) {
  const int n = cluster_.num_nodes();
  // Identical layout on every node: mailbox rings (one per sender), one
  // staging buffer, then the shared region.
  for (int i = 0; i < n; ++i) {
    Endpoint& ep = cluster_.endpoint(i);
    const std::uint64_t mb = ep.alloc(cfg_.mailbox_bytes * n, 64);
    const std::uint64_t st = ep.alloc(cfg_.mailbox_bytes, 64);
    const std::uint64_t sh = ep.alloc(cfg_.shared_bytes, kPageBytes);
    if (i == 0) {
      mailbox_base_ = mb;
      staging_base_ = st;
      shared_base_ = sh;
    } else {
      assert(mb == mailbox_base_ && st == staging_base_ && sh == shared_base_ &&
             "shared layout must be identical on all nodes");
    }
  }
  shared_brk_ = shared_base_;
  // The collective domain allocates its own symmetric scratch, after the
  // DSM regions so the layout stays identical on every node.
  if (cfg_.enable_coll) {
    coll::CollConfig ccfg;
    ccfg.max_data_bytes = cfg_.coll_max_data_bytes;
    coll_domain_ = std::make_unique<coll::CollDomain>(cluster_, ccfg);
  }
  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Dsm>(*this, cluster_.endpoint(i), i));
    if (coll_domain_) {
      nodes_.back()->comm_ = std::make_unique<coll::Communicator>(
          *coll_domain_, cluster_.endpoint(i));
    }
  }
}

DsmSystem::~DsmSystem() = default;

std::uint64_t DsmSystem::shared_alloc(std::size_t bytes, std::size_t align) {
  std::uint64_t va = (shared_brk_ + align - 1) / align * align;
  assert(va + bytes <= shared_base_ + cfg_.shared_bytes &&
         "shared region exhausted — raise DsmConfig::shared_bytes");
  shared_brk_ = va + bytes;
  return va;
}

void DsmSystem::run(std::function<void(Dsm&)> worker) {
  const int n = num_nodes();
  // Service fibers handle incoming DSM control messages on each node.
  std::vector<std::unique_ptr<sim::Process>> services;
  for (int i = 0; i < n; ++i) {
    Dsm& d = *nodes_[i];
    d.stop_service_ = false;
    services.push_back(std::make_unique<sim::Process>(
        cluster_.sim(), "dsm-svc" + std::to_string(i),
        [&d] { d.service_loop(); }));
    services.back()->start();
  }
  for (int i = 0; i < n; ++i) {
    Dsm& d = *nodes_[i];
    cluster_.spawn(i, "dsm-worker" + std::to_string(i),
                   [worker, &d](Endpoint&) { worker(d); });
  }
  try {
    cluster_.run();
  } catch (...) {
    // Deadlock diagnosis path: the suspended service fibers cannot be
    // destroyed safely (live stacks); deliberately leak them and rethrow.
    for (auto& s : services) s.release();  // NOLINT
    throw;
  }
  // Workers finished: wind the service fibers down.
  for (int i = 0; i < n; ++i) {
    nodes_[i]->stop_service_ = true;
    nodes_[i]->endpoint().engine().notify_events().notify_all();
  }
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (const auto& s : services) all_done = all_done && s->done();
    if (!all_done && !cluster_.sim().step()) {
      throw std::runtime_error("DsmSystem::run: service fibers stuck");
    }
  }
}

// ---------------------------------------------------------------------------
// Dsm: construction & helpers
// ---------------------------------------------------------------------------

Dsm::Dsm(DsmSystem& system, Endpoint& ep, int rank)
    : system_(system),
      ep_(ep),
      rank_(rank),
      shared_base_(system.shared_base_),
      // Mailbox window: every DSM control message is a notified put into the
      // destination's per-sender ring. Non-urgent (the service loop blocks on
      // notify events anyway) and unfenced by default — send_msg pins the
      // fence per message, exactly as the raw rdma_write idiom did.
      msg_win_(ep,
               rma::WindowConfig{
                   .base = system.mailbox_base_,
                   .bytes = static_cast<std::uint64_t>(system.cfg_.mailbox_bytes) *
                            static_cast<std::uint64_t>(system.num_nodes()),
                   .tag = 0,
                   .urgent = false,
                   .fenced = false},
               [this](int node) -> Connection& { return conn_to(node); }) {
  pages_.resize(system_.cfg_.shared_bytes / kPageBytes);
  for (std::uint32_t p = 0; p < pages_.size(); ++p) {
    if (home_of(p) != rank_) continue;
    pages_[p].home = true;
    pages_[p].state = PageState::kReadOnly;
  }
  staging_writer_ =
      MailboxWriter(system_.staging_base_, system_.cfg_.mailbox_bytes);
  const int n = system_.num_nodes();
  mailbox_writers_.resize(n);
  for (int d = 0; d < n; ++d) {
    // My ring at destination d is indexed by my rank.
    mailbox_writers_[d] = MailboxWriter(
        system_.mailbox_base_ + static_cast<std::uint64_t>(rank_) *
                                    system_.cfg_.mailbox_bytes,
        system_.cfg_.mailbox_bytes);
  }
}

int Dsm::num_nodes() const { return system_.num_nodes(); }
const DsmConfig& Dsm::config() const { return system_.cfg_; }

int Dsm::home_of(std::uint32_t page) const {
  return static_cast<int>((page / system_.cfg_.home_block_pages) %
                          static_cast<std::uint32_t>(num_nodes()));
}

Connection& Dsm::conn_to(int node) {
  auto it = conns_.find(node);
  if (it == conns_.end()) {
    it = conns_.emplace(node, ep_.connect(node)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Memory access & page protocol
// ---------------------------------------------------------------------------

void Dsm::ensure_read_general(std::uint64_t va, std::size_t len) {
  assert(len > 0);
  const std::uint32_t first = page_of(va);
  const std::uint32_t last = page_of(va + len - 1);
  fetch_batch(first, last);
}

void Dsm::ensure_write_general(std::uint64_t va, std::size_t len) {
  assert(len > 0);
  const std::uint32_t first = page_of(va);
  const std::uint32_t last = page_of(va + len - 1);
  // Write faults fetch missing pages first (cannot know which bytes the
  // application will overwrite), pipelined like read faults.
  fetch_batch(first, last);
  for (std::uint32_t p = first; p <= last; ++p) {
    Page& pg = pages_[p];
    if (pg.state == PageState::kDirty) continue;
    if (pg.home) {
      pg.state = PageState::kDirty;
      home_dirty_pages_.push_back(p);
    } else {
      write_fault(p);
    }
  }
}

void Dsm::fetch_batch(std::uint32_t first, std::uint32_t last) {
  const DsmConfig& cfg = system_.cfg_;
  // Issue all missing pages of the access range concurrently, then wait —
  // the fault handler's prefetch for contiguous accesses (one trap, one
  // batch of pipelined remote reads instead of one stall per page).
  std::vector<std::pair<std::uint32_t, OpHandle>> fetches;
  trace::SpanContext ctx;
  std::optional<trace::SpanScope> scope;
  for (std::uint32_t p = first; p <= last; ++p) {
    // Home pages are never Invalid: the home copy is always current.
    if (pages_[p].state != PageState::kInvalid) continue;
    if (fetches.empty()) {
      // Root span for the fault batch: the remote page reads issued below
      // stitch under it.
      if (trace::TraceRecorder* t = ep_.cluster().tracer()) ctx = t->new_root();
      scope.emplace(ctx);
      stats_.overhead += cfg.fault_cost;
      ep_.app_cpu().consume(cfg.fault_cost);
    }
    stats_.read_faults += 1;
    fetches.emplace_back(
        p, conn_to(home_of(p))
               .rdma_read(va_of(p), va_of(p),
                          static_cast<std::uint32_t>(kPageBytes)));
  }
  if (fetches.empty()) return;
  const sim::Time t0 = ep_.cluster().sim().now();
  for (auto& [p, h] : fetches) {
    h.wait();
    pages_[p].state = PageState::kReadOnly;
    stats_.pages_fetched += 1;
    if (auto* t = ep_.cluster().tracer()) {
      t->record_span(t0, ep_.cluster().sim().now() - t0,
                     trace::EventType::kDsmPageFetch, rank_, -1, -1, p,
                     kPageBytes, ctx);
    }
  }
  stats_.data_wait += ep_.cluster().sim().now() - t0;
}

void Dsm::write_fault(std::uint32_t page) {
  const DsmConfig& cfg = system_.cfg_;
  stats_.write_faults += 1;
  Page& p = pages_[page];
  assert(p.state != PageState::kInvalid);  // fetch_batch ran first

  stats_.overhead += cfg.fault_cost;
  ep_.app_cpu().consume(cfg.fault_cost);

  // Twin for diffing at the next release.
  const sim::Time twin_cost =
      static_cast<sim::Time>(cfg.twin_ns_per_byte * kPageBytes *
                             sim::kNanosecond);
  stats_.overhead += twin_cost;
  ep_.app_cpu().consume(twin_cost);
  p.twin = std::make_unique<std::byte[]>(kPageBytes);
  ep_.memory().read(va_of(page), {p.twin.get(), kPageBytes});
  p.state = PageState::kDirty;
  stats_.twins_created += 1;
  dirty_pages_.push_back(page);
}

NoticeSection Dsm::flush_dirty(int fence_peer) {
  const DsmConfig& cfg = system_.cfg_;
  NoticeSection sec;
  sec.writer = static_cast<std::uint16_t>(rank_);

  // Root span for the release flush: every diff write below stitches
  // under it.
  trace::TraceRecorder* tracer = ep_.cluster().tracer();
  const trace::SpanContext ctx =
      tracer != nullptr ? tracer->new_root() : trace::SpanContext{};
  const trace::SpanScope scope(ctx);

  std::vector<OpHandle> waits;
  for (std::uint32_t page : dirty_pages_) {
    Page& p = pages_[page];
    assert(p.state == PageState::kDirty && p.twin);
    const sim::Time flush_t0 = ep_.cluster().sim().now();
    const std::uint64_t diff_bytes_before = stats_.diff_bytes;

    const sim::Time diff_cost = static_cast<sim::Time>(
        cfg.diff_ns_per_byte * kPageBytes * sim::kNanosecond);
    stats_.overhead += diff_cost;
    ep_.app_cpu().consume(diff_cost);

    // Byte-granularity diff against the twin (word-granularity diffs would
    // corrupt neighbouring writers' sub-word data — e.g. Radix's 4-byte
    // keys), merging runs separated by < 32 clean bytes.
    const std::uint64_t base = va_of(page);
    const std::byte* cur = ep_.memory().view(base, kPageBytes).data();
    const std::byte* twin = p.twin.get();
    std::vector<std::pair<std::size_t, std::size_t>> runs;  // [from, to]
    std::size_t run_start = SIZE_MAX;
    std::size_t last_dirty = 0;
    for (std::size_t w = 0; w < kPageBytes; w += 8) {
      if (std::memcmp(cur + w, twin + w, 8) == 0) continue;
      for (std::size_t b = w; b < w + 8; ++b) {
        if (cur[b] == twin[b]) continue;
        if (run_start == SIZE_MAX) {
          run_start = b;
        } else if (b - last_dirty > 32) {
          runs.emplace_back(run_start, last_dirty);
          run_start = b;
        }
        last_dirty = b;
      }
    }
    if (run_start != SIZE_MAX) runs.emplace_back(run_start, last_dirty);
    if (runs.size() == 1) {
      const auto [from, to] = runs.front();
      const std::uint64_t va = base + from;
      const auto len = static_cast<std::uint32_t>(to - from + 1);
      OpHandle h =
          conn_to(home_of(page)).rdma_write(va, va, len, proto::kOpFlagSolicit);
      if (home_of(page) != fence_peer) waits.push_back(h);
      stats_.diff_bytes += len;
    } else if (!runs.empty()) {
      // Fragmented diff: ship all runs as one scatter-write operation (one
      // op, one wire message) — the way page diffs are classically applied.
      std::vector<ScatterSegment> segs;
      segs.reserve(runs.size());
      for (const auto& [from, to] : runs) {
        segs.push_back(ScatterSegment{from, base + from,
                                      static_cast<std::uint32_t>(to - from + 1)});
        stats_.diff_bytes += to - from + 1;
      }
      OpHandle h = conn_to(home_of(page))
                       .rdma_scatter_write(base, segs, proto::kOpFlagSolicit);
      if (home_of(page) != fence_peer) waits.push_back(h);
    }

    if (auto* t = ep_.cluster().tracer()) {
      t->record_span(flush_t0, ep_.cluster().sim().now() - flush_t0,
                     trace::EventType::kDsmDiffFlush, rank_, -1, -1, page,
                     stats_.diff_bytes - diff_bytes_before, ctx);
    }
    p.twin.reset();
    p.state = p.stale_while_dirty ? PageState::kInvalid : PageState::kReadOnly;
    p.stale_while_dirty = false;
    stats_.diffs_flushed += 1;
    sec.pages.push_back(page);
    note_since_barrier(page);
  }
  dirty_pages_.clear();

  std::sort(home_dirty_pages_.begin(), home_dirty_pages_.end());
  for (std::uint32_t page : home_dirty_pages_) {
    pages_[page].state = PageState::kReadOnly;
    sec.pages.push_back(page);
    note_since_barrier(page);
  }
  home_dirty_pages_.clear();

  // The ack wait is attributed by the caller (lock or barrier wait).
  for (OpHandle& h : waits) h.wait();
  return sec;
}

void Dsm::note_since_barrier(std::uint32_t page) {
  if (pages_[page].since_barrier) return;
  pages_[page].since_barrier = true;
  since_barrier_pages_.push_back(page);
}

void Dsm::apply_notices(const std::vector<NoticeSection>& sections) {
  const DsmConfig& cfg = system_.cfg_;
  sim::Time cost = 0;
  for (const NoticeSection& s : sections) {
    if (s.writer == rank_) continue;
    for (std::uint32_t page : s.pages) {
      Page& p = pages_[page];
      if (p.home) continue;  // home copy stays current
      cost += cfg.page_bookkeeping_cost;
      if (p.state == PageState::kReadOnly) {
        p.state = PageState::kInvalid;
        stats_.invalidations += 1;
      } else if (p.state == PageState::kDirty) {
        // Page-level multiple writers: keep local writes; the page drops to
        // Invalid after its next flush so the merged home copy is refetched.
        p.stale_while_dirty = true;
        stats_.invalidations += 1;
      }
    }
  }
  if (cost > 0) {
    stats_.overhead += cost;
    ep_.app_cpu().consume(cost);
  }
}

// ---------------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------------

void Dsm::send_msg(int dst, Message m, bool fence) {
  m.src = static_cast<std::uint16_t>(rank_);
  stats_.messages += 1;
  if (dst == rank_) {
    handle_msg(m);
    return;
  }
  const std::vector<std::byte> bytes = m.encode();
  assert(bytes.size() <= system_.cfg_.mailbox_bytes);
  // The staging area is a ring: the worker and service fibers can both be
  // inside send_msg at once (rdma_write blocks for its CPU charge before it
  // snapshots the source), so each message stages at a fresh offset.
  const std::uint64_t src_va = staging_writer_.place(bytes.size());
  ep_.memory().write(src_va, bytes);
  const std::uint64_t dst_va = mailbox_writers_[dst].place(bytes.size());
  msg_win_.put_notify(dst, dst_va, src_va,
                      static_cast<std::uint32_t>(bytes.size()), fence);
}

void Dsm::service_loop() {
  while (!stop_service_) {
    rma::NotifyEvent ev;
    // The mailbox window matches tag 0 only: collective signals
    // (coll::kCollTag) belong to the worker fiber's Communicator and must
    // not be stolen here.
    if (msg_win_.test_notify(&ev)) {
      const DsmConfig& cfg = system_.cfg_;
      stats_.overhead += cfg.msg_handling_cost;
      ep_.app_cpu().consume(cfg.msg_handling_cost);
      Message m;
      if (Message::decode(ep_.memory().view(ev.va, ev.bytes), m)) {
        handle_msg(m);
      }
      continue;
    }
    ep_.engine().notify_events().wait();
  }
}

void Dsm::handle_msg(const Message& m) {
  switch (m.type) {
    case MsgType::kLockReq: {
      ManagedLock& ml = managed_locks_[static_cast<int>(m.id)];
      if (!ml.busy) {
        ml.busy = true;
        grant_lock(static_cast<int>(m.id), m.src);
      } else {
        ml.queue.push_back(m.src);
      }
      break;
    }
    case MsgType::kLockGrant: {
      apply_notices(m.notices);
      LockState& ls = lock_states_[static_cast<int>(m.id)];
      ls.held = true;
      ls.waiters.notify_all();
      break;
    }
    case MsgType::kLockRelease: {
      ManagedLock& ml = managed_locks_[static_cast<int>(m.id)];
      for (const NoticeSection& s : m.notices) {
        if (!s.pages.empty()) ml.history.emplace_back(ml.next_epoch, s);
      }
      ++ml.next_epoch;
      if (!ml.queue.empty()) {
        const int next = ml.queue.front();
        ml.queue.pop_front();
        grant_lock(static_cast<int>(m.id), next);
      } else {
        ml.busy = false;
      }
      break;
    }
    case MsgType::kBarrierArrive: {
      BarrierSlot& slot = barrier_slots_[m.epoch];
      slot.arrived += 1;
      for (const NoticeSection& s : m.notices) {
        if (!s.pages.empty()) slot.sections.push_back(s);
      }
      if (slot.arrived == num_nodes()) {
        // Detach this epoch's state before the distribution below blocks:
        // the service fiber may collect next-epoch arrivals meanwhile.
        Message rel;
        rel.type = MsgType::kBarrierRelease;
        rel.id = m.id;
        rel.epoch = m.epoch;
        rel.notices = std::move(slot.sections);
        barrier_slots_.erase(m.epoch);
        for (int i = 0; i < num_nodes(); ++i) {
          if (i != rank_) send_msg(i, rel, /*fence=*/false);
        }
        apply_notices(rel.notices);
        barrier_released_gen_ = rel.epoch;
        barrier_waiters_.notify_all();
      }
      break;
    }
    case MsgType::kBarrierRelease: {
      apply_notices(m.notices);
      barrier_released_gen_ = m.epoch;
      barrier_waiters_.notify_all();
      break;
    }
  }
}

void Dsm::grant_lock(int lock_id, int to) {
  ManagedLock& ml = managed_locks_[lock_id];
  Message g;
  g.type = MsgType::kLockGrant;
  g.id = static_cast<std::uint32_t>(lock_id);
  const std::uint32_t seen = ml.last_sent.count(to) ? ml.last_sent[to] : 0;
  for (const auto& [epoch, sec] : ml.history) {
    if (epoch > seen) g.notices.push_back(sec);
  }
  ml.last_sent[to] = ml.next_epoch;
  // Prune history every requester has seen.
  std::uint32_t min_seen = ml.next_epoch;
  for (const auto& [node, e] : ml.last_sent) min_seen = std::min(min_seen, e);
  while (!ml.history.empty() && ml.history.front().first <= min_seen) {
    ml.history.pop_front();
  }
  send_msg(to, g, /*fence=*/false);
}

// ---------------------------------------------------------------------------
// Synchronization API
// ---------------------------------------------------------------------------

void Dsm::lock(int lock_id) {
  const sim::Time t0 = ep_.cluster().sim().now();
  LockState& ls = lock_states_[lock_id];
  assert(!ls.held && !ls.waiting && "recursive lock() is not supported");
  ls.waiting = true;
  Message req;
  req.type = MsgType::kLockReq;
  req.id = static_cast<std::uint32_t>(lock_id);
  send_msg(lock_id % num_nodes(), req, /*fence=*/false);
  while (!ls.held) ls.waiters.wait();
  ls.waiting = false;
  stats_.lock_wait += ep_.cluster().sim().now() - t0;
  stats_.lock_acquires += 1;
}

void Dsm::unlock(int lock_id) {
  const sim::Time t0 = ep_.cluster().sim().now();
  LockState& ls = lock_states_[lock_id];
  assert(ls.held);
  const int mgr = lock_id % num_nodes();
  const bool fence = system_.cfg_.use_fences && mgr != rank_;
  NoticeSection sec = flush_dirty(fence ? mgr : -1);
  ls.held = false;
  Message rel;
  rel.type = MsgType::kLockRelease;
  rel.id = static_cast<std::uint32_t>(lock_id);
  if (!sec.pages.empty()) rel.notices.push_back(std::move(sec));
  send_msg(mgr, rel, fence);
  stats_.lock_wait += ep_.cluster().sim().now() - t0;
}

void Dsm::barrier() {
  const sim::Time t0 = ep_.cluster().sim().now();
  const int mgr = 0;
  const bool fence = system_.cfg_.use_fences && mgr != rank_;
  flush_dirty(fence ? mgr : -1);

  Message arr;
  arr.type = MsgType::kBarrierArrive;
  arr.id = 0;
  arr.epoch = ++barrier_gen_;
  NoticeSection all;
  all.writer = static_cast<std::uint16_t>(rank_);
  std::sort(since_barrier_pages_.begin(), since_barrier_pages_.end());
  for (std::uint32_t page : since_barrier_pages_) {
    pages_[page].since_barrier = false;
  }
  all.pages = std::move(since_barrier_pages_);
  since_barrier_pages_.clear();
  if (!all.pages.empty()) arr.notices.push_back(std::move(all));
  send_msg(mgr, arr, fence);

  while (barrier_released_gen_ < barrier_gen_) barrier_waiters_.wait();
  stats_.barrier_wait += ep_.cluster().sim().now() - t0;
  stats_.barriers += 1;
}

void Dsm::flush() {
  const sim::Time t0 = ep_.cluster().sim().now();
  flush_dirty(-1);  // pages recorded in since_barrier_pages_ for the barrier
  stats_.data_wait += ep_.cluster().sim().now() - t0;
}

void Dsm::compute(sim::Time t) {
  stats_.compute += t;
  ep_.compute(t);
}

}  // namespace multiedge::dsm
