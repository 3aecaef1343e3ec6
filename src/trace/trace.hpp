// Protocol-wide event tracing.
//
// A TraceRecorder is a fixed-capacity ring buffer of typed events keyed on
// simulated time. Every layer of the stack (NIC, wire, protocol engine,
// connection, DSM) holds a nullable TraceRecorder* and records through it;
// when tracing is disabled the Cluster never constructs a recorder, so the
// per-hook cost is a single null-pointer branch and zero allocation.
//
// Recording never consumes simulated time or perturbs the event queue: the
// trace is a pure observer, so enabling it cannot change protocol behaviour
// or any measured (simulated) latency/throughput number.
//
// Events carry dense identifiers (node, rail, connection, sequence) rather
// than strings; the Chrome-trace exporter (trace/export.hpp) turns them into
// per-node×rail and per-connection tracks loadable in Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/process.hpp"
#include "sim/time.hpp"

namespace multiedge::trace {

enum class EventType : std::uint8_t {
  // NIC layer (below the protocol header, so no seq here).
  kNicTx,        // frame handed to the wire; a=payload bytes, b=wire bytes
  kNicRx,        // frame DMA'd into the rx ring; a=payload bytes, b=wire bytes
  kIrq,          // interrupt fired; b=events coalesced into this IRQ
  // Wire (channel fault model).
  kWireDrop,     // frame lost on the wire; a=payload bytes
  kWireCorrupt,  // frame FCS-corrupted on the wire; a=payload bytes
  // Protocol engine.
  kThreadBatch,  // protocol-thread pass; a=completions reaped, b=frames in batch
  // Connection.
  kDataTx,       // DATA frame (re)transmitted; a=seq, b=payload bytes
  kDataRx,       // DATA frame accepted; a=seq, b=payload bytes
  kAckTx,        // explicit ACK sent; a=cumulative ack
  kAckRx,        // ACK processed; a=cumulative ack, b=nack count
  kRetransmit,   // frame retransmitted; a=seq
  kWindowStall,  // sender blocked on the sliding window; a=snd_una
  kWindowResume, // window reopened; a=snd_una
  kFenceBlocked, // op held back by a fence; a=op id
  kFenceRelease, // fence released blocked ops; a=ops released
  kOpSubmit,     // user op submitted; a=op id, b=bytes
  kOpComplete,   // user op completed (duration event); a=op id, b=bytes
  kDoorbell,     // submission-ring doorbell rung; a=descriptors drained,
                 // b=frames released past the barrier (DESIGN.md §15)
  // DSM.
  kDsmPageFetch, // remote page fetch (duration event); a=page, b=bytes
  kDsmDiffFlush, // dirty-diff writeback (duration event); a=pages, b=bytes
  // Collectives (src/coll).
  kCollOp,       // one collective op (duration event); a=(kind<<8)|algo, b=bytes
  kCollRound,    // one round/step within a collective; a=round, b=bytes
  // Cross-node causal spans (carry a trace context; see SpanContext).
  kOpRecv,       // receiver-side op span: first fragment -> op applied;
                 // a=op id, b=bytes (parent = the initiator's op span)
  // Key-value store (src/kv).
  kKvOp,         // client-side KV op span; a=op code, b=key+value bytes
  kKvHandler,    // primary RPC handler span; a=op code, b=key+value bytes
  kKvRepl,       // backup replication-apply span; a=op code, b=bytes
  // Membership (src/member).
  kMemberProbe,  // one SWIM probe round-trip span; a=target node, b=probe seq
  // Serving-tier connection broker (src/svc).
  kSvcOp,        // brokered op span, submit -> completion (queueing included);
                 // a=(tenant id<<8)|kind, b=bytes
  // Notified-access RMA layer (src/rma).
  kRmaOp,        // one window op span, issue -> local completion;
                 // a=peer node, b=bytes
  kRmaSubmit,    // instant anchoring a window op's span the moment it is
                 // issued (like kOpSubmit: a quiet fire-and-forget op whose
                 // ack never lands still resolves in the stitched tree);
                 // a=peer node, b=bytes
};

/// Single source of truth for which event types are duration (span) events —
/// everything else exports as an instant. The exporter and tests both
/// consult this table, so a new span type cannot silently export as an
/// instant event.
constexpr bool is_span(EventType t) {
  switch (t) {
    case EventType::kOpComplete:
    case EventType::kOpRecv:
    case EventType::kDsmPageFetch:
    case EventType::kDsmDiffFlush:
    case EventType::kCollOp:
    case EventType::kKvOp:
    case EventType::kKvHandler:
    case EventType::kKvRepl:
    case EventType::kMemberProbe:
    case EventType::kSvcOp:
    case EventType::kRmaOp:
      return true;
    default:
      return false;
  }
}

/// Stable short name for an event type ("nic_tx", "op_complete", ...).
std::string_view event_name(EventType t);

/// Perfetto category for an event type ("nic", "wire", "engine", "conn",
/// "dsm") — used as the Chrome-trace "cat" field.
std::string_view event_category(EventType t);

/// Compact causal trace context: one distributed operation (a KV PUT, a
/// collective, a membership probe, a DSM fetch batch) owns a trace id, and
/// every span stitched under it carries that id plus its own span id. Both
/// ids are allocated from monotonic counters on the single cluster-wide
/// TraceRecorder, so they are deterministic across same-seed runs. id 0
/// means "no context" — untraced traffic stays bit-identical in the export.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// One trace record. 72 bytes; identifiers are dense ints, never strings.
struct Event {
  sim::Time ts = 0;    ///< event time (ps); start time for duration events
  sim::Time dur = 0;   ///< duration (ps) for span events (see is_span)
  std::uint64_t a = 0; ///< primary payload (seq, op id, page, ...)
  std::uint64_t b = 0; ///< secondary payload (bytes, batch size, ...)
  std::uint64_t trace_id = 0;     ///< causal trace id, 0 = untraced
  std::uint64_t span_id = 0;      ///< this span's id (span events only)
  std::uint64_t parent_span = 0;  ///< parent span id, 0 = root
  std::int32_t conn = -1;  ///< connection local id, -1 if n/a
  std::int16_t node = -1;  ///< node id, -1 if n/a
  std::int16_t rail = -1;  ///< rail id, -1 if n/a
  EventType type = EventType::kNicTx;
};

/// Event capacity of the flight recorder's ring (TraceConfig::flight_recorder).
inline constexpr std::size_t kFlightRingCapacity = std::size_t{1} << 12;

struct TraceConfig {
  bool enabled = false;
  /// Ring capacity in events; oldest events are overwritten on overflow.
  std::size_t ring_capacity = 1 << 18;
  /// Cadence of the periodic time-series samplers (window occupancy,
  /// queue depth, outstanding ops). 0 disables sampling.
  sim::Time sample_interval = 10'000'000;  // 10 us
  /// Flight recorder: always-on black-box mode. When set (and full tracing
  /// is off), the cluster allocates a SMALL ring (kFlightRingCapacity
  /// events) with the same hooks but no periodic samplers; on an invariant
  /// violation / peer failure the last-N events are dumped to a postmortem
  /// file (Cluster::write_postmortem).
  bool flight_recorder = false;
  /// Postmortem dump destination. Empty: $MULTIEDGE_POSTMORTEM_DIR/
  /// multiedge-postmortem-<n>.json, or ./multiedge-postmortem-<n>.json.
  std::string postmortem_path;
};

/// Fixed-capacity ring buffer of events. The buffer is allocated once at
/// construction; record() never allocates.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity) : ring_(capacity) {}

  void record(Event e) {
    if (ring_.empty()) return;
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size()) ++size_;
    ++total_;
  }

  /// Convenience for instant events. An instant may still carry a span
  /// context (e.g. op_submit anchors the submit-side span id the moment the
  /// op enters the engine, so a fire-and-forget op that never sees its ack
  /// still appears in the stitched timeline).
  void record(sim::Time ts, EventType type, int node, int rail, int conn,
              std::uint64_t a = 0, std::uint64_t b = 0, SpanContext ctx = {},
              std::uint64_t parent_span = 0) {
    Event e;
    e.ts = ts;
    e.type = type;
    e.node = static_cast<std::int16_t>(node);
    e.rail = static_cast<std::int16_t>(rail);
    e.conn = conn;
    e.a = a;
    e.b = b;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_span = parent_span;
    record(e);
  }

  /// Convenience for duration events (ts = start, dur = length). The
  /// trailing trace-context fields default to "untraced" so existing call
  /// sites keep emitting byte-identical events.
  void record_span(sim::Time ts, sim::Time dur, EventType type, int node,
                   int rail, int conn, std::uint64_t a = 0,
                   std::uint64_t b = 0, SpanContext ctx = {},
                   std::uint64_t parent_span = 0) {
    Event e;
    e.ts = ts;
    e.dur = dur;
    e.type = type;
    e.node = static_cast<std::int16_t>(node);
    e.rail = static_cast<std::int16_t>(rail);
    e.conn = conn;
    e.a = a;
    e.b = b;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_span = parent_span;
    record(e);
  }

  /// Allocate a fresh trace id / span id. Monotonic counters on the single
  /// cluster-wide recorder; the simulation is single-threaded, so allocation
  /// order — and therefore every id — is deterministic per seed. Trace ids
  /// start at 1 (0 = untraced).
  std::uint64_t new_trace_id() { return ++next_trace_id_; }
  std::uint64_t new_span_id() { return ++next_span_id_; }

  /// New root context for one distributed operation.
  SpanContext new_root() { return SpanContext{new_trace_id(), new_span_id()}; }
  /// New child span inside an existing trace.
  SpanContext new_child(const SpanContext& parent) {
    return SpanContext{parent.trace_id, new_span_id()};
  }

  /// Events in recording order (oldest surviving event first).
  std::vector<Event> events() const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Total events ever recorded, including ones overwritten by wraparound.
  std::uint64_t total_recorded() const { return total_; }
  bool wrapped() const { return total_ > size_; }
  void clear() {
    head_ = 0;
    size_ = 0;
    total_ = 0;
  }

 private:
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next slot to write
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t next_trace_id_ = 0;
  std::uint64_t next_span_id_ = 0;
};

/// RAII fiber-local span scope: operations submitted by this fiber while the
/// scope is alive inherit `ctx` as their parent (the protocol layer snapshots
/// sim::Process::current()->span_slot at submit time). Context lives on the
/// PROCESS, not the engine, because a fiber can yield mid-operation (compute
/// charges) and a concurrently running fiber must not inherit its span.
/// Scopes nest; destruction restores the previous context.
class SpanScope {
 public:
  explicit SpanScope(const SpanContext& ctx) : proc_(sim::Process::current()) {
    if (proc_ == nullptr) return;
    prev_ = proc_->span_slot;
    proc_->span_slot.trace_id = ctx.trace_id;
    proc_->span_slot.span_id = ctx.span_id;
  }
  ~SpanScope() {
    if (proc_ != nullptr) proc_->span_slot = prev_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// The current fiber's span context ({0,0} outside any scope/fiber).
  static SpanContext current() {
    sim::Process* p = sim::Process::current();
    if (p == nullptr) return {};
    return SpanContext{p->span_slot.trace_id, p->span_slot.span_id};
  }

 private:
  sim::Process* proc_;
  sim::Process::SpanSlot prev_{};
};

}  // namespace multiedge::trace
