// Protocol-level value types shared between the connection state machine,
// the engine, and the user-level library.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/signal.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace multiedge::proto {

/// Completion notification delivered to the remote node when a remote write
/// flagged kOpFlagNotify has been fully performed (§2.2).
struct Notification {
  int src_node = -1;
  std::uint64_t op_id = 0;
  std::uint64_t va = 0;
  std::uint32_t size = 0;
  /// Demultiplexing tag carried in op_flags bits 8..15 (0 = default channel).
  std::uint8_t tag = 0;
  /// Causal context of the receiver-side op span ({0,0} when untraced);
  /// RPC-style handlers adopt it as the parent of their own spans.
  trace::SpanContext ctx;
};

enum class OpKind : std::uint8_t { kWrite, kRead };

/// Sender-side state of one issued operation; the user-level OpHandle wraps
/// a shared_ptr to this.
struct SendOp {
  std::uint64_t op_id = 0;
  OpKind kind = OpKind::kWrite;
  std::uint16_t flags = 0;
  std::uint32_t size = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  bool complete = false;
  /// Bytes acknowledged so far (writes) — the progress-query primitive the
  /// paper's API exposes through operation handles (§2.2).
  std::uint32_t progress_bytes = 0;
  /// Submission time; op-completion trace spans and latency histograms
  /// measure from here.
  sim::Time submitted_at = 0;
  /// This operation's own span ({0,0} when the submitting fiber carried no
  /// context); stamped into every frame of the op.
  trace::SpanContext ctx;
  /// Span id of the submitting fiber's enclosing span (parent of ctx).
  std::uint64_t parent_span = 0;

  /// Touched on completion: the wake source of waits on it
  /// (OpHandle::wait and svc::wait_op).
  sim::Signal done;
  /// Optional completion hook (used by the DSM's asynchronous flushes).
  std::function<void()> on_complete;
};

using SendOpPtr = std::shared_ptr<SendOp>;

}  // namespace multiedge::proto
