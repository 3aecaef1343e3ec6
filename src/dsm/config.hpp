// Configuration of the GeNIMA-like software DSM (see DESIGN.md §2 for the
// substitution rationale: GeNIMA itself is not available, so we implement a
// home-based lazy-release-consistency page DSM with the same structure —
// page-granularity sharing over remote memory operations).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace multiedge::dsm {

struct DsmConfig {
  std::size_t page_bytes = 4096;
  /// Size of the shared region replicated on every node.
  std::size_t shared_bytes = std::size_t{24} << 20;
  /// Pages are assigned round-robin to homes in blocks of this many pages.
  std::size_t home_block_pages = 1;
  /// Per-(sender,receiver) control-message ring capacity.
  std::size_t mailbox_bytes = std::size_t{2} << 20;
  /// Number of distributed locks.
  int num_locks = 4096;

  /// Figure 6 mode: instead of requiring strictly ordered delivery, annotate
  /// only the operations that need ordering with fences (a release message
  /// ordered behind the diff flushes it covers on the same connection).
  bool use_fences = false;

  /// Build a collective communicator (src/coll) for every node, reachable
  /// via Dsm::comm(). Collective traffic runs on its own notification tag,
  /// so it never competes with the DSM mailboxes.
  bool enable_coll = false;
  /// CollConfig::max_data_bytes for the embedded communicator.
  std::size_t coll_max_data_bytes = std::size_t{64} << 10;

  // --- host cost model of the DSM runtime itself (charged to the app CPU;
  //     GeNIMA work is application-level work, not MultiEdge protocol) ---
  /// Taking a page fault: trap + handler entry (mprotect/SIGSEGV path).
  sim::Time fault_cost = sim::us(6);
  /// Creating a twin: one page copy.
  double twin_ns_per_byte = 0.30;
  /// Computing a diff: one pass over page + twin.
  double diff_ns_per_byte = 0.55;
  /// Applying protection changes / bookkeeping per page at sync points.
  sim::Time page_bookkeeping_cost = sim::ns(400);
  /// Handling one control message (decode + state update).
  sim::Time msg_handling_cost = sim::us(2);
};

}  // namespace multiedge::dsm
