// Exporters for trace artifacts.
//
// write_chrome_trace() emits the Chrome trace-event JSON format (the
// {"traceEvents": [...]} flavour), loadable directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Track layout:
//   pid  = node id (one "process" per node)
//   tid 0            = protocol thread (batch boundaries)
//   tid 1 + rail     = NIC/wire/data track for that rail
//   tid 500          = DSM activity
//   tid 501          = collectives
//   tid 502          = key-value store spans
//   tid 503          = membership probe spans
//   tid 1000 + conn  = per-connection op/window/fence track
// Instant events use ph "i", duration events (see trace::is_span) use ph "X"
// with ts = start. Events carrying a causal trace context additionally emit
// "trace"/"span"/"parent" args plus a Perfetto flow arrow (ph "s"/"f") from
// the parent span's slice, so one distributed op renders as a stitched
// cross-node timeline. Timestamps are microseconds of simulated time
// (fractional; the sim runs in picoseconds).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace multiedge::trace {

/// Write the full Chrome trace-event document. `series` entries (may be
/// empty) are emitted as Perfetto counter tracks (ph "C").
void write_chrome_trace(std::ostream& os, const TraceRecorder& rec,
                        const std::vector<const TimeSeries*>& series = {});

/// Same, into a string (used by tests and small tools).
std::string chrome_trace_string(const TraceRecorder& rec,
                                const std::vector<const TimeSeries*>& series = {});

}  // namespace multiedge::trace
