#include "trace/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "stats/json.hpp"

namespace multiedge::trace {

namespace {

constexpr int kTidProtoThread = 0;
constexpr int kTidRailBase = 1;
constexpr int kTidDsm = 500;
constexpr int kTidColl = 501;
constexpr int kTidKv = 502;
constexpr int kTidMember = 503;
constexpr int kTidSvc = 504;
constexpr int kTidRma = 505;
constexpr int kTidConnBase = 1000;

// Simulated picoseconds -> trace microseconds, printed with fixed precision
// so equal inputs always serialize identically.
std::string ts_us(sim::Time ps) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(ps) / 1e6);
  return buf;
}

int event_tid(const Event& e) {
  switch (e.type) {
    case EventType::kThreadBatch:
      return kTidProtoThread;
    case EventType::kNicTx:
    case EventType::kNicRx:
    case EventType::kIrq:
    case EventType::kWireDrop:
    case EventType::kWireCorrupt:
    case EventType::kDataTx:
    case EventType::kDataRx:
    case EventType::kRetransmit:
      return kTidRailBase + (e.rail >= 0 ? e.rail : 0);
    case EventType::kDsmPageFetch:
    case EventType::kDsmDiffFlush:
      return kTidDsm;
    case EventType::kCollOp:
    case EventType::kCollRound:
      return kTidColl;
    case EventType::kKvOp:
    case EventType::kKvHandler:
    case EventType::kKvRepl:
      return kTidKv;
    case EventType::kMemberProbe:
      return kTidMember;
    case EventType::kSvcOp:
      return kTidSvc;
    case EventType::kRmaOp:
    case EventType::kRmaSubmit:
      return kTidRma;
    case EventType::kAckTx:
    case EventType::kAckRx:
    case EventType::kWindowStall:
    case EventType::kWindowResume:
    case EventType::kFenceBlocked:
    case EventType::kFenceRelease:
    case EventType::kOpSubmit:
    case EventType::kOpComplete:
    case EventType::kDoorbell:
    case EventType::kOpRecv:
      return kTidConnBase + (e.conn >= 0 ? e.conn : 0);
  }
  return 0;
}

// Span-ness comes from the single trace.hpp table (trace::is_span); the
// exporter deliberately has no private copy to drift out of sync.

std::string thread_label(int tid) {
  if (tid == kTidProtoThread) return "proto-thread";
  if (tid == kTidDsm) return "dsm";
  if (tid == kTidColl) return "coll";
  if (tid == kTidKv) return "kv";
  if (tid == kTidMember) return "member";
  if (tid == kTidSvc) return "svc";
  if (tid == kTidRma) return "rma";
  if (tid >= kTidConnBase) return "conn" + std::to_string(tid - kTidConnBase);
  return "rail" + std::to_string(tid - kTidRailBase);
}

void write_meta(std::ostream& os, bool& first, const char* name, int pid,
                int tid, const std::string& value) {
  os << (first ? "" : ",") << "\n  {\"ph\":\"M\",\"name\":\"" << name
     << "\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"args\":{\"name\":\"" << stats::json::escape(value) << "\"}}";
  first = false;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceRecorder& rec,
                        const std::vector<const TimeSeries*>& series) {
  const std::vector<Event> events = rec.events();

  // Collect the (pid, tid) tracks present so each gets a stable name.
  std::set<int> pids;
  std::set<std::pair<int, int>> tracks;
  for (const Event& e : events) {
    const int pid = e.node >= 0 ? e.node : 0;
    pids.insert(pid);
    tracks.insert({pid, event_tid(e)});
  }

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const int pid : pids) {
    write_meta(os, first, "process_name", pid, 0,
               "node" + std::to_string(pid));
  }
  for (const auto& [pid, tid] : tracks) {
    write_meta(os, first, "thread_name", pid, tid, thread_label(tid));
  }

  // Track where every traced span lives so cross-node parent links can be
  // drawn as Perfetto flow arrows (span id -> its slice's pid/tid/start).
  // Instants carrying a span id (op_submit) register too: they anchor ops
  // whose completion span never landed (fire-and-forget writes drained with
  // the run); a later span event for the same id overrides the anchor.
  struct SpanSite {
    int pid = 0;
    int tid = 0;
    sim::Time ts = 0;
  };
  std::map<std::uint64_t, SpanSite> span_sites;
  for (const Event& e : events) {
    if (e.trace_id != 0 && e.span_id != 0) {
      span_sites[e.span_id] = SpanSite{e.node >= 0 ? e.node : 0, event_tid(e),
                                       e.ts};
    }
  }

  for (const Event& e : events) {
    const int pid = e.node >= 0 ? e.node : 0;
    os << (first ? "" : ",") << "\n  {\"name\":\"" << event_name(e.type)
       << "\",\"cat\":\"" << event_category(e.type) << "\",\"ph\":\""
       << (is_span(e.type) ? 'X' : 'i') << "\",\"ts\":" << ts_us(e.ts);
    if (is_span(e.type)) {
      os << ",\"dur\":" << ts_us(e.dur);
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",\"pid\":" << pid << ",\"tid\":" << event_tid(e)
       << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b;
    if (e.conn >= 0) os << ",\"conn\":" << e.conn;
    if (e.rail >= 0) os << ",\"rail\":" << e.rail;
    if (e.trace_id != 0) {
      // Causal context: only traced events grow args, so untraced runs
      // export byte-identically to the pre-context format.
      os << ",\"trace\":" << e.trace_id << ",\"span\":" << e.span_id
         << ",\"parent\":" << e.parent_span;
    }
    os << "}}";
    first = false;

    // Parent -> child flow arrow (one per traced child span whose parent's
    // slice survived the ring). The flow id is the child's span id: unique,
    // deterministic, and shared by exactly the "s"/"f" pair.
    if (e.trace_id != 0 && is_span(e.type) && e.parent_span != 0) {
      auto it = span_sites.find(e.parent_span);
      if (it != span_sites.end()) {
        const SpanSite& p = it->second;
        os << ",\n  {\"name\":\"" << event_name(e.type)
           << "\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << e.span_id
           << ",\"ts\":" << ts_us(p.ts) << ",\"pid\":" << p.pid
           << ",\"tid\":" << p.tid << "}";
        os << ",\n  {\"name\":\"" << event_name(e.type)
           << "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
           << e.span_id << ",\"ts\":" << ts_us(e.ts) << ",\"pid\":" << pid
           << ",\"tid\":" << event_tid(e) << "}";
      }
    }
  }

  for (const TimeSeries* s : series) {
    if (!s) continue;
    for (const auto& [t, v] : s->samples()) {
      os << (first ? "" : ",") << "\n  {\"ph\":\"C\",\"name\":\""
         << stats::json::escape(s->name()) << "\",\"pid\":0,\"tid\":0,\"ts\":"
         << ts_us(t) << ",\"args\":{\"value\":" << stats::json::number(v)
         << "}}";
      first = false;
    }
  }

  os << "\n]}\n";
}

std::string chrome_trace_string(const TraceRecorder& rec,
                                const std::vector<const TimeSeries*>& series) {
  std::ostringstream os;
  write_chrome_trace(os, rec, series);
  return os.str();
}

}  // namespace multiedge::trace
