// Shared scaffolding for the gated benchmark binaries (simspeed, coll_bench,
// kv_bench, svc_bench, rma_bench, scale_bench, paper_bench): command-line
// parsing, the row fingerprints, and the harness that turns a bench's rows
// and gates into its tables, JSON artifact and --check verdict.
//
// Every gated bench speaks the same CLI dialect:
//   [--quick] [--repeat=N] [--json[=path]] [--check=<baseline>]
// runs each workload into a Row, and hands the Report and its Gate list to
// finish(). Gates run on every run; --json writes the BENCH_<bench>.json
// artifact; --check=<baseline> adds the gates that read the baseline and
// compares each row's "counters_fnv1a" fingerprint (a hash of its counters,
// or for paper_bench of its written fields). The simulation is
// deterministic, so fingerprints must match EXACTLY: any drift means
// behavior changed, not noise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

namespace multiedge::bench {

/// Prints why `arg` is rejected and the accepted `flags`, then exits 2.
/// Every bench binary rejects what it cannot honour: a mistyped
/// `--check BENCH.json` must not turn into a run that checks nothing and
/// exits 0.
[[noreturn]] inline void reject_argument(
    const char* argv0, std::string_view arg, std::string_view flags,
    std::string_view why = "unrecognised argument") {
  std::cerr << argv0 << ": " << why << " '" << arg << "'\nusage: " << argv0
            << ' ' << flags << '\n';
  std::exit(2);
}

struct Args {
  bool quick = false;
  int repeat = 1;
  std::string json_path;   // empty: no artifact
  std::string check_path;  // empty: no baseline check
};

/// Parses the shared CLI dialect; anything else is a usage error.
inline Args parse_args(int argc, char** argv, std::string_view default_json,
                       int default_repeat = 1) {
  constexpr std::string_view kFlags =
      "[--quick] [--repeat=N] [--json[=path]] [--check=<baseline>]";
  Args a;
  a.repeat = default_repeat;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg.starts_with("--repeat=")) {
      a.repeat = std::atoi(argv[i] + 9);
    } else if (arg == "--json") {
      a.json_path = default_json;
    } else if (arg.starts_with("--json=")) {
      a.json_path = arg.substr(7);
    } else if (arg.starts_with("--check=")) {
      a.check_path = arg.substr(8);
    } else {
      reject_argument(argv[0], arg, kFlags);
    }
  }
  // Quick runs reuse the full run's workload names with smaller parameters,
  // so no committed baseline describes them.
  if (a.quick && !a.check_path.empty()) {
    reject_argument(argv[0], "--check", kFlags,
                    "--quick cannot be combined with");
  }
  a.repeat = std::max(a.repeat, 1);
  return a;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Folds one "key=value\n" entry into `h`.
inline std::uint64_t fnv1a_entry(std::uint64_t h, std::string_view key,
                                 std::string_view value) {
  h = fnv1a(h, key);
  h = fnv1a(h, "=");
  h = fnv1a(h, value);
  return fnv1a(h, "\n");
}

/// Order-independent-enough fingerprint of a counter set: Counters::all()
/// iterates in sorted order, so equal counter maps hash equal.
inline std::uint64_t counters_fingerprint(const stats::Counters& c) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, value] : c.all()) {
    h = fnv1a_entry(h, name, std::to_string(value));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Harness: rows, gates, JSON and --check
// ---------------------------------------------------------------------------

/// Named values in the order they are written. Each is kept as its JSON
/// token (integers as integers, doubles through stats::json::number, strings
/// quoted) plus, for numbers, the value gates read.
struct Fields {
  struct Field {
    std::string key, json;
    std::optional<double> number;
  };
  std::vector<Field> items;

  template <typename T>
  Fields& add(std::string key, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      items.push_back({std::move(key), v ? "true" : "false", v ? 1.0 : 0.0});
    } else if constexpr (std::is_integral_v<T>) {
      items.push_back(
          {std::move(key), std::to_string(v), static_cast<double>(v)});
    } else if constexpr (std::is_floating_point_v<T>) {
      items.push_back({std::move(key), stats::json::number(v), v});
    } else {
      items.push_back(
          {std::move(key), '"' + stats::json::escape(v) + '"', std::nullopt});
    }
    return *this;
  }

  std::optional<double> number(std::string_view key) const {
    for (const Field& f : items) {
      if (f.key == key) return f.number;
    }
    return std::nullopt;
  }
};

/// Fingerprint of `fields` as written: FNV-1a over "key=<json>\n" in order.
/// When every field is deterministic simulated output, a drift in any
/// written digit changes it.
inline std::uint64_t fields_fingerprint(const Fields& fields) {
  std::uint64_t h = kFnvOffset;
  for (const Fields::Field& f : fields.items) h = fnv1a_entry(h, f.key, f.json);
  return h;
}

/// One workload's result: `fields` are written after "name" in this order,
/// then the counters fingerprint; `gate_only` values are read by gates and
/// never written.
struct Row {
  std::string name;
  Fields fields = {};
  Fields gate_only = {};
  std::uint64_t fingerprint = 0;

  std::optional<double> metric(std::string_view key) const {
    if (auto v = fields.number(key)) return v;
    return gate_only.number(key);
  }
};

/// A bench's rows plus named top-level summary objects.
struct Report {
  std::vector<Row> rows;
  std::vector<std::pair<std::string, Fields>> summaries;

  /// Appends an empty summary object called `name`.
  Fields& summary(std::string name) {
    return summaries.emplace_back(std::move(name), Fields()).second;
  }

  const Row* find(std::string_view name) const {
    for (const Row& r : rows) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

  /// `key` of the row, or else the summary object, called `name`.
  std::optional<double> metric(std::string_view name,
                               std::string_view key) const {
    if (const Row* r = find(name)) return r->metric(key);
    for (const auto& [s, f] : summaries) {
      if (s == name) return f.number(key);
    }
    return std::nullopt;
  }
};

/// The same lookup in a baseline document.
inline std::optional<double> baseline_metric(const stats::json::Value& doc,
                                             std::string_view name,
                                             std::string_view key) {
  const stats::json::Value* obj = doc.find(name);
  if (const stats::json::Value* wl = doc.find("workloads");
      wl && wl->is_array()) {
    for (const stats::json::Value& e : wl->array) {
      const stats::json::Value* n = e.find("name");
      if (n && n->string == name) obj = &e;
    }
  }
  const stats::json::Value* v = obj ? obj->find(key) : nullptr;
  if (v && v->is_number()) return v->number;
  return std::nullopt;
}

enum class Cmp { kGe, kGt, kLe, kLt, kEq };

inline bool holds(double v, Cmp cmp, double bound) {
  switch (cmp) {
    case Cmp::kGe: return v >= bound;
    case Cmp::kGt: return v > bound;
    case Cmp::kLe: return v <= bound;
    case Cmp::kLt: return v < bound;
    case Cmp::kEq: return v == bound;
  }
  return false;
}

/// A pass/fail property of a run, written as data. The gated value is
///   a.metric                      when `b` is empty,
///   a.metric / b.metric           when `b` names another row,
///   a.metric / baseline a.metric  when `b` is kBaseline,
/// and the gate holds when `value cmp bound`. `a` may also name a summary
/// object. An `a` that is empty or ends in '/' gates every row whose name
/// starts with it and that has `metric`.
struct Gate {
  std::string what;
  std::string a;
  std::string b;
  std::string metric;
  Cmp cmp;
  double bound;
};

/// Gate::b for "the committed baseline's own value of a.metric". Such a gate
/// is skipped when no baseline is loaded.
inline constexpr char kBaseline[] = "<baseline>";

/// Evaluates `g` on the fresh `report` and prints the verdict. A missing
/// row or metric fails, except under `quick`, whose rows are a subset; a
/// kBaseline gate is skipped when no baseline is loaded.
inline bool evaluate(const Gate& g, const Report& report,
                     const stats::json::Value* baseline, bool quick) {
  static constexpr const char* kSymbol[] = {">=", ">", "<=", "<", "=="};
  const bool every = g.a.empty() || g.a.back() == '/';
  std::vector<std::string> names;
  for (const Row& r : report.rows) {
    if (every && r.name.starts_with(g.a) && r.metric(g.metric)) {
      names.push_back(r.name);
    }
  }
  if (!every || names.empty()) names.push_back(g.a);
  bool ok = true;
  for (const std::string& name : names) {
    const std::optional<double> num = report.metric(name, g.metric);
    std::optional<double> den = 1.0;
    if (g.b == kBaseline) {
      den = baseline ? baseline_metric(*baseline, name, g.metric)
                     : std::nullopt;
    } else if (!g.b.empty()) {
      den = report.metric(g.b, g.metric);
    }
    const bool missing = !num || !den;
    if (missing && (quick || (g.b == kBaseline && !baseline))) {
      std::cout << "gate skipped: " << g.what << '\n';
      continue;
    }
    const bool pass = !missing && holds(*num / *den, g.cmp, g.bound);
    std::ostream& os = pass ? std::cout : std::cerr;
    os << (pass ? "gate OK: " : "CHECK FAIL: ") << g.what << " [" << name
       << (g.b.empty() ? "" : " / " + g.b) << "] " << g.metric << ' '
       << (missing ? "missing" : stats::fmt_double(*num / *den, 3))
       << (pass ? " " : ", need ") << kSymbol[static_cast<int>(g.cmp)] << ' '
       << g.bound << '\n';
    ok &= pass;
  }
  return ok;
}

/// Writes `fields` as JSON object members, each after `sep` and then ", ".
inline void write_members(std::ostream& os, const Fields& fields,
                          const char* sep) {
  for (const Fields::Field& f : fields.items) {
    os << sep << '"' << f.key << "\": " << f.json;
    sep = ", ";
  }
}

/// Writes `report` as the bench's JSON artifact.
inline void write_json(std::ostream& os, std::string_view bench, bool quick,
                       const Report& report) {
  os << "{\n  \"benchmark\": \"" << bench << "\",\n  \"quick\": "
     << (quick ? "true" : "false") << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const Row& r = report.rows[i];
    os << "    {\"name\": \"" << stats::json::escape(r.name) << '"';
    write_members(os, r.fields, ", ");
    os << ", \"counters_fnv1a\": \"" << hex(r.fingerprint) << "\"}"
       << (i + 1 < report.rows.size() ? ",\n" : "\n");
  }
  os << "  ]";
  for (const auto& [name, fields] : report.summaries) {
    os << ",\n  \"" << name << "\": {";
    write_members(os, fields, "");
    os << '}';
  }
  os << "\n}\n";
}

/// The text of `name` before its first '/', or "" when it has none.
inline std::string_view row_prefix(std::string_view name) {
  const std::size_t slash = name.find('/');
  return slash == std::string_view::npos ? "" : name.substr(0, slash);
}

/// One table per row-name prefix, in order of first appearance and
/// separated by a blank line, over that group's fields (a row without a
/// column shows "-"); then each summary object as JSON.
inline void print_table(std::ostream& os, const Report& report) {
  std::vector<std::string_view> prefixes;
  for (const Row& r : report.rows) {
    if (std::find(prefixes.begin(), prefixes.end(), row_prefix(r.name)) ==
        prefixes.end()) {
      prefixes.push_back(row_prefix(r.name));
    }
  }
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    if (p > 0) os << '\n';
    std::vector<const Row*> rows;
    std::vector<std::string> headers = {"workload"};
    for (const Row& r : report.rows) {
      if (row_prefix(r.name) != prefixes[p]) continue;
      rows.push_back(&r);
      for (const Fields::Field& f : r.fields.items) {
        if (std::find(headers.begin(), headers.end(), f.key) ==
            headers.end()) {
          headers.push_back(f.key);
        }
      }
    }
    const std::size_t field_cols = headers.size();
    headers.push_back("counters");
    stats::Table t(headers);
    for (const Row* r : rows) {
      std::vector<std::string> cells = {r->name};
      for (std::size_t c = 1; c < field_cols; ++c) {
        cells.push_back("-");
        for (const Fields::Field& f : r->fields.items) {
          if (f.key == headers[c]) cells.back() = f.json;
        }
      }
      cells.push_back(hex(r->fingerprint));
      t.add_row(std::move(cells));
    }
    t.print(os);
  }
  for (const auto& [name, fields] : report.summaries) {
    os << name << ": {";
    write_members(os, fields, "");
    os << "}\n";
  }
}

/// Compares every baseline workload's "counters_fnv1a" with the fresh run's.
/// A baseline workload that did not run, or has no fingerprint, fails, and
/// so does a baseline with no workloads, since then nothing was compared.
inline bool check_fingerprints(const stats::json::Value& doc,
                               const Report& report) {
  const stats::json::Value* wl = doc.find("workloads");
  if (!wl || !wl->is_array() || wl->array.empty()) {
    std::cerr << "CHECK FAIL: baseline has no workloads — nothing compared\n";
    return false;
  }
  bool ok = true;
  for (const stats::json::Value& e : wl->array) {
    const stats::json::Value* name = e.find("name");
    const stats::json::Value* fnv = e.find("counters_fnv1a");
    const Row* r = name ? report.find(name->string) : nullptr;
    const std::string now = r ? hex(r->fingerprint) : "not run";
    if (!fnv || now != fnv->string) {
      std::cerr << "CHECK FAIL: workload " << (name ? name->string : "?")
                << " counters fingerprint drifted (baseline "
                << (fnv ? fnv->string : "none") << ", now " << now
                << ") — behavior changed\n";
      ok = false;
    }
  }
  return ok;
}

/// Prints the table, evaluates `gates`, writes the JSON artifact and, under
/// --check, compares fingerprints against the baseline. Returns the exit
/// code: 0 when every gate and fingerprint holds, else 1.
inline int finish(const Args& args, std::string_view bench,
                  const Report& report, const std::vector<Gate>& gates) {
  print_table(std::cout, report);
  stats::json::Value baseline;
  if (!args.check_path.empty()) {
    std::ifstream in(args.check_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    if (!in || !stats::json::parse(text.str(), baseline, &err)) {
      std::cerr << "ERROR: cannot read baseline " << args.check_path << ": "
                << err << '\n';
      return 1;
    }
  }
  const stats::json::Value* base =
      args.check_path.empty() ? nullptr : &baseline;
  bool ok = true;
  for (const Gate& g : gates) ok &= evaluate(g, report, base, args.quick);
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    write_json(out, bench, args.quick, report);
    if (!out) {
      std::cerr << "ERROR: cannot write " << args.json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << args.json_path << '\n';
  }
  if (base) ok &= check_fingerprints(baseline, report);
  if (ok && base) std::cout << "check OK: gates hold, fingerprints match\n";
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Shared load-generation pieces (kv_bench, scale_bench, svc_bench)
// ---------------------------------------------------------------------------

/// YCSB-style zipfian generator over [0, n): theta skew, computed from a
/// uniform double in [0,1). Gray's rejection-free construction.
class ZipfGen {
 public:
  ZipfGen(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    zeta2_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t next(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const auto k = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k >= n_ ? n_ - 1 : k;
  }

 private:
  std::uint64_t n_;
  double zetan_, zeta2_, alpha_, eta_;
};

/// Canonical bench key format ("k%06d"): every KV bench uses the same string
/// keys so fingerprints stay comparable across binaries.
inline std::string bench_key(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", k);
  return buf;
}

/// Merge the per-node protocol-engine counters into `all` (node order, the
/// order every bench has always used — part of the fingerprint).
template <typename ClusterT>
inline void merge_engine_counters(ClusterT& cluster, int nodes,
                                  stats::Counters& all) {
  for (int i = 0; i < nodes; ++i) {
    all.merge(cluster.engine(i).aggregate_counters());
  }
}

inline double ns_to_us(std::uint64_t ns) {
  return static_cast<double>(ns) / 1000.0;
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedules + accounting
// ---------------------------------------------------------------------------
//
// Closed loops cannot show overload: each client waits for its previous op,
// so offered load self-throttles to match service capacity and the system
// never sees more work than it can do. An OPEN loop fixes the arrival
// process instead — requests arrive on a schedule independent of
// completions, latency is measured from the SCHEDULED arrival (wrk2-style,
// so queueing behind a slow op is charged to the ops stuck behind it, not
// hidden by coordinated omission), and a client that has fallen hopelessly
// behind sheds arrivals explicitly rather than silently compressing the
// offered load.

/// One client fiber's arrival process. Deterministic given the seed.
struct ArrivalConfig {
  double mean_interarrival_us = 100.0;  // 1/rate, simulated
  int count = 100;                      // arrivals to schedule
  std::uint64_t seed = 1;
  // Markov-modulated Poisson (2-state on/off burst model). During ON the
  // inter-arrival mean shrinks to mean*on_fraction so the long-run offered
  // rate matches the Poisson case; during OFF no arrivals occur. Phase
  // durations are exponential with mean phase_mean_us.
  bool bursty = false;
  double on_fraction = 0.25;
  double phase_mean_us = 400.0;
};

/// Absolute arrival offsets in simulated ns from the window start,
/// non-decreasing.
inline std::vector<std::uint64_t> make_arrivals(const ArrivalConfig& cfg) {
  std::mt19937_64 rng(cfg.seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  // Inverse-CDF exponential from the engine's uniform keeps the stream
  // deterministic across library implementations.
  auto expo = [&](double mean_us) {
    const double u = std::max(u01(rng), 1e-12);
    return -mean_us * std::log(u) * 1000.0;  // ns
  };
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(std::max(cfg.count, 0)));
  double t = 0;
  if (!cfg.bursty) {
    for (int i = 0; i < cfg.count; ++i) {
      t += expo(cfg.mean_interarrival_us);
      out.push_back(static_cast<std::uint64_t>(t));
    }
    return out;
  }
  // Duty cycle = on_fraction, and during ON the mean inter-arrival shrinks
  // by the same factor, so the long-run rate matches the Poisson schedule.
  const double on_mean = cfg.mean_interarrival_us * cfg.on_fraction;
  const double on_phase = cfg.phase_mean_us * cfg.on_fraction;
  const double off_phase = cfg.phase_mean_us * (1.0 - cfg.on_fraction);
  bool on = true;
  double phase_end = expo(on_phase);
  while (static_cast<int>(out.size()) < cfg.count) {
    if (!on) {
      t = phase_end;
      on = true;
      phase_end = t + expo(on_phase);
      continue;
    }
    const double next = t + expo(on_mean);
    if (next >= phase_end) {
      t = phase_end;
      on = false;
      phase_end = t + expo(off_phase);
      continue;
    }
    t = next;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

/// Open-loop accounting: offered = every scheduled arrival; issued ops either
/// complete ok, complete with an error, or are REJECTED by admission control;
/// arrivals a hopelessly-behind client never issues are counted `late`
/// (shed = rejected + late).
struct OpenLoopCounts {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t late = 0;
  void merge(const OpenLoopCounts& o) {
    offered += o.offered;
    ok += o.ok;
    errors += o.errors;
    rejected += o.rejected;
    late += o.late;
  }
};

/// Issue verdict for one open-loop op, reported by the bench's issue
/// callback.
enum class OpenLoopVerdict { kOk, kError, kRejected };

/// Drive one client fiber's open-loop schedule. Must run inside a sim fiber.
/// `issue` performs one blocking op and returns its verdict; `record(dt)`
/// receives the scheduled-arrival-to-completion sim::Time of each ok op
/// (convert with sim::to_ns/to_us for reporting). Arrivals more than
/// `shed_after` in the past when the client gets to them are shed as late
/// (the client is beyond saving; issuing them anyway would just deepen the
/// collapse and stall the measured window). Arrival offsets are in
/// simulated ns (as produced by make_arrivals).
template <typename Issue, typename Record>
inline OpenLoopCounts run_open_loop(sim::Simulator& sim, sim::Time start,
                                    const std::vector<std::uint64_t>& arrivals,
                                    sim::Time shed_after, Issue&& issue,
                                    Record&& record) {
  OpenLoopCounts c;
  for (const std::uint64_t a : arrivals) {
    ++c.offered;
    const sim::Time sched = start + sim::ns(static_cast<std::int64_t>(a));
    const sim::Time now = sim.now();
    if (now < sched) {
      sim::Process::current()->delay(sched - now);
    } else if (now - sched > shed_after) {
      ++c.late;
      continue;
    }
    switch (issue()) {
      case OpenLoopVerdict::kOk:
        ++c.ok;
        record(sim.now() - sched);
        break;
      case OpenLoopVerdict::kError:
        ++c.errors;
        break;
      case OpenLoopVerdict::kRejected:
        ++c.rejected;
        break;
    }
  }
  return c;
}

}  // namespace multiedge::bench
