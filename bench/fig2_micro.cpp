// Reproduces Figure 2 of the paper: latency, throughput, and protocol CPU
// utilization of the ping-pong / one-way / two-way micro-benchmarks over the
// four system setups (1L-1G, 2L-1G, 2Lu-1G, 1L-10G), plus the §4 text's
// network-level statistics (out-of-order fraction, extra frames, drops).
//
// Usage: fig2_micro [--quick] [--csv] [--json[=path]]
//   --json writes the machine-readable BENCH_fig2.json artifact (per-point
//   metrics plus the per-op latency histogram) next to the console output.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/microbench.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "trace/export.hpp"

namespace {

using namespace multiedge;

struct Setup {
  std::string name;
  ClusterConfig cfg;
};

std::vector<Setup> setups() {
  return {
      {"1L-1G", config_1l_1g(2)},
      {"2L-1G", config_2l_1g(2)},
      {"2Lu-1G", config_2lu_1g(2)},
      {"1L-10G", config_1l_10g(2)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool csv = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--json") {
      json_path = "BENCH_fig2.json";
    } else if (arg.starts_with("--json=")) {
      json_path = arg.substr(7);
    } else {
      bench::reject_argument(argv[0], arg, "[--quick] [--csv] [--json[=path]]");
    }
  }

  std::vector<std::size_t> sizes = {64,        256,       1024,     4096,
                                    16 * 1024, 64 * 1024, 256 * 1024,
                                    1024 * 1024};
  if (quick) sizes = {64, 4096, 64 * 1024, 1024 * 1024};

  const std::vector<MicroBench> benches = {
      MicroBench::kPingPong, MicroBench::kOneWay, MicroBench::kTwoWay};

  std::cout << "== Figure 2: MultiEdge micro-benchmarks ==\n"
            << "latency(us): ping-pong = one-way memory-to-memory time/op;\n"
            << "             one-way/two-way = host overhead to initiate an op\n"
            << "cpu%: protocol CPU utilization out of 200% (two CPUs/node)\n\n";

  std::ostringstream points;  // JSON artifact body, built as we go
  bool first_point = true;

  for (const auto& setup : setups()) {
    for (MicroBench b : benches) {
      stats::Table t({"setup", "bench", "size(B)", "latency(us)", "MB/s",
                      "cpu%", "ooo%", "extra%", "drops", "coalesce"});
      for (std::size_t size : sizes) {
        MicroParams p;
        p.message_bytes = size;
        if (quick) p.iterations = b == MicroBench::kPingPong ? 64 : 256;
        MicroResult r = run_micro(setup.cfg, b, p);
        t.row()
            .cell(setup.name)
            .cell(to_string(b))
            .cell(static_cast<std::uint64_t>(size))
            .cell(r.latency_us, 2)
            .cell(r.throughput_mbs, 1)
            .cell(r.cpu_utilization * 100.0, 1)
            .cell(r.ooo_fraction() * 100.0, 1)
            .cell(r.extra_frame_fraction() * 100.0, 1)
            .cell(r.dropped_frames)
            .cell(r.coalescing_factor, 2);
        if (!json_path.empty()) {
          if (!first_point) points << ",\n";
          first_point = false;
          points << "    {\"setup\": \"" << setup.name << "\", \"bench\": \""
                 << to_string(b) << "\", \"size_bytes\": " << size
                 << ", \"latency_us\": " << stats::json::number(r.latency_us)
                 << ", \"throughput_mbs\": "
                 << stats::json::number(r.throughput_mbs)
                 << ", \"cpu_utilization\": "
                 << stats::json::number(r.cpu_utilization)
                 << ", \"ooo_fraction\": "
                 << stats::json::number(r.ooo_fraction())
                 << ", \"extra_frame_fraction\": "
                 << stats::json::number(r.extra_frame_fraction())
                 << ", \"dropped_frames\": " << r.dropped_frames
                 << ", \"retransmissions\": " << r.retransmissions
                 << ", \"coalescing_factor\": "
                 << stats::json::number(r.coalescing_factor)
                 << ", \"op_latency_ns\": ";
          trace::histogram_to_json(points, r.op_latency_ns);
          points << "}";
        }
      }
      if (csv) {
        t.print_csv(std::cout);
      } else {
        t.print(std::cout);
      }
      std::cout << '\n';
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"fig2_micro\",\n  \"quick\": "
        << (quick ? "true" : "false") << ",\n  \"points\": [\n"
        << points.str() << "\n  ]\n}\n";
    std::cout << "wrote " << json_path << '\n';
  }

  std::cout << "Paper reference points: 1G max ~120 MB/s (1L) / ~240 MB/s "
               "(2L); 10G one-way ~1100 MB/s (88%), ping-pong ~710 MB/s, "
               "two-way ~1500 MB/s; min latency ~30us (1L-10G); host overhead "
               "~2us; multi-link ooo 45-50%; extra frames <= 5.5%.\n";
  return 0;
}
