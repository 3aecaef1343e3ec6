// Reproduces Table 1: the benchmark applications with their problem sizes,
// sequential execution times, and memory footprints. The paper's problem
// sizes are listed alongside the scaled-down defaults this reproduction
// runs (same kernels; see EXPERIMENTS.md for the scaling rationale).
#include <iostream>
#include <map>
#include <string>

#include "app_fig_common.hpp"

namespace {

const std::map<std::string, std::string>& paper_sizes() {
  static const std::map<std::string, std::string> sizes = {
      {"Barnes-Spatial", "128K/64K particles"},
      {"FFT", "2^22 complex values"},
      {"LU", "8Kx8K matrix"},
      {"Radix", "32M integers"},
      {"Raytrace", "Balls scene 1Kx1K"},
      {"Water-Nsquared", "128K molecules"},
      {"Water-Spatial", "128K molecules"},
      {"Water-SpatialFL", "128K mols"},
  };
  return sizes;
}

std::string our_size(const std::string& app, const multiedge::apps::AppParams& p) {
  using std::to_string;
  if (app == "FFT") return to_string(p.n) + " complex values";
  if (app == "LU") return to_string(p.n) + "x" + to_string(p.n) + " matrix";
  if (app == "Radix") return to_string(p.n) + " integers";
  if (app == "Barnes-Spatial") return to_string(p.n) + " particles";
  if (app == "Raytrace")
    return "sphere scene " + to_string(p.m) + "x" + to_string(p.m);
  return to_string(p.n) + " molecules";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace multiedge::apps;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--quick") {
      multiedge::bench::reject_argument(argv[0], argv[i], "[--quick]");
    }
    quick = true;
  }

  std::cout << "== Table 1: benchmark applications ==\n";
  multiedge::stats::Table t({"Application", "Paper problem size",
                             "This repro (default)", "Seq. exec. time (ms)",
                             "Footprint (MB)"});
  HarnessOptions setup = setup_1l_1g();
  for (const std::string& app : table1_app_names()) {
    const AppParams p = bench_params(app, quick);
    const AppRunResult r = run_app(setup, app, p, 1);
    auto a = make_app(app, p);
    t.row()
        .cell(app)
        .cell(paper_sizes().at(app))
        .cell(our_size(app, p))
        .cell(r.parallel_ms, 0)
        .cell(static_cast<double>(a->footprint_bytes()) / 1e6, 1);
  }
  t.print(std::cout);
  std::cout << "Paper seq. times (ms): Barnes 2877713, FFT 4752, LU 412096, "
               "Radix 4179, Raytrace 376096, W-Nsq 11678974, W-Sp 231889, "
               "W-SpFL 229586; footprints (MB): 120/45, 200, 500, 120, 210, "
               "90, 80, 80.\n";
  return 0;
}
