// Reproduces Figure 6: applications over two 1-GBit/s links with
// out-of-order delivery allowed (2Lu-1G, 16 nodes). The DSM is switched to
// its fence-annotated mode: ordering is enforced only between operations
// that need it (a release message rides behind the diffs it covers via a
// backward fence) rather than on every frame. Paper reference: performance
// and network statistics stay very close to the strictly ordered 2L-1G
// setup.
#include <iostream>

#include "app_fig_common.hpp"

int main(int argc, char** argv) {
  using namespace multiedge::apps;
  std::cout << "== Figure 6: applications over 2Lu-1G (16 nodes, "
               "out-of-order + fences) ==\n";
  FigureOptions fo =
      parse_figure_options(argc, argv, {1, 4, 16}, /*speedups=*/false);
  run_app_figure(setup_2lu_1g(), fo);
  std::cout << "Paper: relaxing ordering does not significantly change "
               "application performance or network-level statistics vs "
               "2L-1G.\n";
  return 0;
}
