// Reproduces Figure 5: applications over two 1-GBit/s links with strictly
// ordered delivery (2L-1G, 16 nodes). Paper reference: speedups and
// execution times similar to 1L-1G; 10-50% of frames received out of order;
// extra traffic <= 10% (<= 4% for most apps); 10-35% of frames generate
// interrupts (coalescing factor 3-10).
#include <iostream>

#include "app_fig_common.hpp"

int main(int argc, char** argv) {
  using namespace multiedge::apps;
  std::cout << "== Figure 5: applications over 2L-1G (16 nodes, strictly "
               "ordered) ==\n";
  // The paper shows only breakdowns for this setup.
  FigureOptions fo =
      parse_figure_options(argc, argv, {1, 4, 16}, /*speedups=*/false);
  run_app_figure(setup_2l_1g(), fo);
  std::cout << "Paper: times similar to 1L-1G; ooo 10-50% (reorder every "
               "2-10 frames); extra traffic <=10% (Raytrace, W-Nsq) and <=4% "
               "elsewhere; interrupts 10-35% of frames.\n";
  return 0;
}
