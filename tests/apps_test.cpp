// Application correctness: every Table 1 kernel must produce the same result
// (exact digest, or physics within tolerance) regardless of node count and
// network configuration, and the harness must report coherent statistics.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "apps/harness.hpp"
#include "resident.hpp"

namespace multiedge::apps {
namespace {

// Small problem instances so the whole matrix of tests stays fast.
AppParams tiny(const std::string& app) {
  AppParams p;
  if (app == "FFT") p.n = 1 << 12;
  if (app == "LU") {
    p.n = 256;
    p.m = 32;
  }
  if (app == "Radix") p.n = 1 << 14;
  if (app == "Barnes-Spatial") {
    p.n = 2048;
    p.steps = 1;
  }
  if (app == "Raytrace") {
    p.m = 64;
    p.n = 24;
  }
  if (app == "Water-Nsquared") {
    p.n = 256;
    p.steps = 1;
  }
  if (app == "Water-Spatial" || app == "Water-SpatialFL") {
    p.n = 1024;
    p.steps = 1;
  }
  return p;
}

HarnessOptions small_1l_1g() {
  HarnessOptions o = setup_1l_1g();
  o.dsm.shared_bytes = std::size_t{12} << 20;
  return o;
}

class AppCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(AppCorrectness, ChecksumIndependentOfNodeCount) {
  const std::string app = GetParam();
  const AppParams p = tiny(app);
  HarnessOptions o = small_1l_1g();

  const AppRunResult r1 = run_app(o, app, p, 1);
  const AppRunResult r4 = run_app(o, app, p, 4);
  EXPECT_EQ(r1.checksum, r4.checksum) << app;
  EXPECT_GT(r1.parallel_ms, 0.0);
  EXPECT_GT(r4.parallel_ms, 0.0);
}

TEST_P(AppCorrectness, ChecksumIndependentOfNetworkConfig) {
  const std::string app = GetParam();
  const AppParams p = tiny(app);

  HarnessOptions o1 = small_1l_1g();
  HarnessOptions o2 = setup_2lu_1g();
  o2.dsm.shared_bytes = o1.dsm.shared_bytes;

  const AppRunResult a = run_app(o1, app, p, 4);
  const AppRunResult b = run_app(o2, app, p, 4);
  EXPECT_EQ(a.checksum, b.checksum)
      << app << ": out-of-order delivery with fences changed the result";
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectness,
                         ::testing::ValuesIn(table1_app_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// The opt-in collective paths (FFT transpose, Radix permutation over
// all_to_all_v) must be checksum-identical to the page-fault DSM paths.
class AppCollEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(AppCollEquivalence, ChecksumMatchesDsmPath) {
  const std::string app = GetParam();
  AppParams p = tiny(app);
  HarnessOptions o = small_1l_1g();
  const AppRunResult plain = run_app(o, app, p, 4);
  p.use_coll = true;
  const AppRunResult coll = run_app(o, app, p, 4);
  EXPECT_EQ(plain.checksum, coll.checksum) << app;
  // Also across node counts and an uneven division (3 does not divide the
  // FFT row count or the Radix key count evenly).
  const AppRunResult coll3 = run_app(o, app, p, 3);
  EXPECT_EQ(plain.checksum, coll3.checksum) << app;
}

INSTANTIATE_TEST_SUITE_P(CollApps, AppCollEquivalence,
                         ::testing::Values("FFT", "Radix"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(AppHarness, BreakdownCoversParallelTime) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "FFT", tiny("FFT"), 4);
  ASSERT_EQ(r.per_node.size(), 4u);
  for (const NodeBreakdown& b : r.per_node) {
    const double accounted = b.compute_ms + b.data_wait_ms + b.lock_wait_ms +
                             b.barrier_wait_ms + b.dsm_overhead_ms;
    // Breakdown components must roughly fill the parallel section (some
    // protocol time on the app CPU is unaccounted, so allow slack).
    EXPECT_GT(accounted, 0.5 * r.parallel_ms);
    EXPECT_LT(accounted, 1.6 * r.parallel_ms);
  }
}

TEST(AppHarness, CommunicationHappened) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "Radix", tiny("Radix"), 4);
  EXPECT_GT(r.data_frames, 100u);
  EXPECT_GT(r.interrupts, 0u);
  EXPECT_EQ(r.dropped_frames, 0u);  // clean network
  EXPECT_LT(r.extra_frame_fraction(), 0.6);
}

TEST(AppHarness, SingleNodeRunsHaveNoNetworkTraffic) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "LU", tiny("LU"), 1);
  EXPECT_EQ(r.data_frames, 0u);
}

TEST(AppHarness, SpeedupFromParallelism) {
  // With a compute-dominant app at a reasonable size, four nodes must beat
  // one clearly.
  HarnessOptions o = small_1l_1g();
  AppParams p;
  p.m = 256;
  p.n = 48;
  const AppRunResult r1 = run_app(o, "Raytrace", p, 1);
  const AppRunResult r4 = run_app(o, "Raytrace", p, 4);
  EXPECT_GT(r1.parallel_ms / r4.parallel_ms, 2.2);
}

// A node's copy of a shared page faults in only where the run writes it,
// fetches it or lands a diff in it, so the region does not cost every node
// the whole footprint. Radix on 16 nodes, laid out the way run_app lays it
// out: each node writes 256 digit runs per pass, so the pages it touches
// shrink towards its 1/16 share only as a run grows past a page. At 2^22
// keys (a page per run) the 16 copies hold 3.7 footprints; committing the
// region on every node held 16. At 2^16 keys they hold 13.6, at 2^20 7.6.
TEST(AppMemory, RadixOn16NodesHoldsUnderFourFootprints) {
  constexpr int kNodes = 16;
  AppParams p;
  p.n = 1 << 22;
  std::unique_ptr<Application> app = make_app("Radix", p);
  dsm::DsmConfig dcfg = setup_1l_1g().dsm;
  dcfg.home_block_pages = app->preferred_home_block_pages(kNodes);
  dcfg.shared_bytes = app->footprint_bytes() + (4u << 20);
  ClusterConfig ccfg = setup_1l_1g().cluster;
  ccfg.topology.num_nodes = kNodes;
  ccfg.memory_bytes_per_node = dcfg.mailbox_bytes * (kNodes + 1) +
                               dcfg.shared_bytes + (std::size_t{8} << 20);
  Cluster cluster(ccfg);
  dsm::DsmSystem sys(cluster, dcfg);
  app->setup(sys);
  sys.run([&](dsm::Dsm& d) {
    app->init(d);
    d.barrier();
    app->run(d);
    d.barrier();
  });
  std::size_t resident = 0;
  for (int n = 0; n < kNodes; ++n) {
    resident += testing_util::resident_pages(
        cluster.memory(n).view(sys.shared_base(), dcfg.shared_bytes).data(),
        dcfg.shared_bytes);
  }
  const std::size_t footprint_pages = app->footprint_bytes() / dsm::kPageBytes;
  EXPECT_LE(resident, 4 * footprint_pages)
      << resident << " pages against a footprint of " << footprint_pages;
}

TEST(AppRegistry, AllTableOneAppsRegistered) {
  EXPECT_EQ(table1_app_names().size(), 8u);
  for (const auto& name : table1_app_names()) {
    EXPECT_NO_THROW({ auto app = make_app(name, tiny(name)); });
  }
  EXPECT_THROW(make_app("NoSuchApp"), std::invalid_argument);
}

}  // namespace
}  // namespace multiedge::apps
