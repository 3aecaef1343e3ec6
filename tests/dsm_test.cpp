// DSM correctness: page fetch, multiple-writer diffs, lock mutual exclusion,
// barrier semantics, and notice propagation — on each cluster configuration —
// plus the symmetric-layout check, the shared region's bounds and the pages
// a run faults in, and the page diff against a byte-loop reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dsm/dsm.hpp"
#include "dsm/shared_array.hpp"
#include "resident.hpp"

namespace multiedge::dsm {
namespace {

TEST(Dsm, SystemLaysOutSharedRegionIdentically) {
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t a = sys.shared_alloc(100);
  const std::uint64_t b = sys.shared_alloc(100);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(a, sys.shared_base());
}

// One node allocated before the DSM did, so its layout cannot match the
// others'. The default config keeps the collective domain off, so the throw
// comes from the DSM's own regions.
TEST(Dsm, AsymmetricLayoutThrows) {
  Cluster cluster(config_1l_1g(2));
  cluster.memory(1).alloc(64);
  EXPECT_THROW(DsmSystem(cluster, DsmConfig{}), std::runtime_error);
}

TEST(Dsm, HomeWriteIsVisibleToRemoteReader) {
  Cluster cluster(config_1l_1g(2));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  SharedArray<int> arr(nullptr, sys.shared_alloc(1024 * sizeof(int)), 1024);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, arr.va(), 1024);
    if (d.rank() == 0) {
      int* w = a.write(0, 1024);
      for (int i = 0; i < 1024; ++i) w[i] = i * 3;
    }
    d.barrier();
    if (d.rank() == 1) {
      const int* r = a.read(0, 1024);
      for (int i = 0; i < 1024; ++i) ASSERT_EQ(r[i], i * 3) << i;
    }
    d.barrier();
  });
}

TEST(Dsm, DiffsFromNonHomeWriterReachHome) {
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t base = sys.shared_alloc(64 * 1024);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, base, 16384);
    // Node 3 writes everything; all others verify after the barrier.
    if (d.rank() == 3) {
      int* w = a.write(0, 16384);
      for (int i = 0; i < 16384; ++i) w[i] = i ^ 0x5a5a;
    }
    d.barrier();
    if (d.rank() != 3) {
      const int* r = a.read(0, 16384);
      for (int i = 0; i < 16384; ++i) ASSERT_EQ(r[i], i ^ 0x5a5a);
    }
    d.barrier();
  });
  // The writer flushed diffs for the pages it does not home.
  EXPECT_GT(sys.node_stats(3).diffs_flushed, 0u);
  EXPECT_GT(sys.node_stats(3).diff_bytes, 0u);
}

TEST(Dsm, MultipleWritersOnOnePageMergeAtHome) {
  // Page-level false sharing: each node writes a disjoint slice of the same
  // page between barriers; every write must survive the merge.
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t base = sys.shared_alloc(4096, 4096);

  sys.run([&](Dsm& d) {
    SharedArray<std::uint64_t> a(&d, base, 512);
    const int n = d.num_nodes();
    const std::size_t chunk = 512 / n;
    std::uint64_t* w = a.write(d.rank() * chunk, chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      w[i] = 1000 * (d.rank() + 1) + i;
    }
    d.barrier();
    const std::uint64_t* r = a.read(0, 512);
    for (int node = 0; node < n; ++node) {
      for (std::size_t i = 0; i < chunk; ++i) {
        ASSERT_EQ(r[node * chunk + i], 1000ull * (node + 1) + i)
            << "node " << node << " slice lost in merge";
      }
    }
    d.barrier();
  });
}

TEST(Dsm, LockProvidesMutualExclusionAndDataPropagation) {
  Cluster cluster(config_1l_1g(8));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t counter_va = sys.shared_alloc(sizeof(std::uint64_t), 4096);

  constexpr int kIncrementsPerNode = 25;
  sys.run([&](Dsm& d) {
    SharedArray<std::uint64_t> c(&d, counter_va, 1);
    for (int i = 0; i < kIncrementsPerNode; ++i) {
      d.lock(7);
      const std::uint64_t v = c.get(0);
      d.compute(sim::us(3));
      c.put(0, v + 1);
      d.unlock(7);
    }
    d.barrier();
    ASSERT_EQ(c.get(0), static_cast<std::uint64_t>(8 * kIncrementsPerNode));
    d.barrier();
  });
}

TEST(Dsm, NoticesPropagateAcrossDifferentLockHolders) {
  // A writes under lock; C (who never synchronized with A directly) acquires
  // the same lock later and must see A's write via the manager's history.
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t va = sys.shared_alloc(4096, 4096);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, va, 16);
    // Warm every node's cache so stale copies exist.
    (void)a.get(0);
    d.barrier();
    if (d.rank() == 1) {
      d.lock(5);
      a.put(0, 42);
      d.unlock(5);
    }
    d.barrier();  // order: ranks acquire strictly after rank 1 released
    if (d.rank() == 3) {
      d.lock(5);
      ASSERT_EQ(a.get(0), 42);
      d.unlock(5);
    }
    d.barrier();
  });
}

TEST(Dsm, BarrierPropagatesLockFlushedPages) {
  // A page flushed at an *unlock* (not at the barrier) must still be
  // invalidated on third parties at the next barrier.
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t va = sys.shared_alloc(4096, 4096);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, va, 16);
    (void)a.get(0);  // everyone caches the page
    d.barrier();
    if (d.rank() == 2) {
      d.lock(9);
      a.put(0, 77);
      d.unlock(9);  // flush happens here, before the barrier
    }
    d.barrier();
    ASSERT_EQ(a.get(0), 77) << "rank " << d.rank();
    d.barrier();
  });
}

using DsmConfigParam = std::tuple<std::string, bool>;  // (setup name, fences)

class DsmAllConfigsTest : public ::testing::TestWithParam<DsmConfigParam> {
 protected:
  ClusterConfig cluster_config() const {
    const auto& [name, fences] = GetParam();
    (void)fences;
    if (name == "1L-1G") return config_1l_1g(4);
    if (name == "2L-1G") return config_2l_1g(4);
    if (name == "2Lu-1G") return config_2lu_1g(4);
    return config_1l_10g(4);
  }
};

TEST_P(DsmAllConfigsTest, ProducerConsumerPipelineCorrect) {
  Cluster cluster(cluster_config());
  DsmConfig cfg;
  cfg.shared_bytes = 2 << 20;
  cfg.use_fences = std::get<1>(GetParam());
  DsmSystem sys(cluster, cfg);
  constexpr std::size_t kN = 32768;
  const std::uint64_t va = sys.shared_alloc(kN * sizeof(int), 4096);

  // Stage s: node s multiplies every element, barrier, next node continues.
  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, va, kN);
    if (d.rank() == 0) {
      int* w = a.write(0, kN);
      for (std::size_t i = 0; i < kN; ++i) w[i] = static_cast<int>(i % 97);
    }
    d.barrier();
    for (int stage = 0; stage < d.num_nodes(); ++stage) {
      if (d.rank() == stage) {
        int* w = a.write(0, kN);
        for (std::size_t i = 0; i < kN; ++i) w[i] = w[i] * 3 + 1;
      }
      d.barrier();
    }
    const int* r = a.read(0, kN);
    for (std::size_t i = 0; i < kN; ++i) {
      int expect = static_cast<int>(i % 97);
      for (int s = 0; s < d.num_nodes(); ++s) expect = expect * 3 + 1;
      ASSERT_EQ(r[i], expect) << i;
    }
    d.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DsmAllConfigsTest,
    ::testing::Values(DsmConfigParam{"1L-1G", false},
                      DsmConfigParam{"2L-1G", false},
                      DsmConfigParam{"2Lu-1G", true},
                      DsmConfigParam{"1L-10G", false}),
    [](const ::testing::TestParamInfo<DsmConfigParam>& info) {
      std::string n = std::get<0>(info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + (std::get<1>(info.param) ? "_fences" : "");
    });

TEST(Dsm, StatsAccumulateSensibly) {
  Cluster cluster(config_1l_1g(2));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t va = sys.shared_alloc(64 * 1024, 4096);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, va, 16384);
    if (d.rank() == 1) {
      int* w = a.write(0, 16384);
      for (int i = 0; i < 16384; ++i) w[i] = i;
      d.compute(sim::ms(1));
    }
    d.barrier();
    if (d.rank() == 0) (void)a.read(0, 16384);
    d.barrier();
  });

  const DsmNodeStats& s0 = sys.node_stats(0);
  const DsmNodeStats& s1 = sys.node_stats(1);
  EXPECT_GT(s0.read_faults, 0u);
  EXPECT_GT(s0.pages_fetched, 0u);
  EXPECT_GT(s0.data_wait, 0);
  EXPECT_GT(s0.barrier_wait, 0);  // waited for node 1's compute
  EXPECT_EQ(s1.compute, sim::ms(1));
  EXPECT_GT(s1.write_faults, 0u);
  EXPECT_EQ(s0.barriers, 2u);
  EXPECT_EQ(s1.barriers, 2u);
}

// The node homing the page at `va` (DsmConfig::home_block_pages == 1).
int HomeOf(DsmSystem& sys, std::uint64_t va) {
  return static_cast<int>((va - sys.shared_base()) / kPageBytes %
                          static_cast<std::uint64_t>(sys.num_nodes()));
}

// The first page-aligned va in [base, base + pages * kPageBytes) whose page
// `home` homes.
std::uint64_t PageHomedBy(DsmSystem& sys, std::uint64_t base, int pages,
                          int home) {
  for (int p = 0; p < pages; ++p) {
    const std::uint64_t va = base + static_cast<std::uint64_t>(p) * kPageBytes;
    if (HomeOf(sys, va) == home) return va;
  }
  ADD_FAILURE() << "no page homed by " << home;
  return base;
}

TEST(Dsm, ManyPutsToOneRemotePageFaultAndTwinOnce) {
  Cluster cluster(config_1l_1g(2));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t base = sys.shared_alloc(2 * kPageBytes, kPageBytes);
  const std::uint64_t va = PageHomedBy(sys, base, 2, /*home=*/1);

  sys.run([&](Dsm& d) {
    SharedArray<int> a(&d, va, kPageBytes / sizeof(int));
    if (d.rank() == 0) {
      for (int i = 0; i < 1000; ++i) a.put(static_cast<std::size_t>(i), i);
    }
    d.barrier();
    if (d.rank() == 1) {
      for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.get(i), i);
    }
    d.barrier();
  });
  EXPECT_EQ(sys.node_stats(0).write_faults, 1u);
  EXPECT_EQ(sys.node_stats(0).twins_created, 1u);
}

TEST(Dsm, HomeWritesInDescendingOrderInvalidateEachPageOnce) {
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  // Notices are then the only DSM overhead a reader pays at the barrier.
  cfg.msg_handling_cost = 0;
  cfg.page_bookkeeping_cost = sim::us(1);
  DsmSystem sys(cluster, cfg);
  constexpr int kPages = 16;
  constexpr int kWriter = 1;
  const std::uint64_t base = sys.shared_alloc(kPages * kPageBytes, kPageBytes);
  std::vector<std::uint64_t> home_pages;  // descending
  for (int p = kPages - 1; p >= 0; --p) {
    const std::uint64_t va = base + static_cast<std::uint64_t>(p) * kPageBytes;
    if (HomeOf(sys, va) == kWriter) home_pages.push_back(va);
  }
  ASSERT_EQ(home_pages.size(), 4u);

  std::vector<std::uint64_t> invalidations(4), overhead(4);
  sys.run([&](Dsm& d) {
    SharedArray<int> all(&d, base, kPages * kPageBytes / sizeof(int));
    (void)all.read(0, all.size());  // every reader caches every page
    d.barrier();
    const std::uint64_t inv0 = d.stats().invalidations;
    const sim::Time ovh0 = d.stats().overhead;
    if (d.rank() == kWriter) {
      // Each page twice, highest page first.
      for (int round = 0; round < 2; ++round) {
        for (std::uint64_t va : home_pages) {
          SharedArray<int> page(&d, va, kPageBytes / sizeof(int));
          page.put(static_cast<std::size_t>(round), round + 10);
        }
      }
    }
    d.barrier();
    invalidations[d.rank()] = d.stats().invalidations - inv0;
    overhead[d.rank()] = static_cast<std::uint64_t>(d.stats().overhead - ovh0);
    for (std::uint64_t va : home_pages) {
      SharedArray<int> page(&d, va, kPageBytes / sizeof(int));
      ASSERT_EQ(page.get(0), 10);
      ASSERT_EQ(page.get(1), 11);
    }
    d.barrier();
  });
  for (int n = 0; n < 4; ++n) {
    if (n == kWriter) continue;
    EXPECT_EQ(invalidations[n], home_pages.size()) << "node " << n;
    EXPECT_EQ(overhead[n],
              home_pages.size() * static_cast<std::uint64_t>(sim::us(1)))
        << "node " << n << ": each page listed once in the notices";
  }
}

TEST(Dsm, WriteSpanningAPageBoundaryTakesTheGeneralPath) {
  // Both pages are remote to the writer. The first is already Dirty when
  // the spanning write comes, the second is not: a fast path that looked
  // only at the first page would skip the second page's write fault, and
  // its bytes would never be diffed home.
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  constexpr int kWriter = 3;
  const std::uint64_t base = sys.shared_alloc(8 * kPageBytes, kPageBytes);
  const std::uint64_t first = PageHomedBy(sys, base, 8, /*home=*/1);
  const std::uint64_t second = first + kPageBytes;
  ASSERT_EQ(HomeOf(sys, second), 2);
  constexpr std::size_t kPerPage = kPageBytes / sizeof(std::uint32_t);

  sys.run([&](Dsm& d) {
    if (d.rank() == kWriter) {
      SharedArray<std::uint32_t> a(&d, first, 2 * kPerPage);
      a.put(kPerPage - 1, 0xaaaa);  // first page Dirty
      std::uint32_t* w = a.write(kPerPage - 1, 2);
      w[0] = 0x1111;
      w[1] = 0x2222;
    }
    d.barrier();
  });
  EXPECT_EQ(sys.node_stats(kWriter).write_faults, 2u);
  std::uint32_t at_home = 0;
  sys.cluster().memory(1).read(second - sizeof at_home,
                               {reinterpret_cast<std::byte*>(&at_home),
                                sizeof at_home});
  EXPECT_EQ(at_home, 0x1111u);
  sys.cluster().memory(2).read(second, {reinterpret_cast<std::byte*>(&at_home),
                                        sizeof at_home});
  EXPECT_EQ(at_home, 0x2222u);
}

// The bound holds in every build type, not only where assert() is live.
TEST(Dsm, SharedAllocThrowsWhenTheRegionIsExhausted) {
  Cluster cluster(config_1l_1g(2));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  EXPECT_EQ(sys.shared_alloc(512 << 10, kPageBytes), sys.shared_base());
  EXPECT_THROW(sys.shared_alloc(1 << 20), std::length_error);
  EXPECT_THROW(sys.shared_alloc(SIZE_MAX - 10), std::length_error);
  EXPECT_THROW(sys.shared_alloc(1, 2 << 20), std::length_error);
  // A failed call moves nothing: the rest of the region still fits exactly.
  EXPECT_EQ(sys.shared_alloc(512 << 10, kPageBytes),
            sys.shared_base() + (512 << 10));
  EXPECT_THROW(sys.shared_alloc(1), std::length_error);
}

// Shared-region pages resident on each node.
std::vector<std::size_t> SharedResidentPages(DsmSystem& sys) {
  const std::size_t region = sys.config().shared_bytes;
  std::vector<std::size_t> pages;
  for (int n = 0; n < sys.num_nodes(); ++n) {
    pages.push_back(testing_util::resident_pages(
        sys.cluster().memory(n).view(sys.shared_base(), region).data(),
        region));
  }
  return pages;
}

// The shared region and the mailbox rings are reserved, and shared_alloc
// commits nothing: a node's copy of a page faults in only when that node
// writes it, a page fetch lands in it, or a diff lands at its home
// (DESIGN.md §11 "Node memory"). Committing what shared_alloc hands out on
// every node cost each of the 4 nodes the whole MiB.
TEST(Dsm, SharedAllocCommitsNothing) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr int kNodes = 4;
  Cluster cluster(config_1l_1g(kNodes));
  const long before = testing_util::resident_kib();
  ASSERT_GE(before, 0);
  DsmSystem sys(cluster, DsmConfig{});
  const std::uint64_t va = sys.shared_alloc(kMiB, kPageBytes);
  const long grown = testing_util::resident_kib() - before;
  // Page tables and the per-node page tables of the DSM itself; under ASan,
  // shadow for the heap those take.
  EXPECT_LT(grown, 2048 + testing_util::kShadowPerGibKib / 32);
  EXPECT_EQ(SharedResidentPages(sys), std::vector<std::size_t>(kNodes, 0));
  for (int n = 0; n < kNodes; ++n) {
    // Handed-out bytes read as zero (after the residency check: a read maps
    // the zero page, which mincore counts).
    const auto handed_out = cluster.memory(n).view(va, kMiB);
    EXPECT_TRUE(std::all_of(handed_out.begin(), handed_out.end(),
                            [](std::byte b) { return b == std::byte{0}; }))
        << "node " << n;
  }
}

// A read of a remote page faults in exactly that page, on the reading node
// only: the fetch lands in the reader's copy, and the home serves it from
// the copy its own write faulted in.
TEST(Dsm, RemoteReadFaultsInOnePageOnTheReaderOnly) {
  constexpr int kHome = 1;
  constexpr int kReader = 3;
  Cluster cluster(config_1l_1g(4));
  DsmConfig cfg;
  cfg.shared_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  const std::uint64_t base = sys.shared_alloc(8 * kPageBytes, kPageBytes);
  const std::uint64_t page = PageHomedBy(sys, base, 8, kHome);

  std::vector<std::size_t> before;
  std::vector<std::size_t> after;
  std::uint64_t got = 0;
  sys.run([&](Dsm& d) {
    SharedArray<std::uint64_t> a(&d, page, kPageBytes / 8);
    if (d.rank() == kHome) a.put(7, 0x5eed);
    d.barrier();
    if (d.rank() == 0) before = SharedResidentPages(sys);
    d.barrier();
    if (d.rank() == kReader) got = a.get(7);
    d.barrier();
    if (d.rank() == 0) after = SharedResidentPages(sys);
  });
  EXPECT_EQ(got, 0x5eedu);
  EXPECT_EQ(sys.node_stats(kReader).pages_fetched, 1u);
  EXPECT_EQ(before, (std::vector<std::size_t>{0, 1, 0, 0}));
  EXPECT_EQ(after, (std::vector<std::size_t>{0, 1, 0, 1}));
}

// The byte-at-a-time diff flush_dirty ran before the word-wide one.
std::vector<DiffRun> ReferenceDiffRuns(const std::byte* cur,
                                       const std::byte* twin) {
  std::vector<DiffRun> runs;
  std::size_t run_start = SIZE_MAX;
  std::size_t last_dirty = 0;
  for (std::size_t b = 0; b < kPageBytes; ++b) {
    if (cur[b] == twin[b]) continue;
    if (run_start == SIZE_MAX) {
      run_start = b;
    } else if (b - last_dirty > 32) {
      runs.emplace_back(run_start, last_dirty);
      run_start = b;
    }
    last_dirty = b;
  }
  if (run_start != SIZE_MAX) runs.emplace_back(run_start, last_dirty);
  return runs;
}

TEST(DsmDiff, WordWideRunsMatchTheByteLoop) {
  std::mt19937_64 rng(7);
  std::vector<std::byte> twin(kPageBytes);
  std::vector<std::byte> cur(kPageBytes);
  const auto dirty = [&](std::size_t b) {
    cur[b] = twin[b] ^ static_cast<std::byte>(1 + rng() % 255);
  };
  const auto check = [&](const char* what, int trial) {
    EXPECT_EQ(diff_runs(cur.data(), twin.data()),
              ReferenceDiffRuns(cur.data(), twin.data()))
        << what << " trial " << trial;
  };
  const double densities[] = {0.0, 0.001, 0.01, 0.05, 0.3, 1.0};
  for (int trial = 0; trial < 600; ++trial) {
    for (std::byte& b : twin) b = static_cast<std::byte>(rng());
    cur = twin;
    const double p = densities[trial % 6];
    std::bernoulli_distribution flip(p);
    for (std::size_t b = 0; b < kPageBytes; ++b) {
      if (flip(rng)) dirty(b);
    }
    check("random", trial);

    // Two dirty bytes exactly 32 apart merge; 33 apart split. Start at
    // every offset within a word, on a clean page.
    for (std::size_t gap : {std::size_t{32}, std::size_t{33}}) {
      cur = twin;
      const std::size_t a = rng() % (kPageBytes - gap);
      dirty(a);
      dirty(a + gap);
      check(gap == 32 ? "gap 32" : "gap 33", trial);
    }
    // The page's first and last bytes.
    cur = twin;
    dirty(0);
    dirty(kPageBytes - 1);
    if (trial % 2 == 0) dirty(rng() % kPageBytes);
    check("ends", trial);
  }
  // A gap of 32 and one of 33 in the same page, at fixed word offsets.
  for (std::size_t off = 0; off < 8; ++off) {
    cur = twin;
    dirty(off);
    dirty(off + 32);
    dirty(off + 32 + 33);
    const std::vector<DiffRun> runs = diff_runs(cur.data(), twin.data());
    EXPECT_EQ(runs, (std::vector<DiffRun>{{off, off + 32},
                                          {off + 65, off + 65}}))
        << "offset " << off;
  }
}

}  // namespace
}  // namespace multiedge::dsm
