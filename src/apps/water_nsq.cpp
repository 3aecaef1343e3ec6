// Water-Nsquared — O(M^2/2) pairwise molecular dynamics (SPLASH-2 style).
//
// Each node owns a contiguous chunk of molecules. Per timestep: predict
// positions (local), compute pairwise Lennard-Jones-like forces over the
// half pair matrix (each node evaluates its molecules against the following
// M/2 molecules, like SPLASH), accumulate remote contributions into private
// buffers merged under per-block locks, then correct positions (local).
// Compute dominates: the paper's best-scaling category. Paper size: 128K
// molecules; scaled default: 1000, 3 steps.
//
// Compute cost model (anchored to Table 1: the real Water inner loop does
// 9 atom-pair distances plus Ewald terms per molecule pair): 1400 ns per
// molecule-pair interaction, 2000 ns per molecule per intra phase.
#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr double kPairNs = 1400.0;
constexpr double kIntraNs = 2000.0;
constexpr int kLockBase = 100;

struct Molecule {
  double pos[3];
  double vel[3];
  double force[3];
};

class WaterNsqApp final : public Application {
 public:
  explicit WaterNsqApp(const AppParams& p) {
    const long m = p.n > 0 ? p.n : 1440;
    mols_ = std::max<std::size_t>(static_cast<std::size_t>(m), 64);
    steps_ = p.steps > 0 ? p.steps : 3;
    footprint_ = mols_ * sizeof(Molecule);
  }

  std::string name() const override { return "Water-Nsquared"; }

  void setup(dsm::DsmSystem& sys) override {
    arr_ = dsm::SharedArray<Molecule>(
        nullptr, sys.shared_alloc(mols_ * sizeof(Molecule), 4096), mols_);
    mols_per_block_ = std::max<std::size_t>(1, 4096 / sizeof(Molecule));
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    return std::max<std::size_t>(1, mols_ * sizeof(Molecule) / nodes / 4096);
  }

  void init(dsm::Dsm& d) override {
    auto [m0, m1] = my_range(d);
    dsm::SharedArray<Molecule> A(&d, arr_.va(), mols_);
    Molecule* mine = A.write(m0, m1 - m0);
    const double box = std::cbrt(static_cast<double>(mols_)) * 3.1;
    for (std::size_t i = m0; i < m1; ++i) {
      std::uint64_t x = i * 0x9e3779b97f4a7c15ull + 99;
      auto rnd = [&x] {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return static_cast<double>((x * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53;
      };
      Molecule& mol = mine[i - m0];
      for (int k = 0; k < 3; ++k) {
        mol.pos[k] = rnd() * box;
        mol.vel[k] = (rnd() - 0.5) * 0.1;
        mol.force[k] = 0;
      }
    }
  }

  void run(dsm::Dsm& d) override {
    const std::size_t nblocks = (mols_ + mols_per_block_ - 1) / mols_per_block_;
    for (int step = 0; step < steps_; ++step) {
      auto [m0, m1] = my_range(d);
      dsm::SharedArray<Molecule> A(&d, arr_.va(), mols_);

      // Predict (intra-molecular work, local).
      {
        Molecule* mine = A.write(m0, m1 - m0);
        for (std::size_t i = 0; i < m1 - m0; ++i) {
          for (int k = 0; k < 3; ++k) {
            mine[i].pos[k] += mine[i].vel[k] * 0.001;
            mine[i].force[k] = 0;
          }
        }
        d.compute_units(static_cast<double>(m1 - m0), kIntraNs);
      }
      d.barrier();

      // Inter-molecular forces over the half pair matrix: molecule i
      // interacts with the next mols_/2 molecules (wrapping), so every pair
      // is computed exactly once.
      const Molecule* all = A.read(0, mols_);
      std::vector<double> acc(mols_ * 3, 0.0);
      const std::size_t half = mols_ / 2;
      std::uint64_t pairs = 0;
      for (std::size_t i = m0; i < m1; ++i) {
        const std::size_t span =
            (mols_ % 2 == 0 && i >= half) ? half - 1 : half;
        for (std::size_t kk = 1; kk <= span; ++kk) {
          const std::size_t j = (i + kk) % mols_;
          double dx[3], r2 = 0;
          for (int k = 0; k < 3; ++k) {
            dx[k] = all[i].pos[k] - all[j].pos[k];
            r2 += dx[k] * dx[k];
          }
          r2 = std::max(r2, 0.25);
          const double inv2 = 1.0 / r2;
          const double inv6 = inv2 * inv2 * inv2;
          const double f = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
          for (int k = 0; k < 3; ++k) {
            acc[i * 3 + k] += f * dx[k];
            acc[j * 3 + k] -= f * dx[k];
          }
          ++pairs;
        }
      }
      d.compute_units(static_cast<double>(pairs), kPairNs);

      // Merge the private accumulations into shared molecules, one lock per
      // page-sized block of molecules (SPLASH's per-molecule locks, page
      // granular).
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t lo = b * mols_per_block_;
        const std::size_t hi = std::min(mols_, lo + mols_per_block_);
        bool any = false;
        for (std::size_t i = lo; i < hi && !any; ++i) {
          any = acc[i * 3] != 0 || acc[i * 3 + 1] != 0 || acc[i * 3 + 2] != 0;
        }
        if (!any) continue;
        d.lock(kLockBase + static_cast<int>(b));
        Molecule* blk = A.write(lo, hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          for (int k = 0; k < 3; ++k) blk[i - lo].force[k] += acc[i * 3 + k];
        }
        d.unlock(kLockBase + static_cast<int>(b));
      }
      d.barrier();

      // Correct (local).
      {
        Molecule* mine = A.write(m0, m1 - m0);
        for (std::size_t i = 0; i < m1 - m0; ++i) {
          for (int k = 0; k < 3; ++k) {
            mine[i].vel[k] += mine[i].force[k] * 1e-5;
            mine[i].pos[k] += mine[i].vel[k] * 0.001;
          }
        }
        d.compute_units(static_cast<double>(m1 - m0), kIntraNs);
      }
      d.barrier();
    }
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    // Quantized digest: force accumulation order varies with the node
    // count, so hash positions rounded to 1e-6 (differences are ~1e-12).
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < mols_; ++i) {
      Molecule mol;
      read_home_copies(sys, arr_.va(i), sizeof mol,
                       reinterpret_cast<std::byte*>(&mol));
      for (int k = 0; k < 3; ++k) {
        const auto q = static_cast<std::int64_t>(std::llround(mol.pos[k] * 1e6));
        h = fnv1a(reinterpret_cast<const std::byte*>(&q), sizeof q, h);
      }
    }
    return h;
  }

 private:
  std::pair<std::size_t, std::size_t> my_range(dsm::Dsm& d) const {
    const std::size_t chunk = mols_ / d.num_nodes();
    const std::size_t m0 = d.rank() * chunk;
    const std::size_t m1 = d.rank() + 1 == d.num_nodes() ? mols_ : m0 + chunk;
    return {m0, m1};
  }

  std::size_t mols_ = 0;
  std::size_t mols_per_block_ = 1;
  int steps_ = 1;
  dsm::SharedArray<Molecule> arr_;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_water_nsquared(const AppParams& p) {
  return std::make_unique<WaterNsqApp>(p);
}

}  // namespace multiedge::apps
