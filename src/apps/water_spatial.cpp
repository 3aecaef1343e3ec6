// Water-Spatial / Water-SpatialFL — cell-list molecular dynamics.
//
// Molecules live in a 3D grid of boxes; nodes own contiguous slabs of boxes
// along z. Per step: forces from own + neighbouring boxes (ghost-slab reads
// from the two z-neighbours), position update, and re-binning of molecules
// that crossed a box boundary (writes into possibly-remote destination box
// lists under locks). The paper's medium-scaling category (boundary sharing
// and imbalance limit speedup). The FL variant differs only in locking
// granularity: one lock per box (fine) instead of one per slab (coarse).
// Paper size: 128K molecules; scaled default: 4096, 2 steps.
//
// Compute cost model (same molecule-pair kernel as Water-Nsquared):
// 1400 ns per pair interaction, 900 ns per molecule of bookkeeping.
#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr double kPairNs = 1400.0;
constexpr double kMolNs = 900.0;
constexpr std::size_t kBoxCap = 64;  // max molecules per box
constexpr int kLockBase = 2000;

struct Mol {
  double pos[3];
  double vel[3];
};

class WaterSpatialApp final : public Application {
 public:
  WaterSpatialApp(const AppParams& p, bool fine_locks)
      : fine_locks_(fine_locks) {
    const long m = p.n > 0 ? p.n : 32768;
    mols_ = std::max<std::size_t>(static_cast<std::size_t>(m), 256);
    steps_ = p.steps > 0 ? p.steps : 2;
    // Grid dimension: ~8 molecules per box on average.
    grid_ = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::cbrt(static_cast<double>(mols_) / 8.0)));
    const std::size_t nboxes = grid_ * grid_ * grid_;
    footprint_ = nboxes * kBoxCap * sizeof(Mol) + nboxes * 4;
  }

  std::string name() const override {
    return fine_locks_ ? "Water-SpatialFL" : "Water-Spatial";
  }

  void setup(dsm::DsmSystem& sys) override {
    const std::size_t nboxes = grid_ * grid_ * grid_;
    boxes_ = dsm::SharedArray<Mol>(
        nullptr, sys.shared_alloc(nboxes * kBoxCap * sizeof(Mol), 4096),
        nboxes * kBoxCap);
    counts_ = dsm::SharedArray<std::uint32_t>(
        nullptr, sys.shared_alloc(nboxes * sizeof(std::uint32_t), 4096), nboxes);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    // Home one node's row partition as a block.
    const std::size_t part_bytes =
        num_rows() / static_cast<std::size_t>(nodes) * grid_ * kBoxCap *
        sizeof(Mol);
    return std::max<std::size_t>(1, part_bytes / 4096);
  }

  void init(dsm::Dsm& d) override {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Mol> B(&d, boxes_.va(), grid_ * grid_ * grid_ * kBoxCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    const double boxw = 2.6;
    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t b = box_index(x, y, z);
          const std::size_t want = mols_ / (grid_ * grid_ * grid_);
          const std::size_t cnt = std::min(kBoxCap - 8, std::max<std::size_t>(1, want));
          Mol* slot = B.write(b * kBoxCap, cnt);
          std::uint64_t s = b * 0x9e3779b97f4a7c15ull + 5;
          auto rnd = [&s] {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            return static_cast<double>((s * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53;
          };
          for (std::size_t i = 0; i < cnt; ++i) {
            slot[i].pos[0] = (static_cast<double>(x) + rnd()) * boxw;
            slot[i].pos[1] = (static_cast<double>(y) + rnd()) * boxw;
            slot[i].pos[2] = (static_cast<double>(z) + rnd()) * boxw;
            for (int k = 0; k < 3; ++k) slot[i].vel[k] = (rnd() - 0.5) * 0.4;
          }
          C.put(b, static_cast<std::uint32_t>(cnt));
        }
      }
    }
  }

  void run(dsm::Dsm& d) override {
    for (int step = 0; step < steps_; ++step) {
      force_and_update(d);
      d.barrier();
      rebin(d);
      d.barrier();
    }
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    // Node-count independent digest: total molecule count and quantized
    // centre of mass (accumulation order varies, differences ~1e-12).
    const std::size_t nboxes = grid_ * grid_ * grid_;
    double com[3] = {0, 0, 0};
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < nboxes; ++b) {
      std::uint32_t cnt = 0;
      read_home_copies(sys, counts_.va(b), sizeof cnt,
                       reinterpret_cast<std::byte*>(&cnt));
      total += cnt;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        Mol mol;
        read_home_copies(sys, boxes_.va(b * kBoxCap + i), sizeof mol,
                         reinterpret_cast<std::byte*>(&mol));
        for (int k = 0; k < 3; ++k) com[k] += mol.pos[k];
      }
    }
    std::uint64_t h = fnv1a(reinterpret_cast<const std::byte*>(&total),
                            sizeof total);
    for (double v : com) {
      const auto q = static_cast<std::int64_t>(std::llround(v * 100.0));
      h = fnv1a(reinterpret_cast<const std::byte*>(&q), sizeof q, h);
    }
    return h;
  }

 private:
  std::size_t box_index(std::size_t x, std::size_t y, std::size_t z) const {
    return (z * grid_ + y) * grid_ + x;
  }

  // Boxes are partitioned by contiguous (z,y) rows, balanced so every node
  // gets within one row of grid_^2 / n (plane-granular slabs leave nodes
  // idle whenever grid_ is not a multiple of the node count).
  std::size_t num_rows() const { return grid_ * grid_; }
  std::pair<std::size_t, std::size_t> my_rows(dsm::Dsm& d) const {
    const auto n = static_cast<std::size_t>(d.num_nodes());
    const auto r = static_cast<std::size_t>(d.rank());
    return {r * num_rows() / n, (r + 1) * num_rows() / n};
  }
  int row_owner(std::size_t row, int nnodes) const {
    return static_cast<int>(((row + 1) * static_cast<std::size_t>(nnodes) - 1) /
                            num_rows());
  }

  int lock_for_box(std::size_t b, dsm::Dsm& d) const {
    if (fine_locks_) return kLockBase + static_cast<int>(b % 1500);
    // Coarse: one lock per owning node's partition.
    return kLockBase + row_owner(b / grid_, d.num_nodes());
  }

  void force_and_update(dsm::Dsm& d) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Mol> B(&d, boxes_.va(), grid_ * grid_ * grid_ * kBoxCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);

    // Pass 1: compute updated molecule states into private buffers from a
    // consistent snapshot of positions (ghost reads of neighbour slabs).
    struct BoxUpdate {
      std::size_t box;
      std::vector<Mol> mols;
    };
    std::vector<BoxUpdate> updates;

    std::uint64_t pairs = 0;
    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t b = box_index(x, y, z);
          const std::uint32_t cnt = *C.read(b, 1);
          if (cnt == 0) continue;
          const Mol* cur = B.read(b * kBoxCap, cnt);
          std::vector<Mol> mine(cur, cur + cnt);
          double force[kBoxCap][3] = {};
          // Interact with the 27-neighbourhood (including own box).
          for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                const std::size_t nx = (x + grid_ + dx) % grid_;
                const std::size_t ny = (y + grid_ + dy) % grid_;
                const std::size_t nz = (z + grid_ + dz) % grid_;
                const std::size_t nb = box_index(nx, ny, nz);
                const std::uint32_t ncnt = *C.read(nb, 1);
                if (ncnt == 0) continue;
                const Mol* other = B.read(nb * kBoxCap, ncnt);
                for (std::uint32_t i = 0; i < cnt; ++i) {
                  for (std::uint32_t j = 0; j < ncnt; ++j) {
                    if (nb == b && j == i) continue;
                    double dvec[3], r2 = 0;
                    for (int k = 0; k < 3; ++k) {
                      dvec[k] = mine[i].pos[k] - other[j].pos[k];
                      r2 += dvec[k] * dvec[k];
                    }
                    if (r2 > 6.76) continue;  // cutoff 2.6
                    r2 = std::max(r2, 0.25);
                    const double inv2 = 1.0 / r2;
                    const double inv6 = inv2 * inv2 * inv2;
                    const double f = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
                    for (int k = 0; k < 3; ++k) force[i][k] += f * dvec[k];
                    ++pairs;
                  }
                }
              }
            }
          }
          for (std::uint32_t i = 0; i < cnt; ++i) {
            for (int k = 0; k < 3; ++k) {
              mine[i].vel[k] += force[i][k] * 1e-5;
              mine[i].pos[k] += mine[i].vel[k] * 0.05;
            }
          }
          updates.push_back(BoxUpdate{b, std::move(mine)});
        }
      }
    }
    d.compute_units(static_cast<double>(pairs), kPairNs);
    d.compute_units(static_cast<double>((r1 - r0) * grid_), kMolNs);
    d.barrier();

    // Pass 2: publish the updated states (each node writes only its slab).
    for (const BoxUpdate& u : updates) {
      Mol* out = B.write(u.box * kBoxCap, u.mols.size());
      std::copy(u.mols.begin(), u.mols.end(), out);
    }
  }

  void rebin(dsm::Dsm& d) {
    // Two phases around a barrier so removals from source boxes (phase A,
    // each node touching only its own slab) never race with insertions into
    // destination boxes (phase B, per-box/per-slab locks).
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Mol> B(&d, boxes_.va(), grid_ * grid_ * grid_ * kBoxCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    const double boxw = 2.6;
    const double span = boxw * static_cast<double>(grid_);

    struct Mover {
      Mol mol;
      std::size_t dst_box;
    };
    std::vector<Mover> movers;

    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t b = box_index(x, y, z);
          std::uint32_t cnt = *C.read(b, 1);
          if (cnt == 0) continue;
          Mol* mine = B.write(b * kBoxCap, kBoxCap);
          for (std::uint32_t i = 0; i < cnt;) {
            Mol& mol = mine[i];
            for (int k = 0; k < 3; ++k) {
              if (mol.pos[k] < 0) mol.pos[k] += span;
              if (mol.pos[k] >= span) mol.pos[k] -= span;
            }
            const auto tx = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(mol.pos[0] / boxw));
            const auto ty = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(mol.pos[1] / boxw));
            const auto tz = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(mol.pos[2] / boxw));
            const std::size_t tb = box_index(tx, ty, tz);
            if (tb == b) {
              ++i;
              continue;
            }
            movers.push_back(Mover{mol, tb});
            mine[i] = mine[cnt - 1];
            --cnt;
          }
          C.put(b, cnt);
        }
      }
    }
    d.compute_units(static_cast<double>((r1 - r0) * grid_), kMolNs);
    d.barrier();

    for (const Mover& mv : movers) {
      const int lk = lock_for_box(mv.dst_box, d);
      d.lock(lk);
      const std::uint32_t tcnt = *C.read(mv.dst_box, 1);
      if (tcnt < kBoxCap) {
        *B.write(mv.dst_box * kBoxCap + tcnt, 1) = mv.mol;
        C.put(mv.dst_box, tcnt + 1);
      }
      d.unlock(lk);
    }
    d.compute_units(static_cast<double>(movers.size() * 4 + 1), kMolNs);
  }

  bool fine_locks_;
  std::size_t mols_ = 0, grid_ = 0;
  int steps_ = 1;
  dsm::SharedArray<Mol> boxes_;
  dsm::SharedArray<std::uint32_t> counts_;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_water_spatial(const AppParams& p) {
  return std::make_unique<WaterSpatialApp>(p, /*fine_locks=*/false);
}

std::unique_ptr<Application> make_water_spatial_fl(const AppParams& p) {
  return std::make_unique<WaterSpatialApp>(p, /*fine_locks=*/true);
}

}  // namespace multiedge::apps
