// Barnes-Spatial — hierarchical N-body with spatial domain decomposition.
//
// Simplification of SPLASH-2 Barnes (documented in DESIGN.md): instead of a
// full octree, a two-level spatial hierarchy — a fine grid of cells holding
// particles and a coarse grid of cell-block monopoles. Forces on a particle
// are the direct sum over its 27-cell neighbourhood plus monopole
// contributions from every remote coarse block. The communication character
// matches Barnes: compute-dominant, mostly-local reads (ghost slabs), a
// small globally-read moment array, and periodic re-binning — the paper's
// best-scaling category. Paper size: 128K/64K particles; scaled default:
// 12288, 2 steps.
//
// Compute cost model (Opteron-era gravity kernel with tree walks): 400 ns
// per direct pair, 100 ns per monopole evaluation, 120 ns per particle for
// binning/update bookkeeping.
#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr double kPairNs = 400.0;
constexpr double kMonoNs = 100.0;
constexpr double kBookNs = 120.0;
constexpr std::size_t kCellCap = 16;
constexpr int kLockBase = 4000;

struct Body {
  double pos[3];
  double vel[3];
  double mass;
};

struct Moment {
  double com[3];
  double mass;
};

class BarnesApp final : public Application {
 public:
  explicit BarnesApp(const AppParams& p) {
    const long n = p.n > 0 ? p.n : 32768;
    bodies_ = std::max<std::size_t>(static_cast<std::size_t>(n), 512);
    steps_ = p.steps > 0 ? p.steps : 3;
    grid_ = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::cbrt(static_cast<double>(bodies_) / 6.0)));
    grid_ = (grid_ + 3) / 4 * 4;  // multiple of the coarse factor
    coarse_ = grid_ / 4;
    const std::size_t ncells = grid_ * grid_ * grid_;
    const std::size_t ncoarse = coarse_ * coarse_ * coarse_;
    footprint_ = ncells * kCellCap * sizeof(Body) + ncells * 4 +
                 ncoarse * sizeof(Moment);
  }

  std::string name() const override { return "Barnes-Spatial"; }

  void setup(dsm::DsmSystem& sys) override {
    const std::size_t ncells = grid_ * grid_ * grid_;
    const std::size_t ncoarse = coarse_ * coarse_ * coarse_;
    cells_ = dsm::SharedArray<Body>(
        nullptr, sys.shared_alloc(ncells * kCellCap * sizeof(Body), 4096),
        ncells * kCellCap);
    counts_ = dsm::SharedArray<std::uint32_t>(
        nullptr, sys.shared_alloc(ncells * 4, 4096), ncells);
    moments_ = dsm::SharedArray<Moment>(
        nullptr, sys.shared_alloc(ncoarse * sizeof(Moment), 4096), ncoarse);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    const std::size_t part_bytes =
        grid_ * grid_ / static_cast<std::size_t>(nodes) * grid_ * kCellCap *
        sizeof(Body);
    return std::max<std::size_t>(1, part_bytes / 4096);
  }

  void init(dsm::Dsm& d) override {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Body> B(&d, cells_.va(), grid_ * grid_ * grid_ * kCellCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    const double per_cell =
        static_cast<double>(bodies_) / static_cast<double>(grid_ * grid_ * grid_);
    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t c = cell_index(x, y, z);
          std::uint64_t s = c * 0x9e3779b97f4a7c15ull + 11;
          auto rnd = [&s] {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            return static_cast<double>((s * 0x2545f4914f6cdd1dull) >> 11) *
                   0x1.0p-53;
          };
          // Centrally-clustered density (galaxy-ish): more bodies near the
          // grid centre.
          const double cx = (static_cast<double>(x) + 0.5) / grid_ - 0.5;
          const double cy = (static_cast<double>(y) + 0.5) / grid_ - 0.5;
          const double cz = (static_cast<double>(z) + 0.5) / grid_ - 0.5;
          const double r = std::sqrt(cx * cx + cy * cy + cz * cz);
          const double density = 0.55 + 1.1 * std::exp(-3.0 * r);
          auto cnt = static_cast<std::uint32_t>(per_cell * density + rnd());
          cnt = std::min<std::uint32_t>(cnt, kCellCap - 4);
          Body* bodies = B.write(c * kCellCap, std::max<std::uint32_t>(cnt, 1));
          for (std::uint32_t i = 0; i < cnt; ++i) {
            bodies[i].pos[0] = (static_cast<double>(x) + rnd()) * kCellW;
            bodies[i].pos[1] = (static_cast<double>(y) + rnd()) * kCellW;
            bodies[i].pos[2] = (static_cast<double>(z) + rnd()) * kCellW;
            for (int k = 0; k < 3; ++k) bodies[i].vel[k] = (rnd() - 0.5) * 0.05;
            bodies[i].mass = 0.5 + rnd();
          }
          C.put(c, cnt);
        }
      }
    }
  }

  void run(dsm::Dsm& d) override {
    for (int step = 0; step < steps_; ++step) {
      compute_moments(d);
      d.barrier();
      forces_and_update(d);
      d.barrier();
      rebin(d);
      d.barrier();
    }
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    const std::size_t ncells = grid_ * grid_ * grid_;
    double com[3] = {0, 0, 0};
    double mass = 0;
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      std::uint32_t cnt = 0;
      read_home_copies(sys, counts_.va(c), sizeof cnt,
                       reinterpret_cast<std::byte*>(&cnt));
      total += cnt;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        Body b;
        read_home_copies(sys, cells_.va(c * kCellCap + i), sizeof b,
                         reinterpret_cast<std::byte*>(&b));
        for (int k = 0; k < 3; ++k) com[k] += b.pos[k] * b.mass;
        mass += b.mass;
      }
    }
    std::uint64_t h = fnv1a(reinterpret_cast<const std::byte*>(&total),
                            sizeof total);
    for (double v : {com[0] / mass, com[1] / mass, com[2] / mass}) {
      const auto q = static_cast<std::int64_t>(std::llround(v * 1000.0));
      h = fnv1a(reinterpret_cast<const std::byte*>(&q), sizeof q, h);
    }
    return h;
  }

 private:
  static constexpr double kCellW = 2.0;

  std::size_t cell_index(std::size_t x, std::size_t y, std::size_t z) const {
    return (z * grid_ + y) * grid_ + x;
  }
  std::size_t coarse_index(std::size_t x, std::size_t y, std::size_t z) const {
    return ((z / 4) * coarse_ + y / 4) * coarse_ + x / 4;
  }

  std::size_t num_rows() const { return grid_ * grid_; }

  /// Expected bodies in row (z,y) from the deterministic init density — the
  /// static cost model for the weighted partition (SPLASH Barnes uses
  /// costzones; a static density-weighted split captures the same idea for
  /// this centrally-clustered distribution).
  double row_weight(std::size_t row) const {
    const std::size_t z = row / grid_, y = row % grid_;
    const double per_cell =
        static_cast<double>(bodies_) / static_cast<double>(grid_ * grid_ * grid_);
    double w = 0;
    for (std::size_t x = 0; x < grid_; ++x) {
      const double cx = (static_cast<double>(x) + 0.5) / grid_ - 0.5;
      const double cy = (static_cast<double>(y) + 0.5) / grid_ - 0.5;
      const double cz = (static_cast<double>(z) + 0.5) / grid_ - 0.5;
      const double r = std::sqrt(cx * cx + cy * cy + cz * cz);
      const double density = 0.55 + 1.1 * std::exp(-3.0 * r);
      w += per_cell * density + 0.5;
    }
    return w;
  }

  std::pair<std::size_t, std::size_t> my_rows(dsm::Dsm& d) {
    const auto n = static_cast<std::size_t>(d.num_nodes());
    if (row_bounds_.size() != n + 1) {
      // Identical deterministic computation on every node.
      std::vector<double> prefix(num_rows() + 1, 0.0);
      for (std::size_t r = 0; r < num_rows(); ++r) {
        prefix[r + 1] = prefix[r] + row_weight(r) * row_weight(r);
      }
      // Weights squared: force cost scales ~quadratically with occupancy.
      row_bounds_.assign(n + 1, 0);
      for (std::size_t k = 1; k < n; ++k) {
        const double target = prefix.back() * static_cast<double>(k) / n;
        row_bounds_[k] = static_cast<std::size_t>(
            std::lower_bound(prefix.begin(), prefix.end(), target) -
            prefix.begin());
        if (row_bounds_[k] > 0) --row_bounds_[k];
        row_bounds_[k] = std::max(row_bounds_[k], row_bounds_[k - 1]);
      }
      row_bounds_[n] = num_rows();
    }
    const auto r = static_cast<std::size_t>(d.rank());
    return {row_bounds_[r], row_bounds_[r + 1]};
  }

  void compute_moments(dsm::Dsm& d) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Body> B(&d, cells_.va(), grid_ * grid_ * grid_ * kCellCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    dsm::SharedArray<Moment> M(&d, moments_.va(), coarse_ * coarse_ * coarse_);

    // Each node owns the coarse blocks whose fine slabs it owns; with the
    // coarse factor 4 a block may span two nodes' slabs, so accumulate
    // per-node partial moments and merge under a lock per coarse cell.
    std::vector<Moment> partial(coarse_ * coarse_ * coarse_, Moment{{0, 0, 0}, 0});
    std::uint64_t bodies_seen = 0;
    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t c = cell_index(x, y, z);
          const std::uint32_t cnt = *C.read(c, 1);
          if (cnt == 0) continue;
          const Body* bodies = B.read(c * kCellCap, cnt);
          Moment& m = partial[coarse_index(x, y, z)];
          for (std::uint32_t i = 0; i < cnt; ++i) {
            for (int k = 0; k < 3; ++k) m.com[k] += bodies[i].pos[k] * bodies[i].mass;
            m.mass += bodies[i].mass;
          }
          bodies_seen += cnt;
        }
      }
    }
    // First arrival zeroes the moment array for this step: do it as a
    // dedicated phase to keep it simple — rank 0 resets, barrier, merge.
    if (d.rank() == 0) {
      Moment* all = M.write(0, coarse_ * coarse_ * coarse_);
      for (std::size_t i = 0; i < coarse_ * coarse_ * coarse_; ++i) {
        all[i] = Moment{{0, 0, 0}, 0};
      }
    }
    d.barrier();
    for (std::size_t i = 0; i < partial.size(); ++i) {
      if (partial[i].mass == 0) continue;
      const int lk = kLockBase + static_cast<int>(i % 512);
      d.lock(lk);
      Moment* m = M.write(i, 1);
      for (int k = 0; k < 3; ++k) m->com[k] += partial[i].com[k];
      m->mass += partial[i].mass;
      d.unlock(lk);
    }
    d.compute_units(static_cast<double>(bodies_seen), kBookNs);
  }

  void forces_and_update(dsm::Dsm& d) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Body> B(&d, cells_.va(), grid_ * grid_ * grid_ * kCellCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    dsm::SharedArray<Moment> M(&d, moments_.va(), coarse_ * coarse_ * coarse_);

    const std::size_t ncoarse = coarse_ * coarse_ * coarse_;
    const Moment* moments = M.read(0, ncoarse);
    struct CellUpdate {
      std::size_t cell;
      std::vector<Body> bodies;
    };
    std::vector<CellUpdate> updates;
    std::uint64_t pairs = 0, monos = 0;

    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t c = cell_index(x, y, z);
          const std::uint32_t cnt = *C.read(c, 1);
          if (cnt == 0) continue;
          const Body* cur = B.read(c * kCellCap, cnt);
          std::vector<Body> mine(cur, cur + cnt);
          double acc[kCellCap][3] = {};

          // Direct pass over the 27-cell neighbourhood (clamped, not
          // periodic — the galaxy has open boundaries).
          for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                const long nx = static_cast<long>(x) + dx;
                const long ny = static_cast<long>(y) + dy;
                const long nz = static_cast<long>(z) + dz;
                if (nx < 0 || ny < 0 || nz < 0 ||
                    nx >= static_cast<long>(grid_) ||
                    ny >= static_cast<long>(grid_) ||
                    nz >= static_cast<long>(grid_)) {
                  continue;
                }
                const std::size_t nc = cell_index(nx, ny, nz);
                const std::uint32_t ncnt = *C.read(nc, 1);
                if (ncnt == 0) continue;
                const Body* other = B.read(nc * kCellCap, ncnt);
                for (std::uint32_t i = 0; i < cnt; ++i) {
                  for (std::uint32_t j = 0; j < ncnt; ++j) {
                    if (nc == c && i == j) continue;
                    double dv[3], r2 = 1e-2;
                    for (int k = 0; k < 3; ++k) {
                      dv[k] = other[j].pos[k] - mine[i].pos[k];
                      r2 += dv[k] * dv[k];
                    }
                    const double inv = 1.0 / std::sqrt(r2);
                    const double f = other[j].mass * inv * inv * inv;
                    for (int k = 0; k < 3; ++k) acc[i][k] += f * dv[k];
                    ++pairs;
                  }
                }
              }
            }
          }

          // Far field: monopoles of every coarse block except our own.
          const std::size_t my_coarse = coarse_index(x, y, z);
          for (std::size_t cb = 0; cb < ncoarse; ++cb) {
            if (cb == my_coarse || moments[cb].mass == 0) continue;
            const double cmx = moments[cb].com[0] / moments[cb].mass;
            const double cmy = moments[cb].com[1] / moments[cb].mass;
            const double cmz = moments[cb].com[2] / moments[cb].mass;
            for (std::uint32_t i = 0; i < cnt; ++i) {
              double dv[3] = {cmx - mine[i].pos[0], cmy - mine[i].pos[1],
                              cmz - mine[i].pos[2]};
              double r2 = 1e-2 + dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2];
              const double inv = 1.0 / std::sqrt(r2);
              const double f = moments[cb].mass * inv * inv * inv;
              for (int k = 0; k < 3; ++k) acc[i][k] += f * dv[k];
              ++monos;
            }
          }

          for (std::uint32_t i = 0; i < cnt; ++i) {
            for (int k = 0; k < 3; ++k) {
              mine[i].vel[k] += acc[i][k] * 1e-3;
              mine[i].pos[k] += mine[i].vel[k] * 0.1;
            }
          }
          updates.push_back(CellUpdate{c, std::move(mine)});
        }
      }
    }
    d.compute_units(static_cast<double>(pairs), kPairNs);
    d.compute_units(static_cast<double>(monos), kMonoNs);
    d.barrier();
    for (const CellUpdate& u : updates) {
      Body* out = B.write(u.cell * kCellCap, u.bodies.size());
      std::copy(u.bodies.begin(), u.bodies.end(), out);
    }
  }

  void rebin(dsm::Dsm& d) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Body> B(&d, cells_.va(), grid_ * grid_ * grid_ * kCellCap);
    dsm::SharedArray<std::uint32_t> C(&d, counts_.va(), grid_ * grid_ * grid_);
    const double span = kCellW * static_cast<double>(grid_);

    struct Mover {
      Body body;
      std::size_t dst;
    };
    std::vector<Mover> movers;
    for (std::size_t row = r0; row < r1; ++row) {
      const std::size_t z = row / grid_, y = row % grid_;
      {
        for (std::size_t x = 0; x < grid_; ++x) {
          const std::size_t c = cell_index(x, y, z);
          std::uint32_t cnt = *C.read(c, 1);
          if (cnt == 0) continue;
          Body* mine = B.write(c * kCellCap, kCellCap);
          for (std::uint32_t i = 0; i < cnt;) {
            Body& b = mine[i];
            // Reflect at the open boundary.
            for (int k = 0; k < 3; ++k) {
              if (b.pos[k] < 0) {
                b.pos[k] = -b.pos[k];
                b.vel[k] = -b.vel[k];
              }
              if (b.pos[k] >= span) {
                b.pos[k] = 2 * span - b.pos[k] - 1e-9;
                b.vel[k] = -b.vel[k];
              }
            }
            const auto tx = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(b.pos[0] / kCellW));
            const auto ty = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(b.pos[1] / kCellW));
            const auto tz = std::min<std::size_t>(
                grid_ - 1, static_cast<std::size_t>(b.pos[2] / kCellW));
            const std::size_t tc = cell_index(tx, ty, tz);
            if (tc == c) {
              ++i;
              continue;
            }
            movers.push_back(Mover{b, tc});
            mine[i] = mine[cnt - 1];
            --cnt;
          }
          C.put(c, cnt);
        }
      }
    }
    d.compute_units(static_cast<double>((r1 - r0) * grid_), kBookNs);
    d.barrier();
    for (const Mover& mv : movers) {
      const int lk = kLockBase + 600 + static_cast<int>(mv.dst % 512);
      d.lock(lk);
      const std::uint32_t tcnt = *C.read(mv.dst, 1);
      if (tcnt < kCellCap) {
        *B.write(mv.dst * kCellCap + tcnt, 1) = mv.body;
        C.put(mv.dst, tcnt + 1);
      }
      d.unlock(lk);
    }
    d.compute_units(static_cast<double>(movers.size() * 4 + 1), kBookNs);
  }

  std::size_t bodies_ = 0, grid_ = 0, coarse_ = 0;
  std::vector<std::size_t> row_bounds_;
  int steps_ = 1;
  dsm::SharedArray<Body> cells_;
  dsm::SharedArray<std::uint32_t> counts_;
  dsm::SharedArray<Moment> moments_;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_barnes(const AppParams& p) {
  return std::make_unique<BarnesApp>(p);
}

}  // namespace multiedge::apps
