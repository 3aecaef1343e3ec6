// LU — SPLASH-2 style blocked dense LU factorization without pivoting.
//
// The n x n matrix is stored block-major (each B x B block contiguous, so a
// block maps to whole pages) with blocks owned round-robin; owners compute
// their blocks, reading the step's diagonal/perimeter blocks remotely, with
// a barrier after each of the three phases per step. Paper size: 8192x8192
// (B=16); scaled default: 1024x1024 with B=32.
//
// Compute cost model: 1.1 ns per floating-point operation (MAC-dominated
// inner loops on the 1.8 GHz Opteron era machine).
#include <algorithm>
#include <cmath>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr double kFlopNs = 1.1;

class LuApp final : public Application {
 public:
  explicit LuApp(const AppParams& p) {
    n_ = p.n > 0 ? static_cast<std::size_t>(p.n) : 1536;
    bs_ = p.m > 0 ? static_cast<std::size_t>(p.m) : 64;
    n_ = std::max<std::size_t>(n_ / bs_, 2) * bs_;  // round to whole blocks
    nb_ = n_ / bs_;
    footprint_ = n_ * n_ * sizeof(double);
  }

  std::string name() const override { return "LU"; }

  void setup(dsm::DsmSystem& sys) override {
    mat_ = dsm::SharedArray<double>(
        nullptr, sys.shared_alloc(n_ * n_ * sizeof(double), 4096), n_ * n_);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    (void)nodes;
    // Home granularity = one B x B block, matching round-robin ownership.
    return std::max<std::size_t>(1, bs_ * bs_ * sizeof(double) / 4096);
  }

  void init(dsm::Dsm& d) override {
    nodes_ = d.num_nodes();
    dsm::SharedArray<double> A(&d, mat_.va(), n_ * n_);
    // Each node initializes the blocks it owns: diagonally dominant matrix.
    for (std::size_t b = 0; b < nb_ * nb_; ++b) {
      if (owner(b / nb_, b % nb_) != d.rank()) continue;
      double* blk = A.write(b * bs_ * bs_, bs_ * bs_);
      const std::size_t bi = b / nb_, bj = b % nb_;
      for (std::size_t i = 0; i < bs_; ++i) {
        for (std::size_t j = 0; j < bs_; ++j) {
          const std::size_t gi = bi * bs_ + i, gj = bj * bs_ + j;
          double v = 0.5 + 0.5 * std::sin(static_cast<double>(gi * 131 + gj * 7));
          if (gi == gj) v += static_cast<double>(n_);
          blk[i * bs_ + j] = v;
        }
      }
    }
  }

  void run(dsm::Dsm& d) override {
    dsm::SharedArray<double> A(&d, mat_.va(), n_ * n_);
    for (std::size_t k = 0; k < nb_; ++k) {
      // Phase 1: factor the diagonal block (its owner only).
      if (owner(k, k) == d.rank()) {
        double* dk = A.write(block_index(k, k), bs_ * bs_);
        factor_diagonal(dk);
        d.compute_units(2.0 / 3.0 * bs_ * bs_ * bs_, kFlopNs);
      }
      d.barrier();

      // Phase 2: perimeter blocks.
      const double* dk = A.read(block_index(k, k), bs_ * bs_);
      for (std::size_t j = k + 1; j < nb_; ++j) {
        if (owner(k, j) == d.rank()) {
          double* bkj = A.write(block_index(k, j), bs_ * bs_);
          solve_lower(dk, bkj);  // A[k][j] = L(k,k)^-1 A[k][j]
          d.compute_units(static_cast<double>(bs_) * bs_ * bs_, kFlopNs);
        }
        if (owner(j, k) == d.rank()) {
          double* bjk = A.write(block_index(j, k), bs_ * bs_);
          solve_upper(dk, bjk);  // A[j][k] = A[j][k] U(k,k)^-1
          d.compute_units(static_cast<double>(bs_) * bs_ * bs_, kFlopNs);
        }
      }
      d.barrier();

      // Phase 3: interior updates A[i][j] -= A[i][k] * A[k][j].
      for (std::size_t i = k + 1; i < nb_; ++i) {
        for (std::size_t j = k + 1; j < nb_; ++j) {
          if (owner(i, j) != d.rank()) continue;
          const double* lik = A.read(block_index(i, k), bs_ * bs_);
          const double* ukj = A.read(block_index(k, j), bs_ * bs_);
          double* aij = A.write(block_index(i, j), bs_ * bs_);
          matmul_sub(lik, ukj, aij);
          d.compute_units(2.0 * bs_ * bs_ * bs_, kFlopNs);
        }
      }
      d.barrier();
    }
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    return hash_home_copies(sys, mat_.va(0), n_ * n_ * sizeof(double));
  }

 private:
  /// Diagonal ("skewed") ownership: block (bi,bj) belongs to (bi+bj) mod p,
  /// which spreads both block rows and block columns over all nodes even
  /// when p divides nb (SPLASH's 2D scatter has the same property). The
  /// storage order is skewed to match, so the DSM's round-robin home
  /// distribution puts every block on its owner — owners write their blocks
  /// locally, with no diff traffic.
  int owner(std::size_t bi, std::size_t bj) const {
    return static_cast<int>((bi + bj) % static_cast<std::size_t>(nodes_));
  }

  std::size_t block_index(std::size_t bi, std::size_t bj) const {
    return (bi * nb_ + (bi + bj) % nb_) * bs_ * bs_;
  }

  void factor_diagonal(double* a) const {
    const std::size_t B = bs_;
    for (std::size_t k = 0; k < B; ++k) {
      const double pivot = a[k * B + k];
      for (std::size_t i = k + 1; i < B; ++i) {
        a[i * B + k] /= pivot;
        const double lik = a[i * B + k];
        for (std::size_t j = k + 1; j < B; ++j) {
          a[i * B + j] -= lik * a[k * B + j];
        }
      }
    }
  }

  void solve_lower(const double* l, double* b) const {
    const std::size_t B = bs_;
    for (std::size_t j = 0; j < B; ++j) {
      for (std::size_t i = 0; i < B; ++i) {
        double v = b[i * B + j];
        for (std::size_t k = 0; k < i; ++k) v -= l[i * B + k] * b[k * B + j];
        b[i * B + j] = v;  // L has unit diagonal
      }
    }
  }

  void solve_upper(const double* u, double* b) const {
    const std::size_t B = bs_;
    for (std::size_t i = 0; i < B; ++i) {
      for (std::size_t j = 0; j < B; ++j) {
        double v = b[i * B + j];
        for (std::size_t k = 0; k < j; ++k) v -= b[i * B + k] * u[k * B + j];
        b[i * B + j] = v / u[j * B + j];
      }
    }
  }

  void matmul_sub(const double* a, const double* b, double* c) const {
    const std::size_t B = bs_;
    for (std::size_t i = 0; i < B; ++i) {
      for (std::size_t k = 0; k < B; ++k) {
        const double aik = a[i * B + k];
        for (std::size_t j = 0; j < B; ++j) {
          c[i * B + j] -= aik * b[k * B + j];
        }
      }
    }
  }

  std::size_t n_ = 0, bs_ = 0, nb_ = 0;
  dsm::SharedArray<double> mat_;
  std::size_t footprint_ = 0;
  int nodes_ = 1;
  friend std::unique_ptr<Application> make_lu(const AppParams&);
};

}  // namespace

std::unique_ptr<Application> make_lu(const AppParams& p) {
  return std::make_unique<LuApp>(p);
}

}  // namespace multiedge::apps
