// FFT — SPLASH-2 style six-step 1D complex FFT.
//
// n = m*m complex points viewed as an m x m matrix with rows block-
// distributed over nodes. Steps: transpose, per-row m-point FFTs, twiddle
// multiply, transpose, per-row FFTs, transpose. The transposes are all-to-all
// exchanges — the bursty traffic the paper highlights for FFT. Paper size:
// 2^22 points (m=2048); scaled default: 2^18 (m=512).
//
// Compute cost model (anchored so the paper's 2^22-point problem takes its
// Table 1 sequential time of ~4752 ms on the 1.8 GHz Opteron): 100 ns per
// butterfly, 30 ns per transposed element, 120 ns per twiddle multiply.
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

using Cplx = std::complex<double>;

constexpr double kButterflyNs = 100.0;
constexpr double kTransposeNs = 30.0;
constexpr double kTwiddleNs = 120.0;

// Iterative in-place radix-2 FFT of length len (len = power of two).
void fft_row(Cplx* a, std::size_t len, const std::vector<Cplx>& roots) {
  // Bit reversal.
  for (std::size_t i = 1, j = 0; i < len; ++i) {
    std::size_t bit = len >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t half = 1; half < len; half <<= 1) {
    const std::size_t step = len / (2 * half);
    for (std::size_t i = 0; i < len; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const Cplx w = roots[k * step];
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + half] * w;
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
}

class FftApp final : public Application {
 public:
  explicit FftApp(const AppParams& p) : use_coll_(p.use_coll) {
    const long n = p.n > 0 ? p.n : (1L << 18);
    m_ = 1;
    while (static_cast<long>(m_) * static_cast<long>(m_) * 4 <= n) m_ *= 2;
    m_ = std::max<std::size_t>(m_ * 2, 8);  // m*m ~ n, m power of two
    footprint_ = 2 * bytes();
  }

  std::string name() const override { return "FFT"; }

  void setup(dsm::DsmSystem& sys) override {
    a_ = dsm::SharedArray<Cplx>(nullptr, sys.shared_alloc(bytes(), 4096),
                                m_ * m_);
    b_ = dsm::SharedArray<Cplx>(nullptr, sys.shared_alloc(bytes(), 4096),
                                m_ * m_);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    // One node's row chunk is contiguous; home whole chunks.
    return std::max<std::size_t>(1, m_ / nodes * m_ * sizeof(Cplx) / 4096);
  }

  void init(dsm::Dsm& d) override {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Cplx> A(&d, a_.va(), m_ * m_);
    Cplx* rows = A.write(r0 * m_, (r1 - r0) * m_);
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        // Deterministic pseudo-random input from the flat index.
        std::uint64_t x = (i * m_ + j) * 0x9e3779b97f4a7c15ull + 12345;
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 32;
        const double re = static_cast<double>(x & 0xffff) / 65536.0 - 0.5;
        const double im = static_cast<double>((x >> 16) & 0xffff) / 65536.0 - 0.5;
        rows[(i - r0) * m_ + j] = Cplx(re, im);
      }
    }
    if (roots_.empty()) {
      roots_.resize(m_ / 2);
      for (std::size_t k = 0; k < m_ / 2; ++k) {
        const double ang = -2.0 * std::numbers::pi * k / m_;
        roots_[k] = Cplx(std::cos(ang), std::sin(ang));
      }
    }
  }

  void run(dsm::Dsm& d) override {
    // Opt-in collective path: the three transposes become one all_to_all_v
    // each over symmetric endpoint buffers (allocated identically on every
    // node, so the VAs line up). Sized for the largest row chunk.
    std::uint64_t send_va = 0, recv_va = 0;
    if (use_coll_ && d.comm()) {
      const std::size_t buf = max_rows(d.num_nodes()) * m_ * sizeof(Cplx);
      send_va = d.endpoint().memory().alloc(buf, 64);
      recv_va = d.endpoint().memory().alloc(buf, 64);
    }
    auto xpose = [&](dsm::SharedArray<Cplx>& s, dsm::SharedArray<Cplx>& t) {
      if (send_va) {
        transpose_coll(d, s, t, send_va, recv_va);
      } else {
        transpose(d, s, t);
      }
    };
    xpose(a_, b_);
    d.barrier();
    fft_rows(d, b_);
    d.barrier();
    twiddle(d, b_);
    d.barrier();
    xpose(b_, a_);
    d.barrier();
    fft_rows(d, a_);
    d.barrier();
    xpose(a_, b_);
    d.barrier();
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    // The result lives in b_; hash the authoritative home copies.
    return hash_home_copies(sys, b_.va(0), bytes());
  }

 private:
  std::pair<std::size_t, std::size_t> rows_of(int rank, int nodes) const {
    const std::size_t chunk = m_ / nodes;
    const std::size_t r0 = rank * chunk;
    const std::size_t r1 = rank + 1 == nodes ? m_ : r0 + chunk;
    return {r0, r1};
  }
  std::pair<std::size_t, std::size_t> my_rows(dsm::Dsm& d) const {
    return rows_of(d.rank(), d.num_nodes());
  }
  std::size_t max_rows(int nodes) const {
    return rows_of(nodes - 1, nodes).second - rows_of(nodes - 1, nodes).first;
  }

  std::size_t bytes() const { return m_ * m_ * sizeof(Cplx); }

  void transpose(dsm::Dsm& d, dsm::SharedArray<Cplx>& src,
                 dsm::SharedArray<Cplx>& dst) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Cplx> S(&d, src.va(), m_ * m_);
    dsm::SharedArray<Cplx> D(&d, dst.va(), m_ * m_);
    Cplx* out = D.write(r0 * m_, (r1 - r0) * m_);
    // For each source row, read only this node's column slice. The slices
    // are strided across the whole matrix, so page-granularity sharing still
    // fetches a page per row — the remote-fetch-dominated behaviour the
    // paper reports for FFT (77% of its parallel overhead).
    for (std::size_t j = 0; j < m_; ++j) {
      const Cplx* slice = S.read(j * m_ + r0, r1 - r0);
      for (std::size_t i = r0; i < r1; ++i) {
        out[(i - r0) * m_ + j] = slice[i - r0];
      }
    }
    d.compute_units(static_cast<double>((r1 - r0) * m_), kTransposeNs);
  }

  // Collective transpose: each node reads only its own (local) source rows,
  // packs per-destination column tiles, exchanges them in one all_to_all_v,
  // and writes only its own destination rows — the page-fault-driven remote
  // column fetches become streamed bulk RDMA.
  void transpose_coll(dsm::Dsm& d, dsm::SharedArray<Cplx>& src,
                      dsm::SharedArray<Cplx>& dst, std::uint64_t send_va,
                      std::uint64_t recv_va) {
    const int p = d.num_nodes();
    const int me = d.rank();
    auto [r0, r1] = my_rows(d);
    const std::size_t nr = r1 - r0;
    dsm::SharedArray<Cplx> S(&d, src.va(), m_ * m_);
    dsm::SharedArray<Cplx> D(&d, dst.va(), m_ * m_);
    proto::MemorySpace& mem = d.endpoint().memory();

    // Pack: tile me->dest holds src[j][i] for j in my rows, i in dest's
    // rows, row-major in (j, i). Source rows are my own chunk — local reads.
    Cplx* sb = mem.as<Cplx>(send_va);
    std::vector<std::uint32_t> send_bytes(p, 0);
    std::size_t off = 0;
    for (int dest = 0; dest < p; ++dest) {
      auto [c0, c1] = rows_of(dest, p);
      const std::size_t nc = c1 - c0;
      for (std::size_t j = r0; j < r1; ++j) {
        const Cplx* slice = S.read(j * m_ + c0, nc);
        std::copy(slice, slice + nc, sb + off + (j - r0) * nc);
      }
      send_bytes[dest] = static_cast<std::uint32_t>(nr * nc * sizeof(Cplx));
      off += nr * nc;
    }

    const std::vector<std::uint32_t> matrix =
        d.comm()->all_to_all_v(send_va, recv_va, send_bytes);

    // Unpack: block from s holds src[j][i] for j in s's rows, i in my rows;
    // dst[i][j] = src[j][i], and rows [r0, r1) of dst are mine to write.
    Cplx* out = D.write(r0 * m_, nr * m_);
    const Cplx* rb = mem.as<Cplx>(recv_va);
    std::size_t roff = 0;
    for (int s = 0; s < p; ++s) {
      auto [j0, j1] = rows_of(s, p);
      const Cplx* block = rb + roff;
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t i = r0; i < r1; ++i) {
          out[(i - r0) * m_ + j] = block[(j - j0) * nr + (i - r0)];
        }
      }
      roff += matrix[s * p + me] / sizeof(Cplx);
    }
    d.compute_units(static_cast<double>(nr * m_), kTransposeNs);
  }

  void fft_rows(dsm::Dsm& d, dsm::SharedArray<Cplx>& arr) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Cplx> A(&d, arr.va(), m_ * m_);
    Cplx* rows = A.write(r0 * m_, (r1 - r0) * m_);
    for (std::size_t i = r0; i < r1; ++i) fft_row(rows + (i - r0) * m_, m_, roots_);
    const double butterflies = static_cast<double>((r1 - r0)) * m_ / 2.0 *
                               std::log2(static_cast<double>(m_));
    d.compute_units(butterflies, kButterflyNs);
  }

  void twiddle(dsm::Dsm& d, dsm::SharedArray<Cplx>& arr) {
    auto [r0, r1] = my_rows(d);
    dsm::SharedArray<Cplx> A(&d, arr.va(), m_ * m_);
    Cplx* rows = A.write(r0 * m_, (r1 - r0) * m_);
    const double w0 = -2.0 * std::numbers::pi / (static_cast<double>(m_) * m_);
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        const double ang = w0 * static_cast<double>(i) * static_cast<double>(j);
        rows[(i - r0) * m_ + j] *= Cplx(std::cos(ang), std::sin(ang));
      }
    }
    d.compute_units(static_cast<double>((r1 - r0) * m_), kTwiddleNs);
  }

  std::size_t m_ = 0;
  bool use_coll_ = false;
  dsm::SharedArray<Cplx> a_, b_;
  std::vector<Cplx> roots_;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_fft(const AppParams& p) {
  return std::make_unique<FftApp>(p);
}

}  // namespace multiedge::apps
