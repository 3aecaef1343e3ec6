// Radix — SPLASH-2 style parallel radix sort (LSD, 8-bit digits).
//
// Per pass: each node histograms its chunk of the source array, publishes
// the histogram, computes global digit offsets after a barrier, then
// permutes its keys into the destination array. The permutation scatters
// writes across the whole destination — the poor spatial locality and
// page-level false sharing the paper blames for Radix's poor scalability.
// Paper size: 32M integers; scaled default: 2^20.
//
// Compute cost model (anchored to the paper's Table 1: 32M keys sort in
// ~4179 ms sequentially): 10 ns per key per pass for the histogram and
// 22 ns per key per pass for the permutation (random access).
#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr int kRadixBits = 8;
constexpr std::size_t kRadix = 1u << kRadixBits;
constexpr int kPasses = 32 / kRadixBits;
constexpr double kHistNs = 10.0;
constexpr double kPermNs = 22.0;

class RadixApp final : public Application {
 public:
  explicit RadixApp(const AppParams& p) : use_coll_(p.use_coll) {
    const long n = p.n > 0 ? p.n : (1L << 20);
    n_ = std::max<std::size_t>(static_cast<std::size_t>(n), 4096);
    n_ = n_ / 256 * 256;
    footprint_ = 2 * n_ * 4 + 64 * kRadix * 8;
  }

  std::string name() const override { return "Radix"; }

  void setup(dsm::DsmSystem& sys) override {
    src_ = dsm::SharedArray<std::uint32_t>(
        nullptr, sys.shared_alloc(n_ * 4, 4096), n_);
    dst_ = dsm::SharedArray<std::uint32_t>(
        nullptr, sys.shared_alloc(n_ * 4, 4096), n_);
    // Histograms: [node][digit].
    hist_ = dsm::SharedArray<std::uint64_t>(
        nullptr, sys.shared_alloc(64 * kRadix * 8, 4096), 64 * kRadix);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  std::size_t preferred_home_block_pages(int nodes) const override {
    return std::max<std::size_t>(1, n_ * 4 / nodes / 4096);
  }

  void init(dsm::Dsm& d) override {
    auto [k0, k1] = my_range(d);
    dsm::SharedArray<std::uint32_t> S(&d, src_.va(), n_);
    std::uint32_t* keys = S.write(k0, k1 - k0);
    for (std::size_t i = k0; i < k1; ++i) {
      std::uint64_t x = i * 0x9e3779b97f4a7c15ull + 77;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      keys[i - k0] = static_cast<std::uint32_t>(x);
    }
  }

  void run(dsm::Dsm& d) override {
    const int p = d.num_nodes();
    const int me = d.rank();
    std::uint64_t src_va = src_.va();
    std::uint64_t dst_va = dst_.va();

    // Collective path: symmetric (pos, key)-pair exchange buffers. Every
    // destination position receives exactly one key per pass, so both sides
    // are bounded by the largest key chunk.
    std::uint64_t send_va = 0, recv_va = 0;
    if (use_coll_ && d.comm()) {
      const std::size_t chunk_max = n_ - (p - 1) * (n_ / p);
      send_va = d.endpoint().memory().alloc(chunk_max * 8, 64);
      recv_va = d.endpoint().memory().alloc(chunk_max * 8, 64);
    }

    for (int pass = 0; pass < kPasses; ++pass) {
      const int shift = pass * kRadixBits;
      auto [k0, k1] = my_range(d);
      dsm::SharedArray<std::uint32_t> S(&d, src_va, n_);
      dsm::SharedArray<std::uint32_t> D(&d, dst_va, n_);
      dsm::SharedArray<std::uint64_t> H(&d, hist_.va(), 64 * kRadix);

      // Local histogram, published to the shared histogram table.
      std::vector<std::uint64_t> local(kRadix, 0);
      const std::uint32_t* keys = S.read(k0, k1 - k0);
      for (std::size_t i = 0; i < k1 - k0; ++i) {
        ++local[(keys[i] >> shift) & (kRadix - 1)];
      }
      d.compute_units(static_cast<double>(k1 - k0), kHistNs);
      std::uint64_t* mine = H.write(me * kRadix, kRadix);
      std::copy(local.begin(), local.end(), mine);
      d.barrier();

      // Global offsets: keys of digit v from node q start at
      // sum(all digits < v) + sum(digit v of nodes < q).
      const std::uint64_t* all = H.read(0, p * kRadix);
      std::vector<std::uint64_t> offset(kRadix, 0);
      std::uint64_t running = 0;
      for (std::size_t v = 0; v < kRadix; ++v) {
        std::uint64_t before_me = 0, total = 0;
        for (int q = 0; q < p; ++q) {
          if (q < me) before_me += all[q * kRadix + v];
          total += all[q * kRadix + v];
        }
        offset[v] = running + before_me;
        running += total;
      }
      d.compute_units(static_cast<double>(kRadix * p), 3.0);

      // Permutation: scattered remote writes across the destination — or,
      // on the collective path, one all_to_all_v of (position, key) pairs so
      // each node only ever writes its own (locally homed) slice of dst.
      if (send_va) {
        permute_coll(d, D, keys, k1 - k0, shift, offset, send_va, recv_va);
      } else {
        for (std::size_t i = 0; i < k1 - k0; ++i) {
          const std::uint32_t key = keys[i];
          const std::size_t v = (key >> shift) & (kRadix - 1);
          const std::size_t pos = offset[v]++;
          *D.write(pos, 1) = key;
        }
      }
      d.compute_units(static_cast<double>(k1 - k0), kPermNs);
      d.barrier();
      std::swap(src_va, dst_va);
    }
    sorted_va_ = src_va;  // after an even number of passes this is src_
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    return hash_home_copies(sys, sorted_va_, n_ * 4);
  }

 private:
  // Bucket each key's (global position, key) pair by the node whose dst
  // chunk owns the position, exchange the buckets in one all_to_all_v, then
  // scatter only into this node's own dst range.
  void permute_coll(dsm::Dsm& d, dsm::SharedArray<std::uint32_t>& D,
                    const std::uint32_t* keys, std::size_t count, int shift,
                    std::vector<std::uint64_t>& offset, std::uint64_t send_va,
                    std::uint64_t recv_va) {
    const int p = d.num_nodes();
    const int me = d.rank();
    const std::size_t chunk = n_ / p;
    proto::MemorySpace& mem = d.endpoint().memory();

    std::vector<std::vector<std::uint32_t>> bucket(p);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t key = keys[i];
      const std::size_t v = (key >> shift) & (kRadix - 1);
      const std::size_t pos = offset[v]++;
      const int q = std::min<int>(static_cast<int>(pos / chunk), p - 1);
      bucket[q].push_back(static_cast<std::uint32_t>(pos));
      bucket[q].push_back(key);
    }

    std::uint32_t* sb = mem.as<std::uint32_t>(send_va);
    std::vector<std::uint32_t> send_bytes(p, 0);
    std::size_t off = 0;
    for (int q = 0; q < p; ++q) {
      std::copy(bucket[q].begin(), bucket[q].end(), sb + off);
      send_bytes[q] = static_cast<std::uint32_t>(bucket[q].size() * 4);
      off += bucket[q].size();
    }

    const std::vector<std::uint32_t> matrix =
        d.comm()->all_to_all_v(send_va, recv_va, send_bytes);

    const std::uint32_t* rb = mem.as<std::uint32_t>(recv_va);
    std::size_t roff = 0;
    for (int q = 0; q < p; ++q) {
      const std::size_t words = matrix[q * p + me] / 4;
      for (std::size_t w = 0; w < words; w += 2) {
        *D.write(rb[roff + w], 1) = rb[roff + w + 1];
      }
      roff += words;
    }
  }

  std::pair<std::size_t, std::size_t> my_range(dsm::Dsm& d) const {
    const std::size_t chunk = n_ / d.num_nodes();
    const std::size_t k0 = d.rank() * chunk;
    const std::size_t k1 = d.rank() + 1 == d.num_nodes() ? n_ : k0 + chunk;
    return {k0, k1};
  }

  std::size_t n_ = 0;
  bool use_coll_ = false;
  dsm::SharedArray<std::uint32_t> src_, dst_;
  dsm::SharedArray<std::uint64_t> hist_;
  std::uint64_t sorted_va_ = 0;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_radix(const AppParams& p) {
  return std::make_unique<RadixApp>(p);
}

}  // namespace multiedge::apps
