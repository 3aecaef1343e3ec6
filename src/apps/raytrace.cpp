// Raytrace — recursive Whitted-style ray tracer over a shared scene.
//
// Like SPLASH-2's raytrace: the scene (spheres + ground plane + lights) is
// shared read-only (fetched once per node), the framebuffer is shared and
// written by whoever renders the tile, and work is distributed dynamically
// through a lock-protected tile counter. Compute-dominant with tiny
// communication: the paper's best-scaling category. Paper scene: "Balls"
// 1Kx1K; scaled default: 256x256 with 64 spheres.
//
// Compute cost model (the paper's Balls scene is far heavier per ray than
// this sphere scene; constants are scaled so rendering cost dominates as it
// did there): 260 ns per ray-object intersection test, 800 ns per shade.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/app.hpp"
#include "dsm/shared_array.hpp"

namespace multiedge::apps {
namespace {

constexpr double kIntersectNs = 260.0;
constexpr double kShadeNs = 800.0;
constexpr int kTile = 16;
constexpr int kMaxDepth = 3;

struct Vec {
  double x = 0, y = 0, z = 0;
  Vec operator+(const Vec& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec operator-(const Vec& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec operator*(double s) const { return {x * s, y * s, z * s}; }
  double dot(const Vec& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec mul(const Vec& o) const { return {x * o.x, y * o.y, z * o.z}; }
  Vec normalized() const {
    const double len = std::sqrt(dot(*this));
    return {x / len, y / len, z / len};
  }
};

struct Sphere {
  Vec center;
  double radius = 1;
  Vec color;
  double reflect = 0;
};

class RaytraceApp final : public Application {
 public:
  explicit RaytraceApp(const AppParams& p) {
    img_ = p.m > 0 ? static_cast<std::size_t>(p.m) : 320;
    img_ = std::max<std::size_t>(img_ / kTile, 2) * kTile;
    nspheres_ = p.n > 0 ? static_cast<std::size_t>(p.n) : 64;
    footprint_ = nspheres_ * sizeof(Sphere) + img_ * img_ * 3 * sizeof(float) + 64;
  }

  std::string name() const override { return "Raytrace"; }

  void setup(dsm::DsmSystem& sys) override {
    scene_ = dsm::SharedArray<Sphere>(
        nullptr, sys.shared_alloc(nspheres_ * sizeof(Sphere), 4096), nspheres_);
    fb_ = dsm::SharedArray<float>(
        nullptr, sys.shared_alloc(img_ * img_ * 3 * sizeof(float), 4096),
        img_ * img_ * 3);
    tile_counter_ = dsm::SharedArray<std::uint64_t>(
        nullptr, sys.shared_alloc(64, 4096), 1);
  }

  std::size_t footprint_bytes() const override { return footprint_; }

  void init(dsm::Dsm& d) override {
    if (d.rank() != 0) return;
    dsm::SharedArray<Sphere> S(&d, scene_.va(), nspheres_);
    Sphere* s = S.write(0, nspheres_);
    for (std::size_t i = 0; i < nspheres_; ++i) {
      std::uint64_t x = i * 0x9e3779b97f4a7c15ull + 3;
      auto rnd = [&x] {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return static_cast<double>((x * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53;
      };
      s[i].center = Vec{rnd() * 16 - 8, rnd() * 4 + 0.5, rnd() * 16 - 8};
      s[i].radius = 0.3 + rnd() * 0.9;
      s[i].color = Vec{0.2 + 0.8 * rnd(), 0.2 + 0.8 * rnd(), 0.2 + 0.8 * rnd()};
      s[i].reflect = rnd() * 0.7;
    }
    dsm::SharedArray<std::uint64_t> T(&d, tile_counter_.va(), 1);
    T.put(0, 0);
  }

  void run(dsm::Dsm& d) override {
    dsm::SharedArray<Sphere> S(&d, scene_.va(), nspheres_);
    dsm::SharedArray<float> F(&d, fb_.va(), img_ * img_ * 3);
    dsm::SharedArray<std::uint64_t> T(&d, tile_counter_.va(), 1);
    const Sphere* scene = S.read(0, nspheres_);

    const std::size_t tiles_per_row = img_ / kTile;
    const std::size_t total_tiles = tiles_per_row * tiles_per_row;
    // Dynamic load balancing via a lock-protected counter (SPLASH raytrace's
    // task queues, centralised) with guided self-scheduling: each claim
    // takes a share of the remaining tiles, so claims are few while the
    // image is large but small at the end for balance.
    for (;;) {
      // Publish finished tiles before contending for the queue lock, so the
      // critical section stays short (the framebuffer is only consumed after
      // the final barrier).
      d.flush();
      d.lock(1);
      const std::uint64_t first = T.get(0);
      std::uint64_t last = first;
      if (first < total_tiles) {
        const std::uint64_t remaining = total_tiles - first;
        const std::uint64_t batch = std::max<std::uint64_t>(
            1, remaining / (2 * static_cast<std::uint64_t>(d.num_nodes())));
        last = std::min<std::uint64_t>(total_tiles, first + batch);
        T.put(0, last);
      }
      d.unlock(1);
      if (first >= total_tiles) break;
      for (std::uint64_t tile = first; tile < last; ++tile) {
      const std::size_t tx = (tile % tiles_per_row) * kTile;
      const std::size_t ty = (tile / tiles_per_row) * kTile;
      std::uint64_t tests = 0, shades = 0;
      float pixels[kTile * kTile * 3];
      for (int py = 0; py < kTile; ++py) {
        for (int px = 0; px < kTile; ++px) {
          const double u = (static_cast<double>(tx + px) / img_ - 0.5) * 2.0;
          const double v = (static_cast<double>(ty + py) / img_ - 0.5) * 2.0;
          const Vec origin{0, 2.5, -14};
          const Vec dir = Vec{u * 1.2, -v * 1.2 + 0.1, 1}.normalized();
          const Vec c = trace(scene, origin, dir, 0, tests, shades);
          float* out = pixels + (py * kTile + px) * 3;
          out[0] = static_cast<float>(std::min(1.0, c.x));
          out[1] = static_cast<float>(std::min(1.0, c.y));
          out[2] = static_cast<float>(std::min(1.0, c.z));
        }
      }
      // Write the tile into the shared framebuffer row by row.
      for (int py = 0; py < kTile; ++py) {
        float* row = F.write(((ty + py) * img_ + tx) * 3, kTile * 3);
        std::memcpy(row, pixels + py * kTile * 3, kTile * 3 * sizeof(float));
      }
      d.compute_units(static_cast<double>(tests), kIntersectNs);
      d.compute_units(static_cast<double>(shades), kShadeNs);
      }
    }
    d.barrier();
  }

  std::uint64_t checksum(dsm::DsmSystem& sys) override {
    return hash_home_copies(sys, fb_.va(0), img_ * img_ * 3 * sizeof(float));
  }

 private:
  bool hit_sphere(const Sphere& s, const Vec& o, const Vec& dir, double& t) const {
    const Vec oc = o - s.center;
    const double b = oc.dot(dir);
    const double c = oc.dot(oc) - s.radius * s.radius;
    const double disc = b * b - c;
    if (disc < 0) return false;
    const double sq = std::sqrt(disc);
    double root = -b - sq;
    if (root < 1e-4) root = -b + sq;
    if (root < 1e-4) return false;
    t = root;
    return true;
  }

  Vec trace(const Sphere* scene, const Vec& o, const Vec& dir, int depth,
            std::uint64_t& tests, std::uint64_t& shades) const {
    double best_t = 1e30;
    int best = -1;
    bool ground = false;
    for (std::size_t i = 0; i < nspheres_; ++i) {
      ++tests;
      double t = 0;
      if (hit_sphere(scene[i], o, dir, t) && t < best_t) {
        best_t = t;
        best = static_cast<int>(i);
      }
    }
    // Ground plane y = 0.
    if (dir.y < -1e-6) {
      const double t = -o.y / dir.y;
      if (t > 1e-4 && t < best_t) {
        best_t = t;
        ground = true;
      }
    }
    if (best < 0 && !ground) {
      return Vec{0.25, 0.35, 0.55};  // sky
    }
    ++shades;
    const Vec pos = o + dir * best_t;
    Vec normal, base;
    double reflect = 0;
    if (ground) {
      normal = Vec{0, 1, 0};
      const bool check =
          (static_cast<long>(std::floor(pos.x)) + static_cast<long>(std::floor(pos.z))) & 1;
      base = check ? Vec{0.85, 0.85, 0.85} : Vec{0.25, 0.25, 0.25};
      reflect = 0.15;
    } else {
      const Sphere& s = scene[best];
      normal = (pos - s.center).normalized();
      base = s.color;
      reflect = s.reflect;
    }
    const Vec light = Vec{-0.5, 0.8, -0.4}.normalized();
    double diffuse = std::max(0.0, normal.dot(light));
    // Shadow ray.
    for (std::size_t i = 0; i < nspheres_; ++i) {
      ++tests;
      double t = 0;
      if (hit_sphere(scene[i], pos + normal * 1e-4, light, t)) {
        diffuse *= 0.2;
        break;
      }
    }
    Vec color = base * (0.15 + 0.85 * diffuse);
    if (reflect > 0 && depth + 1 < kMaxDepth) {
      const Vec r = (dir - normal * (2.0 * dir.dot(normal))).normalized();
      const Vec rc = trace(scene, pos + normal * 1e-4, r, depth + 1, tests, shades);
      color = color * (1.0 - reflect) + rc * reflect;
    }
    return color;
  }

  std::size_t img_ = 0, nspheres_ = 0;
  dsm::SharedArray<Sphere> scene_;
  dsm::SharedArray<float> fb_;
  dsm::SharedArray<std::uint64_t> tile_counter_;
  std::size_t footprint_ = 0;
};

}  // namespace

std::unique_ptr<Application> make_raytrace(const AppParams& p) {
  return std::make_unique<RaytraceApp>(p);
}

}  // namespace multiedge::apps
