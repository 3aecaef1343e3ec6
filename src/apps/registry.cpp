#include "apps/app.hpp"

#include <stdexcept>

namespace multiedge::apps {

// Factories defined in the per-application translation units.
std::unique_ptr<Application> make_fft(const AppParams&);
std::unique_ptr<Application> make_lu(const AppParams&);
std::unique_ptr<Application> make_radix(const AppParams&);
std::unique_ptr<Application> make_barnes(const AppParams&);
std::unique_ptr<Application> make_raytrace(const AppParams&);
std::unique_ptr<Application> make_water_nsquared(const AppParams&);
std::unique_ptr<Application> make_water_spatial(const AppParams&);
std::unique_ptr<Application> make_water_spatial_fl(const AppParams&);

const std::map<std::string, AppFactory>& app_registry() {
  static const std::map<std::string, AppFactory> registry = {
      {"Barnes-Spatial", make_barnes},
      {"FFT", make_fft},
      {"LU", make_lu},
      {"Radix", make_radix},
      {"Raytrace", make_raytrace},
      {"Water-Nsquared", make_water_nsquared},
      {"Water-Spatial", make_water_spatial},
      {"Water-SpatialFL", make_water_spatial_fl},
  };
  return registry;
}

const std::vector<std::string>& table1_app_names() {
  static const std::vector<std::string> names = {
      "Barnes-Spatial", "FFT",

      "LU",             "Radix",

      "Raytrace",       "Water-Nsquared",

      "Water-Spatial",  "Water-SpatialFL",
  };
  return names;
}

std::unique_ptr<Application> make_app(const std::string& name,
                                      const AppParams& params) {
  auto it = app_registry().find(name);
  if (it == app_registry().end()) {
    throw std::invalid_argument("unknown application: " + name);
  }
  return it->second(params);
}

std::uint64_t fnv1a(const std::byte* data, std::size_t len, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

void read_home_copies(dsm::DsmSystem& sys, std::uint64_t va, std::size_t len,
                      std::byte* out) {
  const std::size_t page = dsm::kPageBytes;
  const std::uint64_t hi = va + len;
  while (va < hi) {
    const auto pg = static_cast<std::uint32_t>((va - sys.shared_base()) / page);
    const int home = static_cast<int>(
        (pg / sys.config().home_block_pages) %
        static_cast<std::uint32_t>(sys.num_nodes()));
    const std::uint64_t page_end =
        sys.shared_base() + (static_cast<std::uint64_t>(pg) + 1) * page;
    const std::uint64_t chunk = std::min<std::uint64_t>(hi, page_end) - va;
    auto view = sys.cluster().memory(home).view(va, chunk);
    std::copy(view.begin(), view.end(), out);
    out += chunk;
    va += chunk;
  }
}

std::uint64_t hash_home_copies(dsm::DsmSystem& sys, std::uint64_t va,
                               std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::size_t page = dsm::kPageBytes;
  const std::uint64_t hi = va + len;
  while (va < hi) {
    const auto pg =
        static_cast<std::uint32_t>((va - sys.shared_base()) / page);
    const int home = static_cast<int>(
        (pg / sys.config().home_block_pages) %
        static_cast<std::uint32_t>(sys.num_nodes()));
    const std::uint64_t page_end =
        sys.shared_base() + (static_cast<std::uint64_t>(pg) + 1) * page;
    const std::uint64_t chunk = std::min<std::uint64_t>(hi, page_end) - va;
    auto view = sys.cluster().memory(home).view(va, chunk);
    h = fnv1a(view.data(), view.size(), h);
    va += chunk;
  }
  return h;
}

}  // namespace multiedge::apps
