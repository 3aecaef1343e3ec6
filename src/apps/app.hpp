// SPLASH-2-style application kernels on the DSM (Table 1 of the paper).
//
// Each application implements real computation over shared memory with the
// same sharing/communication pattern as its SPLASH-2 namesake; problem sizes
// default to scaled-down values (the paper's sizes are accepted through
// AppParams). Modelled compute time is charged through Dsm::compute_units
// with per-kernel cost constants (see each kernel's header comment).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsm/dsm.hpp"

namespace multiedge::apps {

/// Generic problem-size knobs; meaning is per-application.
struct AppParams {
  long n = 0;       // main size (elements / particles / keys / molecules)
  long m = 0;       // secondary size (matrix dim, block size, image dim)
  int steps = 0;    // timesteps / iterations
  /// Route the kernel's all-to-all phases (FFT transposes, Radix
  /// permutations) over the collective communicator (src/coll) instead of
  /// page-fault-driven DSM sharing. Checksums must not change.
  bool use_coll = false;
};

class Application {
 public:
  virtual ~Application() = default;

  virtual std::string name() const = 0;

  /// Shared-region allocations (host side, before DsmSystem::run).
  virtual void setup(dsm::DsmSystem& sys) = 0;

  /// Parallel initialization (unmeasured; runs in every worker).
  virtual void init(dsm::Dsm& d) = 0;

  /// The measured parallel section (runs in every worker).
  virtual void run(dsm::Dsm& d) = 0;

  /// Result digest for cross-configuration validation (host side, after
  /// run; must be independent of the node count).
  virtual std::uint64_t checksum(dsm::DsmSystem& sys) = 0;

  /// Shared-memory footprint in bytes (valid after setup()).
  virtual std::size_t footprint_bytes() const = 0;

  /// Preferred home-distribution block, in pages, for `nodes` nodes.
  virtual std::size_t preferred_home_block_pages(int nodes) const {
    (void)nodes;
    return 1;
  }
};

using AppFactory = std::function<std::unique_ptr<Application>(const AppParams&)>;

/// Registry of the eight Table 1 applications, keyed by paper name.
const std::map<std::string, AppFactory>& app_registry();

std::unique_ptr<Application> make_app(const std::string& name,
                                      const AppParams& params = {});

/// The paper's Table 1 application order.
const std::vector<std::string>& table1_app_names();

/// FNV-1a over a byte range — shared by the kernels' checksums.
std::uint64_t fnv1a(const std::byte* data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// Hash a shared-memory range using each page's authoritative home copy.
/// Valid after a barrier (all diffs flushed home).
std::uint64_t hash_home_copies(dsm::DsmSystem& sys, std::uint64_t va,
                               std::size_t len);

/// Copy a shared-memory range out of the authoritative home copies (handles
/// ranges whose pages live on different homes).
void read_home_copies(dsm::DsmSystem& sys, std::uint64_t va, std::size_t len,
                      std::byte* out);

}  // namespace multiedge::apps
