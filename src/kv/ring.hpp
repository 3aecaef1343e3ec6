// Consistent-hash ring for the partitioned key-value store (src/kv).
//
// Keys hash uniformly onto a fixed number of PARTITIONS; partitions are then
// placed on a 64-bit circle populated by virtual nodes (`vnodes` points per
// server, like the classic DHT construction): each partition is anchored at
// a deterministic point and its replica list is the first R distinct servers
// encountered walking the circle clockwise from the anchor. Keys map to
// partitions by hash (not by arc) so per-partition load stays uniform — the
// record slabs are fixed-size — while the circle decides only which servers
// host each partition. Fixing the partition count (rather than hashing keys
// straight to servers) is what lets every node pre-allocate the partition's
// bucket array and record slab at SYMMETRIC virtual addresses — the property
// the one-sided GET path and the replication writes both rely on (see
// kv.hpp).
//
// The ring itself is static for the lifetime of a cluster; failover never
// reshuffles placement. Instead the PRIMARY of a partition is defined as the
// first replica that the local failure detector considers live, so a backup
// is "promoted" the instant its detector times out the primary — no
// coordination message, the same deterministic rule evaluated everywhere.
//
// The store's hash functions live here too: the key hash, the splitmix64
// finalizer and the record checksum the one-sided GET validates.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace multiedge::kv {

/// FNV-1a 64-bit — the key hash.
inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer — decorrelates derived hash streams.
inline constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {

// XXH64's primes and round function.
inline constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
inline constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
inline constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // no alignment assumption
  return v;
}

inline constexpr std::uint64_t round64(std::uint64_t acc, std::uint64_t in) {
  return std::rotl(acc + in * kP2, 31) * kP1;
}

/// XXH64-style hash of `n` bytes: 32-byte stripes feed four independent
/// 64-bit lanes, the lanes merge, the tail folds 8, 4 and 1 bytes at a time,
/// and an avalanche step finishes. Host-endian loads: the result is only
/// ever compared on the host that computed it.
inline std::uint64_t hash_words(const std::byte* p, std::size_t n,
                                std::uint64_t seed) {
  const std::byte* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    do {
      v1 = round64(v1, load64(p));
      v2 = round64(v2, load64(p + 8));
      v3 = round64(v3, load64(p + 16));
      v4 = round64(v4, load64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    for (std::uint64_t v : {v1, v2, v3, v4}) {
      h = (h ^ round64(0, v)) * kP1 + kP4;
    }
  } else {
    h = seed + kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ round64(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    h = std::rotl(h ^ (w * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (std::to_integer<std::uint64_t>(*p) * kP5), 11) * kP1;
  }
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace detail

/// Checksum of a stored record (kv.cpp's RecordHeader plus its key and
/// value bytes). `seq` and both lengths seed the key hash, which seeds the
/// value hash, so a changed sequence number, a moved key/value boundary or a
/// flipped key or value bit changes the result (except with probability
/// about 2^-64 where a lane merge could cancel). One-sided GETs recompute it
/// to reject a record torn by a concurrent update.
inline std::uint64_t record_checksum(std::uint64_t seq, std::uint32_t key_len,
                                     std::uint32_t val_len,
                                     const std::byte* key,
                                     const std::byte* val) {
  const std::uint64_t seed =
      mix64(seq) ^ (std::uint64_t{key_len} << 32 | val_len);
  return detail::hash_words(val, val_len,
                            detail::hash_words(key, key_len, seed));
}

class Ring {
 public:
  Ring(int num_nodes, int partitions, int replication, int vnodes,
       std::uint64_t seed)
      : num_nodes_(num_nodes),
        partitions_(partitions),
        replication_(std::min(replication, num_nodes)) {
    assert(num_nodes >= 1 && partitions >= 1 && replication >= 1 &&
           vnodes >= 1);
    // Server points on the circle.
    std::vector<std::pair<std::uint64_t, int>> points;
    points.reserve(static_cast<std::size_t>(num_nodes) * vnodes);
    for (int n = 0; n < num_nodes; ++n) {
      for (int v = 0; v < vnodes; ++v) {
        points.emplace_back(
            mix64(seed ^ mix64((static_cast<std::uint64_t>(n) << 20) | v)), n);
      }
    }
    std::sort(points.begin(), points.end());

    // Partition anchors (used only to place replicas on the circle).
    std::vector<std::pair<std::uint64_t, int>> anchors;
    anchors.reserve(partitions);
    for (int p = 0; p < partitions; ++p) {
      anchors.emplace_back(mix64(seed ^ 0xa11ce5ull ^ mix64(p)), p);
    }

    replicas_.assign(partitions, {});
    for (const auto& [anchor, p] : anchors) {
      std::vector<int>& reps = replicas_[p];
      auto it = std::lower_bound(points.begin(), points.end(),
                                 std::make_pair(anchor, 0));
      for (std::size_t step = 0;
           step < points.size() && static_cast<int>(reps.size()) < replication_;
           ++step, ++it) {
        if (it == points.end()) it = points.begin();
        const int node = it->second;
        if (std::find(reps.begin(), reps.end(), node) == reps.end()) {
          reps.push_back(node);
        }
      }
    }
  }

  int num_nodes() const { return num_nodes_; }
  int partitions() const { return partitions_; }
  int replication() const { return replication_; }

  /// Partition owning a key hash. Uniform by construction (decorrelated from
  /// the in-partition bucket hash, which finalizes the raw key hash).
  int partition_of(std::uint64_t key_hash) const {
    return static_cast<int>(mix64(key_hash ^ 0x9a2770c7315ull) %
                            static_cast<std::uint64_t>(partitions_));
  }

  /// Static replica list of a partition (primary candidates, in preference
  /// order). Never changes after construction.
  const std::vector<int>& replicas(int partition) const {
    return replicas_[partition];
  }

  /// Acting primary under a liveness view: the first replica not marked
  /// down. Returns -1 when every replica is down.
  int primary_of(int partition, const std::vector<bool>& down) const {
    for (int r : replicas_[partition]) {
      if (!down[r]) return r;
    }
    return -1;
  }

  bool is_replica(int partition, int node) const {
    const std::vector<int>& reps = replicas_[partition];
    return std::find(reps.begin(), reps.end(), node) != reps.end();
  }

 private:
  int num_nodes_;
  int partitions_;
  int replication_;
  std::vector<std::vector<int>> replicas_;  // [partition]
};

}  // namespace multiedge::kv
