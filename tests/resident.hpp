// Resident-memory probes for tests that check what a layer commits.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace multiedge::testing_util {

/// This process's resident set now, in KiB (-1 if /proc is unreadable).
inline long resident_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : -1;
}

/// How many of the pages overlapping [p, p + bytes) are resident.
inline std::size_t resident_pages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto end = reinterpret_cast<std::uintptr_t>(p) + bytes;
  std::vector<unsigned char> vec((end - begin + page - 1) / page);
  if (mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()) != 0) {
    return SIZE_MAX;
  }
  std::size_t n = 0;
  for (unsigned char v : vec) n += v & 1;
  return n;
}

// AddressSanitizer commits one shadow byte per 8 bytes of every heap
// allocation.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr long kShadowPerGibKib = (1L << 30) / 8 / 1024;
#else
inline constexpr long kShadowPerGibKib = 0;
#endif

}  // namespace multiedge::testing_util
