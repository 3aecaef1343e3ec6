#include "proto/memory.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace multiedge::proto {
namespace {

bool all_zero(const MemorySpace& mem, std::uint64_t va, std::size_t len) {
  for (std::byte b : mem.view(va, len)) {
    if (b != std::byte{0}) return false;
  }
  return true;
}

TEST(MemorySpace, ReadsZeroInsideAndOutsideAllocations) {
  MemorySpace mem(std::size_t{1} << 20);
  EXPECT_TRUE(all_zero(mem, 0, mem.size()));
  const std::uint64_t a = mem.alloc(10000);
  const std::uint64_t b = mem.alloc(100, 4096);
  EXPECT_TRUE(all_zero(mem, a, 10000));
  EXPECT_TRUE(all_zero(mem, b, 100));
  EXPECT_TRUE(all_zero(mem, b + 100, mem.size() - b - 100));
}

TEST(MemorySpace, AllocKeepsBytesWrittenBeforeIt) {
  MemorySpace mem(std::size_t{1} << 16);
  const std::uint64_t a = mem.alloc(100);
  const std::vector<std::byte> data(100, std::byte{0x5a});
  mem.write(a, data);
  // The next region shares a page with `a`; faulting it in must not touch
  // `a`'s bytes, nor bytes written past the break ahead of any alloc().
  mem.write(8192, data);
  const std::uint64_t b = mem.alloc(20000);
  EXPECT_EQ(std::vector<std::byte>(mem.view(a, 100).begin(),
                                   mem.view(a, 100).end()),
            data);
  EXPECT_EQ(std::vector<std::byte>(mem.view(8192, 100).begin(),
                                   mem.view(8192, 100).end()),
            data);
  EXPECT_TRUE(all_zero(mem, b, 8192 - b));
}

TEST(MemorySpace, SizeAndBytesAllocated) {
  MemorySpace mem(std::size_t{1} << 20);
  EXPECT_EQ(mem.size(), std::size_t{1} << 20);
  EXPECT_EQ(mem.bytes_allocated(), 0u);
  EXPECT_EQ(mem.alloc(10), 0u);
  EXPECT_EQ(mem.bytes_allocated(), 10u);
  EXPECT_EQ(mem.alloc(10), 64u);  // 64-byte aligned by default
  EXPECT_EQ(mem.bytes_allocated(), 74u);
  EXPECT_EQ(mem.alloc(1, 4096), 4096u);
  EXPECT_EQ(mem.bytes_allocated(), 4097u);
  EXPECT_EQ(mem.size(), std::size_t{1} << 20);
}

long resident_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : -1;
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

// AddressSanitizer commits one shadow byte per 8 bytes of every allocation.
#if defined(__SANITIZE_ADDRESS__)
constexpr long kShadowPerGibKib = (1L << 30) / 8 / 1024;
#else
constexpr long kShadowPerGibKib = 0;
#endif

TEST(MemorySpace, UntouchedPagesCostNoResidentMemory) {
  const long before = peak_rss_kib();
  MemorySpace mem(std::size_t{1} << 30);
  const std::uint64_t va = mem.alloc(std::size_t{1} << 20);
  mem.write(va, std::vector<std::byte>(std::size_t{1} << 20, std::byte{1}));
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024 + kShadowPerGibKib);
}

TEST(MemorySpace, AllocFaultsItsRangeIn) {
  MemorySpace mem(std::size_t{1} << 30);
  const long before = resident_kib();
  ASSERT_GE(before, 0);
  const std::uint64_t va = mem.alloc(std::size_t{64} << 20);
  EXPECT_GE(resident_kib() - before, 60L * 1024);
  EXPECT_TRUE(all_zero(mem, va, std::size_t{64} << 20));
}

}  // namespace
}  // namespace multiedge::proto
