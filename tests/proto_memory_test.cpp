#include "proto/memory.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "resident.hpp"

namespace multiedge::proto {
namespace {

using testing_util::kShadowPerGibKib;
using testing_util::resident_kib;
using testing_util::resident_pages;

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

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

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

// A reserved region costs nothing until commit() faults a range in or a
// write touches a page, and then only that range or page.
TEST(MemorySpace, ReserveCommitsNothingUntilCommitOrFirstWrite) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  MemorySpace mem(256 * kMiB);
  const std::uint64_t va = mem.reserve(64 * kMiB, 4096);
  EXPECT_EQ(mem.bytes_allocated(), va + 64 * kMiB);
  // Checked before any read: a read maps the zero page, which mincore
  // counts as resident.
  EXPECT_EQ(resident_pages(mem.view(va, 64 * kMiB).data(), 64 * kMiB), 0u);
  mem.commit(va + kMiB, kMiB);
  EXPECT_EQ(resident_pages(mem.view(va + kMiB, kMiB).data(), kMiB),
            kMiB / static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
  const std::vector<std::byte> data(64, std::byte{0x7e});
  mem.write(va + 8 * kMiB + 100, data);
  EXPECT_EQ(resident_pages(mem.view(va + 2 * kMiB, 62 * kMiB).data(),
                           62 * kMiB),
            1u);
  EXPECT_TRUE(all_zero(mem, va, 8 * kMiB + 100));
  EXPECT_EQ(std::vector<std::byte>(mem.view(va + 8 * kMiB + 100, 64).begin(),
                                   mem.view(va + 8 * kMiB + 100, 64).end()),
            data);
}

// The bounds hold in every build type, not only where assert() is live, and
// a failed carve leaves the break where it was.
TEST(MemorySpace, ReserveAndAllocThrowWhenExhausted) {
  MemorySpace mem(std::size_t{1} << 20);
  EXPECT_THROW(mem.alloc(std::size_t{2} << 20), std::length_error);
  EXPECT_THROW(mem.reserve(std::size_t{2} << 20), std::length_error);
  EXPECT_EQ(mem.bytes_allocated(), 0u);
  EXPECT_EQ(mem.reserve(1000), 0u);
  // An aligned start past the end, and a size that would wrap the address.
  EXPECT_THROW(mem.reserve(1, std::size_t{2} << 20), std::length_error);
  EXPECT_THROW(mem.alloc(SIZE_MAX - 10), std::length_error);
  EXPECT_EQ(mem.bytes_allocated(), 1000u);
  EXPECT_EQ(mem.alloc((std::size_t{1} << 20) - 1024), 1024u);
  EXPECT_THROW(mem.reserve(1), std::length_error);
  EXPECT_EQ(mem.bytes_allocated(), std::size_t{1} << 20);
}

// write/read/view take VAs from frames, so their bounds hold in every build,
// also a few bytes past a size the mapping's last page still covers, and
// where va + len wraps.
TEST(MemorySpace, WireFacingAccessThrowsOutOfRange) {
  constexpr std::size_t kBytes = 10000;  // not a page multiple
  MemorySpace mem(kBytes);
  std::vector<std::byte> four(4, std::byte{7});
  EXPECT_THROW(mem.write(kBytes - 2, four), std::out_of_range);
  EXPECT_THROW(mem.read(kBytes - 2, four), std::out_of_range);
  EXPECT_THROW(mem.view(kBytes - 2, 4), std::out_of_range);
  EXPECT_THROW(mem.write(kBytes, four), std::out_of_range);
  EXPECT_THROW(mem.write(UINT64_MAX - 1, four), std::out_of_range);
  EXPECT_THROW(mem.read(UINT64_MAX - 1, four), std::out_of_range);
  EXPECT_THROW(mem.view(2, SIZE_MAX), std::out_of_range);
  EXPECT_EQ(*mem.as<std::byte>(kBytes - 2), std::byte{0});  // nothing written

  mem.write(kBytes - 4, four);  // exact fits still work
  std::vector<std::byte> back(4);
  mem.read(kBytes - 4, back);
  EXPECT_EQ(back, four);
  EXPECT_EQ(mem.view(kBytes - 4, 4).size(), 4u);
  EXPECT_TRUE(mem.view(kBytes, 0).empty());
}

// Spaces below glibc's 32 MiB dynamic mmap threshold, built one after
// another as a bench builds cluster after cluster: a heap-backed space
// would be zero-filled from a freed arena, committing all of it.
TEST(MemorySpace, BackToBackSpacesLeaveUntouchedPagesNonResident) {
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  constexpr std::size_t kWritten = std::size_t{8} << 20;
  for (int round = 0; round < 3; ++round) {
    MemorySpace mem(kBytes);
    mem.write(0, std::vector<std::byte>(kWritten, std::byte{1}));
    EXPECT_EQ(resident_pages(mem.view(kWritten, kBytes - kWritten).data(),
                             kBytes - kWritten),
              0u)
        << "round " << round;
  }
}

}  // namespace
}  // namespace multiedge::proto
