// Per-node process address space.
//
// MultiEdge's remote operations address "all the virtual address space of a
// process executing on a remote node" (§2.2). Each simulated node owns one
// MemorySpace arena; a virtual address is an offset into it. The protocol
// layer copies received data straight into this space (receive buffers need
// no pre-registration), and applications build their data structures in it.
//
// The space is calloc'd, so pages nobody allocated stay the kernel's lazy
// zero pages and cost no resident memory; alloc() faults its range in up
// front (during setup), so a region's first writes do not take page faults
// in the middle of a measured run. Every byte reads as zero until it is
// written.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include <sys/mman.h>
#include <unistd.h>

namespace multiedge::proto {

class MemorySpace {
 public:
  explicit MemorySpace(std::size_t bytes)
      : mem_(static_cast<std::byte*>(std::calloc(bytes, 1))), size_(bytes) {
    if (mem_ == nullptr && bytes > 0) throw std::bad_alloc();
  }

  std::size_t size() const { return size_; }

  void write(std::uint64_t va, std::span<const std::byte> data) {
    assert(va + data.size() <= size_ && "remote write out of bounds");
    std::copy(data.begin(), data.end(), mem_.get() + va);
  }

  void read(std::uint64_t va, std::span<std::byte> out) const {
    assert(va + out.size() <= size_ && "remote read out of bounds");
    std::copy(mem_.get() + va, mem_.get() + va + out.size(), out.begin());
  }

  std::span<const std::byte> view(std::uint64_t va, std::size_t len) const {
    assert(va + len <= size_);
    return {mem_.get() + va, len};
  }

  std::span<std::byte> view_mut(std::uint64_t va, std::size_t len) {
    assert(va + len <= size_);
    return {mem_.get() + va, len};
  }

  /// Typed access for application code (alignment is the caller's business;
  /// allocations from Arena below are 64-byte aligned).
  template <typename T>
  T* as(std::uint64_t va) {
    assert(va + sizeof(T) <= size_);
    return reinterpret_cast<T*>(mem_.get() + va);
  }
  template <typename T>
  const T* as(std::uint64_t va) const {
    assert(va + sizeof(T) <= size_);
    return reinterpret_cast<const T*>(mem_.get() + va);
  }

  /// Trivial bump allocator for carving the space into named regions.
  std::uint64_t alloc(std::size_t bytes, std::size_t align = 64) {
    std::uint64_t va = (brk_ + align - 1) / align * align;
    assert(va + bytes <= size_ && "address space exhausted");
    brk_ = va + bytes;
    commit(va, bytes);
    return va;
  }

  std::uint64_t bytes_allocated() const { return brk_; }

 private:
  /// Fault [va, va + bytes) in for writing without changing its contents.
  /// Best effort: where the kernel lacks MADV_POPULATE_WRITE (before Linux
  /// 5.14) the pages fault on first touch instead, with the same contents.
  void commit(std::uint64_t va, std::size_t bytes) {
    if (bytes == 0) return;
    static const auto page_bytes =
        static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto begin = reinterpret_cast<std::uintptr_t>(mem_.get() + va);
    const std::uintptr_t page = begin / page_bytes * page_bytes;
    (void)madvise(reinterpret_cast<void*>(page), begin + bytes - page,
                  MADV_POPULATE_WRITE);
  }

  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };

  std::unique_ptr<std::byte[], Free> mem_;
  std::size_t size_;
  std::uint64_t brk_ = 0;
};

}  // namespace multiedge::proto
