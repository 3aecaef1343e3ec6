// Per-node process address space.
//
// MultiEdge's remote operations address "all the virtual address space of a
// process executing on a remote node" (§2.2). Each simulated node owns one
// MemorySpace arena; a virtual address is an offset into it. The protocol
// layer copies received data straight into this space (receive buffers need
// no pre-registration), and applications build their data structures in it.
//
// The space is one private anonymous mapping, so a page costs resident
// memory only once something touches it. reserve() carves out a region and
// commits nothing: its pages fault in on first touch. alloc() reserves and
// then commits, faulting the range in up front (during setup) so a region's
// first writes do not take page faults in the middle of a measured run.
// Every byte reads as zero until it is written (DESIGN.md §11 "Node
// memory").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>

#include <sys/mman.h>
#include <unistd.h>

namespace multiedge::proto {

class MemorySpace {
 public:
  explicit MemorySpace(std::size_t bytes)
      : mem_(map(bytes), Unmap{bytes}), size_(bytes) {}

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
  /// regions from reserve() and alloc() are 64-byte aligned by default).
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

  /// Trivial bump allocator for carving the space into named regions:
  /// advances the break past `bytes` at the next `align` boundary without
  /// faulting anything in. Throws std::length_error when the space is
  /// exhausted.
  std::uint64_t reserve(std::size_t bytes, std::size_t align = 64) {
    const std::uint64_t va = (brk_ + align - 1) / align * align;
    if (va > size_ || bytes > size_ - va) {
      throw std::length_error("MemorySpace: address space exhausted (" +
                              std::to_string(bytes) + " bytes at " +
                              std::to_string(va) + " of " +
                              std::to_string(size_) + ")");
    }
    brk_ = va + bytes;
    return va;
  }

  /// reserve(), then commit() the region.
  std::uint64_t alloc(std::size_t bytes, std::size_t align = 64) {
    const std::uint64_t va = reserve(bytes, align);
    commit(va, bytes);
    return va;
  }

  /// Fault [va, va + bytes) in for writing without changing its contents.
  /// Best effort: where the kernel lacks MADV_POPULATE_WRITE (before Linux
  /// 5.14) the pages fault on first touch instead, with the same contents.
  void commit(std::uint64_t va, std::size_t bytes) {
    assert(va + bytes <= size_);
    if (bytes == 0) return;
    static const auto page_bytes =
        static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto begin = reinterpret_cast<std::uintptr_t>(mem_.get() + va);
    const std::uintptr_t page = begin / page_bytes * page_bytes;
    (void)madvise(reinterpret_cast<void*>(page), begin + bytes - page,
                  MADV_POPULATE_WRITE);
  }

  std::uint64_t bytes_allocated() const { return brk_; }

 private:
  // A private anonymous mapping rather than calloc: below glibc's dynamic
  // mmap threshold (up to 32 MiB) a calloc can come from a reused heap
  // arena, which it zero-fills page by page, committing the whole block.
  static std::byte* map(std::size_t bytes) {
    if (bytes == 0) return nullptr;
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<std::byte*>(p);
  }

  struct Unmap {
    std::size_t bytes;
    void operator()(std::byte* p) const { munmap(p, bytes); }
  };

  std::unique_ptr<std::byte[], Unmap> mem_;
  std::size_t size_;
  std::uint64_t brk_ = 0;
};

}  // namespace multiedge::proto
