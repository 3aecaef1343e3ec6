// Typed views over DSM shared memory.
//
// Real GeNIMA interposes on loads/stores through page protection; here the
// application kernels declare their access ranges explicitly and then work
// through raw pointers. The page-protocol traffic (faults, fetches, twins,
// diffs) is identical; only the detection mechanism differs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsm/dsm.hpp"

namespace multiedge::dsm {

template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(Dsm* dsm, std::uint64_t base_va, std::size_t count)
      : dsm_(dsm), base_(base_va), count_(count) {}

  /// Allocate a shared array (host-side, before DsmSystem::run).
  static std::uint64_t layout(DsmSystem& sys, std::size_t count,
                              std::size_t align = 64) {
    return sys.shared_alloc(count * sizeof(T), align);
  }

  std::size_t size() const { return count_; }
  std::uint64_t va(std::size_t i = 0) const { return base_ + i * sizeof(T); }

  /// Read access to [first, first+n): fetches pages, returns a raw pointer.
  const T* read(std::size_t first, std::size_t n) {
    dsm_->ensure_read(va(first), n * sizeof(T));
    return dsm_->template ptr<const T>(va(first));
  }

  /// Write access to [first, first+n): fetches + twins, returns a pointer.
  T* write(std::size_t first, std::size_t n) {
    dsm_->ensure_write(va(first), n * sizeof(T));
    return dsm_->template ptr<T>(va(first));
  }

  /// Single-element conveniences (each checks its page's state).
  T get(std::size_t i) { return *read(i, 1); }
  void put(std::size_t i, const T& v) { *write(i, 1) = v; }

 private:
  Dsm* dsm_ = nullptr;
  std::uint64_t base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace multiedge::dsm
