// Flat, window-bounded containers for the connection hot path.
//
// The sliding-window protocol guarantees every live sequence number sits in
// a half-open range no wider than the window: senders keep unacked frames in
// [snd_una, snd_una + W), receivers buffer/track seqs in [rcv_nxt,
// rcv_nxt + W). A ring of bit_ceil(W) slots indexed by `seq & mask` is
// therefore a perfect hash for these sets — any two distinct live seqs are
// less than the capacity apart and land in distinct slots. Lookups, inserts
// and erases become O(1) array accesses with zero per-node allocation,
// replacing the std::map/std::set node churn this file's users had before.
// The ring is allocated by the first insert, so a connection that never
// loses or reorders a frame never pays for its loss-path rings (DESIGN.md
// §11 "Connection heap").
//
// FlatMap covers the op-id keyed maps (receive ops, pending reads): those
// are NOT window-bounded, but they are tiny and iterated in ascending key
// order, so a sorted vector beats a red-black tree on every axis here.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace multiedge::proto {

/// Membership set over a window-bounded range of sequence numbers.
class SeqSet {
 public:
  /// Sets the window; the slots are allocated by the first insert().
  void init(std::size_t window) {
    slots_.clear();
    mask_ = std::bit_ceil(window < 1 ? std::size_t{1} : window) - 1;
    size_ = 0;
  }

  bool contains(std::uint64_t seq) const {
    return !slots_.empty() && slots_[seq & mask_] == seq;
  }

  /// Returns true if newly inserted. A stale tag (an erased-by-overwrite
  /// entry from a past window position) occupying the slot is replaced.
  bool insert(std::uint64_t seq) {
    if (slots_.empty()) slots_.assign(mask_ + 1, kNone);
    std::uint64_t& tag = slots_[seq & mask_];
    if (tag == seq) return false;
    if (tag == kNone) ++size_;
    tag = seq;
    return true;
  }

  bool erase(std::uint64_t seq) {
    if (slots_.empty()) return false;
    std::uint64_t& tag = slots_[seq & mask_];
    if (tag != seq) return false;
    tag = kNone;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::vector<std::uint64_t> slots_;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Map over a window-bounded range of sequence numbers. Values of erased
/// slots are reset to a default-constructed T so held resources (frame
/// references) release immediately.
template <typename T>
class SeqMap {
 public:
  /// Sets the window; the slots are allocated by the first emplace().
  void init(std::size_t window) {
    slots_.clear();
    mask_ = std::bit_ceil(window < 1 ? std::size_t{1} : window) - 1;
    size_ = 0;
  }

  bool contains(std::uint64_t seq) const {
    if (slots_.empty()) return false;
    const Slot& s = slots_[seq & mask_];
    return s.live && s.seq == seq;
  }

  T* find(std::uint64_t seq) {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[seq & mask_];
    return (s.live && s.seq == seq) ? &s.val : nullptr;
  }

  /// Insert; the slot must not hold another live seq (the window invariant
  /// makes that impossible for protocol-valid inputs).
  T& emplace(std::uint64_t seq, T val) {
    if (slots_.empty()) slots_.resize(mask_ + 1);
    Slot& s = slots_[seq & mask_];
    assert(!s.live && "seq ring collision: live seqs wider than the window");
    s.live = true;
    s.seq = seq;
    s.val = std::move(val);
    ++size_;
    return s.val;
  }

  bool erase(std::uint64_t seq) {
    if (slots_.empty()) return false;
    Slot& s = slots_[seq & mask_];
    if (!s.live || s.seq != seq) return false;
    s.live = false;
    s.val = T();
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Slot {
    T val{};
    std::uint64_t seq = 0;
    bool live = false;
  };
  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Sorted-vector map keyed by ascending ids (op ids are dense counters, so
/// inserts are usually at the back). Iteration order matches std::map.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;

  V* find(const K& key) {
    auto it = lower_bound(key);
    return (it != v_.end() && it->first == key) ? &it->second : nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Insert-or-return-existing, like std::map::emplace. Returns the value.
  V& emplace(const K& key, V val) {
    auto it = lower_bound(key);
    if (it != v_.end() && it->first == key) return it->second;
    return v_.emplace(it, key, std::move(val))->second;
  }

  /// map[key] = value semantics.
  V& insert_or_assign(const K& key, V val) {
    auto it = lower_bound(key);
    if (it != v_.end() && it->first == key) {
      it->second = std::move(val);
      return it->second;
    }
    return v_.emplace(it, key, std::move(val))->second;
  }

  bool erase(const K& key) {
    auto it = lower_bound(key);
    if (it == v_.end() || it->first != key) return false;
    v_.erase(it);
    return true;
  }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  value_type* begin() { return v_.data(); }
  value_type* end() { return v_.data() + v_.size(); }
  value_type& operator[](std::size_t i) { return v_[i]; }

 private:
  typename std::vector<value_type>::iterator lower_bound(const K& key) {
    auto it = v_.end();
    while (it != v_.begin() && (it - 1)->first >= key) --it;
    return it;
  }

  std::vector<value_type> v_;
};

}  // namespace multiedge::proto
