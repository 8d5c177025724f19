// Dense fixed-universe bitset for the dataflow analyses. The liveness and
// availability fixpoints iterate set-algebra (union / intersection /
// difference) over vreg universes of a few hundred elements; a word-packed
// bitset makes each transfer a handful of 64-bit ops instead of a tree walk
// per element, and the `changed` results the bulk operations return are
// exactly what a worklist algorithm needs.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vc {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t universe)
      : size_(universe), words_((universe + 63) / 64, 0) {}

  /// Grows/shrinks the universe; new bits start clear. Shrinking drops any
  /// set bits beyond the new size.
  void resize(std::size_t universe) {
    size_ = universe;
    words_.resize((universe + 63) / 64, 0);
    clear_padding();
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  void set_all() {
    for (auto& w : words_) w = ~std::uint64_t{0};
    clear_padding();
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(popcount(w));
    return n;
  }

  [[nodiscard]] bool any() const {
    for (std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  [[nodiscard]] bool none() const { return !any(); }

  /// this |= other; returns true if any bit changed. Universes must match.
  bool union_with(const DenseBitset& other) {
    assert(size_ == other.size_);
    bool changed = false;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t merged = words_[i] | other.words_[i];
      changed |= merged != words_[i];
      words_[i] = merged;
    }
    return changed;
  }

  /// this &= other; returns true if any bit changed. Universes must match.
  bool intersect_with(const DenseBitset& other) {
    assert(size_ == other.size_);
    bool changed = false;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t merged = words_[i] & other.words_[i];
      changed |= merged != words_[i];
      words_[i] = merged;
    }
    return changed;
  }

  /// this |= a & b. Universes must match.
  void union_with_intersection(const DenseBitset& a, const DenseBitset& b) {
    assert(size_ == a.size_ && size_ == b.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] |= a.words_[i] & b.words_[i];
  }

  /// this &= ~other. Universes must match.
  void subtract(const DenseBitset& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= ~other.words_[i];
  }

  bool operator==(const DenseBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const DenseBitset& other) const { return !(*this == other); }

  /// The lowest set bit, or size() if there is none.
  [[nodiscard]] std::size_t find_first() const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      if (words_[wi] != 0)
        return wi * 64 + static_cast<std::size_t>(countr_zero(words_[wi]));
    return size_;
  }

  /// Calls fn(index) for every set bit, in ascending index order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = countr_zero(w);
        fn(wi * 64 + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  // Keeps bits beyond size_ clear so count()/any()/== stay exact.
  void clear_padding() {
    if (size_ % 64 != 0 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
  }

  static int popcount(std::uint64_t w) { return __builtin_popcountll(w); }
  static int countr_zero(std::uint64_t w) { return __builtin_ctzll(w); }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace vc
