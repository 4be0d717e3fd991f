#pragma once

#include <cstddef>
#include <vector>

#include "support/error.hpp"

/// Dense square matrix with row-major storage.
///
/// Used for inter-cluster cost matrices (≤ a few hundred entries); kept
/// deliberately simple — contiguous storage, bounds-checked access, no
/// expression templates.
namespace gridcast {

template <typename T>
class SquareMatrix {
 public:
  SquareMatrix() = default;

  explicit SquareMatrix(std::size_t n, const T& init = T{})
      : n_(n), data_(n * n, init) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  [[nodiscard]] T& at(std::size_t r, std::size_t c) {
    GRIDCAST_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[r * n_ + c];
  }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
    GRIDCAST_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[r * n_ + c];
  }

  T& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  const T& operator()(std::size_t r, std::size_t c) const { return at(r, c); }

  /// Row r as contiguous storage: `row(r)[c]` is `at(r, c)`, and the rows
  /// follow one another, so `row(0)[r * size() + c]` is too.  For inner
  /// loops that would otherwise bounds-check every element.
  [[nodiscard]] const T* row(std::size_t r) const {
    GRIDCAST_ASSERT(r < n_, "matrix row out of range");
    return data_.data() + r * n_;
  }

  /// Fill the whole matrix with a value.
  void fill(const T& v) {
    for (auto& x : data_) x = v;
  }

  /// Resize to n x n and fill with `v`, reusing existing storage (like
  /// `std::vector::assign`) — the building block for per-iteration reuse
  /// of cost matrices without reallocating.
  void assign(std::size_t n, const T& v) {
    n_ = n;
    data_.assign(n * n, v);
  }

  /// Symmetrise by copying the upper triangle onto the lower one.
  void mirror_upper() {
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t c = r + 1; c < n_; ++c) at(c, r) = at(r, c);
  }

  [[nodiscard]] bool operator==(const SquareMatrix&) const = default;

 private:
  std::size_t n_ = 0;
  std::vector<T> data_;
};

}  // namespace gridcast
