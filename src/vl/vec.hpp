// vec.hpp — the flat vector type of the vector model V.
//
// A Vec<T> is the only aggregate the vector model knows about: a dense,
// contiguous, one-dimensional array of scalars. Every primitive of the
// library (elementwise maps, scans, reductions, permutations, packs,
// distributes and their segmented variants) consumes and produces Vec<T>.
// Nested sequences of the source language P are *represented* as stacks of
// these flat vectors (see seq/nested.hpp), never as pointer structures.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "rt/governor.hpp"
#include "vl/check.hpp"

namespace proteus::vl {

/// Scalar carrier types of the vector model. `Bool` is a byte, as in CVL,
/// so boolean vectors support the same kernels as integer vectors.
using Int = std::int64_t;
using Real = double;
using Bool = std::uint8_t;

/// Index type used for lengths and positions. Signed (per the C++ Core
/// Guidelines arithmetic rules) so length arithmetic cannot wrap silently.
using Size = std::int64_t;

/// Dense one-dimensional vector of scalars; the sole aggregate of V.
///
/// Vec is a regular value type: copyable, movable, equality-comparable.
/// Element access through operator[] is bounds-checked (loud failure is
/// preferred over silent corruption in a research artifact); kernels that
/// have already validated their inputs iterate over data() spans instead.
///
/// Vec is also the governor's allocation charge point: construction,
/// resize, and reserve charge the buffer's capacity bytes against the
/// rt:: resident-byte budget (and the injected-allocation fault plan);
/// destruction releases them. A throwing charge leaves the Vec
/// unconstructed with the accounting rolled back, so a T001/T006 trap
/// cannot leak or double-count. push_back growth is deliberately not
/// re-charged (it is the one hot mutation path; kernels size their
/// outputs up front via the charged constructors/reserve).
template <typename T>
class Vec {
 public:
  using value_type = T;

  Vec() = default;

  /// Construction of `n` zero elements.
  explicit Vec(Size n) : data_(check_size(n)) { charge(); }

  Vec(Size n, T fill) : data_(check_size(n), fill) { charge(); }

  Vec(std::initializer_list<T> init) : data_(init) { charge(); }

  explicit Vec(std::vector<T> v) : data_(std::move(v)) { charge(); }

  template <typename It>
  Vec(It first, It last) : data_(first, last) { charge(); }

  Vec(const Vec& other) : data_(other.data_) { charge(); }

  Vec(Vec&& other) noexcept
      : data_(std::move(other.data_)),
        charged_(std::exchange(other.charged_, 0)) {}

  Vec& operator=(const Vec& other) {
    if (this != &other) {
      Vec copy(other);  // charge first: a trap leaves *this untouched
      swap(copy);
    }
    return *this;
  }

  Vec& operator=(Vec&& other) noexcept {
    if (this != &other) {
      rt::release_bytes(charged_);
      data_ = std::move(other.data_);
      charged_ = std::exchange(other.charged_, 0);
    }
    return *this;
  }

  ~Vec() { rt::release_bytes(charged_); }

  void swap(Vec& other) noexcept {
    data_.swap(other.data_);
    std::swap(charged_, other.charged_);
  }

  [[nodiscard]] Size size() const { return static_cast<Size>(data_.size()); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T operator[](Size i) const {
    PROTEUS_REQUIRE(VectorError, i >= 0 && i < size(),
                    "vector index out of range");
    return data_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] T& operator[](Size i) {
    PROTEUS_REQUIRE(VectorError, i >= 0 && i < size(),
                    "vector index out of range");
    return data_[static_cast<std::size_t>(i)];
  }

  /// Unchecked access for validated kernels.
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] T* data() { return data_.data(); }

  [[nodiscard]] std::span<const T> span() const { return {data_}; }
  [[nodiscard]] std::span<T> span() { return {data_}; }

  [[nodiscard]] auto begin() const { return data_.begin(); }
  [[nodiscard]] auto end() const { return data_.end(); }
  [[nodiscard]] auto begin() { return data_.begin(); }
  [[nodiscard]] auto end() { return data_.end(); }

  void push_back(T v) { data_.push_back(v); }
  void reserve(Size n) {
    data_.reserve(check_size(n));
    recharge();
  }
  void resize(Size n) {
    data_.resize(check_size(n));
    recharge();
  }

  [[nodiscard]] const std::vector<T>& raw() const { return data_; }

  /// Equality is over the elements only — the governor's charge tally is
  /// bookkeeping, not value.
  friend bool operator==(const Vec& a, const Vec& b) {
    return a.data_ == b.data_;
  }

 private:
  static std::size_t check_size(Size n) {
    PROTEUS_REQUIRE(VectorError, n >= 0, "vector size must be non-negative");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return static_cast<std::uint64_t>(data_.capacity()) * sizeof(T);
  }

  /// First charge after construction. On a trap, charged_ stays 0 and the
  /// slow path already rolled the accounting back; the unwind frees data_.
  void charge() {
    const std::uint64_t bytes = capacity_bytes();
    if (bytes == 0) return;
    rt::charge_bytes(bytes);
    charged_ = bytes;
  }

  /// Re-sync the charge after a capacity change. A trap on growth leaves
  /// charged_ at the old (still-released-by-the-destructor) tally.
  void recharge() {
    const std::uint64_t bytes = capacity_bytes();
    if (bytes > charged_) {
      rt::charge_bytes(bytes - charged_);
      charged_ = bytes;
    } else if (bytes < charged_) {
      rt::release_bytes(charged_ - bytes);
      charged_ = bytes;
    }
  }

  std::vector<T> data_;
  std::uint64_t charged_ = 0;
};

using IntVec = Vec<Int>;
using RealVec = Vec<Real>;
using BoolVec = Vec<Bool>;

template <typename T>
std::ostream& operator<<(std::ostream& os, const Vec<T>& v) {
  os << '[';
  for (Size i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    if constexpr (std::is_same_v<T, Bool>) {
      os << (v[i] ? 'T' : 'F');
    } else {
      os << v[i];
    }
  }
  return os << ']';
}

/// Require two vectors to be elementwise conformable (equal length).
template <typename T, typename U>
void require_same_length(const Vec<T>& a, const Vec<U>& b, const char* op) {
  PROTEUS_REQUIRE(VectorError, a.size() == b.size(),
                  std::string(op) + ": operand lengths differ (" +
                      std::to_string(a.size()) + " vs " +
                      std::to_string(b.size()) + ")");
}

}  // namespace proteus::vl
