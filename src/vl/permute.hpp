// permute.hpp — data-movement primitives: permute, gather, scatter,
// reverse and rotate.
//
// gather implements seq_index^1 with a *fixed* (depth-0) source — the
// Section 4.5 optimization. Indices follow the language's 1-origin
// convention at the call sites in kernels/; the vl layer is 0-origin like
// CVL.
#pragma once

#include "vl/vec.hpp"

namespace proteus::vl {

namespace detail {

/// gather's index check: index j of a gather from `m` values.
inline void require_gather_index(Int j, Size m) {
  PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                  "gather index " + std::to_string(j) +
                      " out of range for vector of length " +
                      std::to_string(m));
}

template <typename T>
Vec<T> gather_impl(const Vec<T>& values, const IntVec& indices);

template <typename T>
Vec<T> permute_impl(const Vec<T>& values, const IntVec& positions);

template <typename T>
Vec<T> scatter_impl(const Vec<T>& into, const IntVec& positions,
                    const Vec<T>& values);

}  // namespace detail

/// out[i] = values[indices[i]]   (0-origin; a.k.a. back-permute)
template <typename T>
Vec<T> gather(const Vec<T>& values, const IntVec& indices) {
  return detail::gather_impl(values, indices);
}

/// out[positions[i]] = values[i]; `positions` must be a permutation of
/// 0..#values-1 (checked: every output slot written exactly once).
template <typename T>
Vec<T> permute(const Vec<T>& values, const IntVec& positions) {
  return detail::permute_impl(values, positions);
}

/// Copy of `into` with out[positions[i]] = values[i]. Duplicate positions
/// are an error (the vector model has no combining scatter in Table 2).
template <typename T>
Vec<T> scatter(const Vec<T>& into, const IntVec& positions,
               const Vec<T>& values) {
  return detail::scatter_impl(into, positions, values);
}

/// reverse of a vector (a permute with positions n-1-i).
template <typename T>
Vec<T> reverse(const Vec<T>& values);

/// rotate left by k (k may be any integer; result[i] = values[(i+k) mod n]).
template <typename T>
Vec<T> rotate(const Vec<T>& values, Int k);

}  // namespace proteus::vl
