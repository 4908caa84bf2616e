// permute.hpp — data-movement primitives: permute, gather, scatter, and
// their segmented forms.
//
// gather implements seq_index^1 with a *fixed* (depth-0) source — the
// Section 4.5 optimization — while seg_gather implements seq_index^1 when
// the source itself varies per element (one source subsequence per
// segment). Indices follow the language's 1-origin convention at the call
// sites in kernels/; the vl layer is 0-origin like CVL.
#pragma once

#include "vl/vec.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
Vec<T> gather_impl(const Vec<T>& values, const IntVec& indices);

template <typename T>
Vec<T> permute_impl(const Vec<T>& values, const IntVec& positions);

template <typename T>
Vec<T> scatter_impl(const Vec<T>& into, const IntVec& positions,
                    const Vec<T>& values);

template <typename T>
Vec<T> seg_gather_impl(const Vec<T>& values, const IntVec& src_offsets,
                       const IntVec& src_lengths, const IntVec& seg_of,
                       const IntVec& local_index);

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

/// Segmented gather: element i reads values[src_offsets[seg_of[i]] +
/// local_index[i]] where local_index is 0-origin within segment
/// seg_of[i] of the source. Bounds are checked against src_lengths.
template <typename T>
Vec<T> seg_gather(const Vec<T>& values, const IntVec& src_offsets,
                  const IntVec& src_lengths, const IntVec& seg_of,
                  const IntVec& local_index) {
  return detail::seg_gather_impl(values, src_offsets, src_lengths, seg_of,
                                 local_index);
}

/// reverse of a vector (a permute with positions n-1-i).
template <typename T>
Vec<T> reverse(const Vec<T>& values);

/// rotate left by k (k may be any integer; result[i] = values[(i+k) mod n]).
template <typename T>
Vec<T> rotate(const Vec<T>& values, Int k);

}  // namespace proteus::vl
