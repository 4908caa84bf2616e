// pack.hpp — pack (the paper's `restrict`) and combine, plus the segmented
// forms needed when whole segments are filtered.
//
// restrict(V, M) keeps the elements of V at true positions of M;
// combine(M, V, U) is its two-sided inverse:
//     restrict(combine(M,V,U), M) == V
//     restrict(combine(M,V,U), not M) == U
// These two primitives are how rule R2d routes data into the then/else
// branches of a flattened conditional and reassembles the results.
//
// One algorithm per kernel, on both backends: count the mask, then compact
// with no data-dependent branch. The input is cut into the blocks of
// detail::block_count (one on the serial backend, one per thread on the
// OpenMP backend); a first pass counts each block's true lanes, an
// exclusive prefix over the blocks places each block's output, and a
// second pass fills the blocks. pack and pack_indices store every lane at
// a cursor that advances by the mask and stop at the block's last
// survivor. combine advances a cursor into each of V and U and reads
// through the one the mask selects (a pointer select, not a branch); an
// all-true or all-false block of combine is a plain copy.
//
// No rank vector is built, but the kernels charge the records of the
// compositions they stand for, in order (n = #M):
//   pack              n (rank scan), n (pass)
//   combine           n (rank scan), the true-count check, n (pass)
//   pack_indices      n (index vector), n (rank scan), n (pass)
//   seg_pack_lengths  the descriptor check (#lengths, #lengths segments),
//                     n (0/1 vector), n and #lengths segments (the sum)
#pragma once

#include "vl/vec.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
Vec<T> pack_impl(const Vec<T>& values, const BoolVec& mask);

template <typename T>
Vec<T> combine_impl(const BoolVec& mask, const Vec<T>& when_true,
                    const Vec<T>& when_false);

}  // namespace detail

/// restrict(V, M): elements of V at the true positions of M, in order.
template <typename T>
Vec<T> pack(const Vec<T>& values, const BoolVec& mask) {
  return detail::pack_impl(values, mask);
}

/// Positions (0-origin) of the true elements of M.
[[nodiscard]] IntVec pack_indices(const BoolVec& mask);

/// combine(M, V, U): interleave V (at true positions) and U (at false
/// positions); requires #M == #V + #U.
template <typename T>
Vec<T> combine(const BoolVec& mask, const Vec<T>& when_true,
               const Vec<T>& when_false) {
  return detail::combine_impl(mask, when_true, when_false);
}

/// Per-segment pack of a descriptor: new segment lengths after packing the
/// value vector with `mask` (the number of survivors in each segment).
[[nodiscard]] IntVec seg_pack_lengths(const IntVec& seg_lengths,
                                      const BoolVec& mask);

/// Concatenate two vectors (used by `combine` on descriptors and by the
/// seq_cons implementation).
template <typename T>
Vec<T> concat(const Vec<T>& a, const Vec<T>& b);

}  // namespace proteus::vl
