// scan.hpp — scan (parallel-prefix) primitives and their segmented forms.
//
// Scans are the workhorse of the vector model: the flattening translation
// compiles iterator bookkeeping (positions within frames, filter offsets,
// divide-and-conquer splits) into +-scans over flat vectors. The segmented
// variants restart the scan at every segment boundary given by a
// descriptor (segment-length) vector, which is exactly how one vector
// primitive performs "one scan per subsequence" for nested sequences.
//
// The OpenMP realization is the standard blocked two-pass algorithm:
// per-block serial scan, serial scan of block sums, then a parallel fixup.
#pragma once

#include <limits>

#include "vl/elementwise.hpp"
#include "vl/kernel.hpp"
#include "vl/vec.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
struct AddOp {
  static constexpr T identity() { return T{0}; }
  static T combine(T a, T b) { return add_wrap(a, b); }
};

template <typename T>
struct MaxOp {
  static constexpr T identity() { return std::numeric_limits<T>::lowest(); }
  static T combine(T a, T b) { return a < b ? b : a; }
};

template <typename T>
struct MinOp {
  static constexpr T identity() { return std::numeric_limits<T>::max(); }
  static T combine(T a, T b) { return b < a ? b : a; }
};

struct OrOp {
  static constexpr Bool identity() { return 0; }
  static Bool combine(Bool a, Bool b) { return Bool((a || b) ? 1 : 0); }
};

struct AndOp {
  static constexpr Bool identity() { return 1; }
  static Bool combine(Bool a, Bool b) { return Bool((a && b) ? 1 : 0); }
};

/// Exclusive scan: out[i] = op(identity, in[0..i)). Returns the total
/// reduction through `total` so callers get lengths->offsets in one pass.
template <typename T, typename Op>
Vec<T> scan_exclusive_impl(const Vec<T>& in, T* total);

/// Inclusive scan: out[i] = op(in[0..i]).
template <typename T, typename Op>
Vec<T> scan_inclusive_impl(const Vec<T>& in);

/// Segmented exclusive scan with segments given by a length vector.
template <typename T, typename Op>
Vec<T> seg_scan_exclusive_impl(const Vec<T>& in, const IntVec& seg_lengths);

/// Segmented inclusive scan with segments given by a length vector.
template <typename T, typename Op>
Vec<T> seg_scan_inclusive_impl(const Vec<T>& in, const IntVec& seg_lengths);

void require_segments_cover(Size values, const IntVec& seg_lengths,
                            const char* op);

}  // namespace detail

// --- unsegmented -------------------------------------------------------------

template <typename T>
Vec<T> scan_add(const Vec<T>& v) {
  return detail::scan_exclusive_impl<T, detail::AddOp<T>>(v, nullptr);
}
template <typename T>
Vec<T> scan_add_inclusive(const Vec<T>& v) {
  return detail::scan_inclusive_impl<T, detail::AddOp<T>>(v);
}

template <typename T>
Vec<T> scan_max(const Vec<T>& v) {
  return detail::scan_exclusive_impl<T, detail::MaxOp<T>>(v, nullptr);
}
template <typename T>
Vec<T> scan_max_inclusive(const Vec<T>& v) {
  return detail::scan_inclusive_impl<T, detail::MaxOp<T>>(v);
}

template <typename T>
Vec<T> scan_min(const Vec<T>& v) {
  return detail::scan_exclusive_impl<T, detail::MinOp<T>>(v, nullptr);
}
template <typename T>
Vec<T> scan_min_inclusive(const Vec<T>& v) {
  return detail::scan_inclusive_impl<T, detail::MinOp<T>>(v);
}

BoolVec scan_or(const BoolVec& v);
BoolVec scan_or_inclusive(const BoolVec& v);
BoolVec scan_and(const BoolVec& v);
BoolVec scan_and_inclusive(const BoolVec& v);

/// Exclusive +-scan that also reports the grand total (lengths->offsets).
template <typename T>
Vec<T> scan_add_total(const Vec<T>& v, T& total) {
  return detail::scan_exclusive_impl<T, detail::AddOp<T>>(v, &total);
}

// --- segmented ---------------------------------------------------------------

template <typename T>
Vec<T> seg_scan_add(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_exclusive_impl<T, detail::AddOp<T>>(v, seg_lengths);
}
template <typename T>
Vec<T> seg_scan_add_inclusive(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_inclusive_impl<T, detail::AddOp<T>>(v, seg_lengths);
}

template <typename T>
Vec<T> seg_scan_max(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_exclusive_impl<T, detail::MaxOp<T>>(v, seg_lengths);
}
template <typename T>
Vec<T> seg_scan_max_inclusive(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_inclusive_impl<T, detail::MaxOp<T>>(v, seg_lengths);
}

template <typename T>
Vec<T> seg_scan_min(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_exclusive_impl<T, detail::MinOp<T>>(v, seg_lengths);
}
template <typename T>
Vec<T> seg_scan_min_inclusive(const Vec<T>& v, const IntVec& seg_lengths) {
  return detail::seg_scan_inclusive_impl<T, detail::MinOp<T>>(v, seg_lengths);
}

BoolVec seg_scan_or(const BoolVec& v, const IntVec& seg_lengths);
BoolVec seg_scan_and(const BoolVec& v, const IntVec& seg_lengths);

}  // namespace proteus::vl
