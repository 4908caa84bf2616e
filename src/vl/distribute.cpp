#include "vl/distribute.hpp"

#include "vl/kernel.hpp"
#include "vl/segdesc.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
Vec<T> dist_impl(T value, Size n) {
  PROTEUS_REQUIRE(VectorError, n >= 0, "dist: negative count");
  Vec<T> out(n);
  T* op = out.data();
  parallel_for(n, [&](Size i) { op[i] = value; });
  stats().record(n);
  stats().record_alloc();
  return out;
}

template <typename T>
Vec<T> seg_dist_impl(const Vec<T>& values, const IntVec& counts) {
  require_same_length(values, counts, "seg_dist");
  const Size total = lengths_total(counts);
  Vec<T> out(total);
  IntVec offsets = lengths_to_offsets(counts);
  const T* vp = values.data();
  const Int* cp = counts.data();
  const Int* op_ = offsets.data();
  T* rp = out.data();
  parallel_for(values.size(), [&](Size s) {
    for (Int k = 0; k < cp[s]; ++k) rp[op_[s] + k] = vp[s];
  });
  stats().record(total);
  return out;
}

template IntVec dist_impl<Int>(Int, Size);
template RealVec dist_impl<Real>(Real, Size);
template BoolVec dist_impl<Bool>(Bool, Size);
template IntVec seg_dist_impl<Int>(const IntVec&, const IntVec&);
template RealVec seg_dist_impl<Real>(const RealVec&, const IntVec&);
template BoolVec seg_dist_impl<Bool>(const BoolVec&, const IntVec&);

}  // namespace detail

IntVec iota(Size n, Int start) {
  PROTEUS_REQUIRE(VectorError, n >= 0, "iota: negative count");
  IntVec out(n);
  Int* op = out.data();
  detail::parallel_for(n, [&](Size i) { op[i] = start + i; });
  stats().record(n);
  return out;
}

IntVec iota1(Int n) { return iota(n < 0 ? 0 : n, 1); }

IntVec seg_iota1(const IntVec& counts) {
  // Clamp negatives to empty segments: [1..n] is empty when n < 1.
  IntVec clamped(counts.size());
  const Int* cp = counts.data();
  Int* kp = clamped.data();
  detail::parallel_for(counts.size(),
                       [&](Size i) { kp[i] = cp[i] < 0 ? 0 : cp[i]; });
  stats().record(counts.size());
  return segment_ranks(clamped);
}

IntVec range(Int lo, Int hi, Int step) {
  PROTEUS_REQUIRE(VectorError, step != 0, "range: zero step");
  Size n = 0;
  if (step > 0 && hi >= lo) {
    n = (hi - lo) / step + 1;
  } else if (step < 0 && hi <= lo) {
    n = (lo - hi) / (-step) + 1;
  }
  IntVec out(n);
  Int* op = out.data();
  detail::parallel_for(n, [&](Size i) { op[i] = lo + i * step; });
  stats().record(n);
  return out;
}

}  // namespace proteus::vl
