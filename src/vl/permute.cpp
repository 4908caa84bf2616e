#include "vl/permute.hpp"

#include <algorithm>

#include "vl/kernel.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
Vec<T> gather_impl(const Vec<T>& values, const IntVec& indices) {
  const Size n = indices.size();
  const Size m = values.size();
  Vec<T> out(n);
  const T* vp = values.data();
  const Int* ip = indices.data();
  T* op = out.data();
  parallel_for(n, [&](Size i) {
    const Int j = ip[i];
    PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                    "gather index " + std::to_string(j) +
                        " out of range for vector of length " +
                        std::to_string(m));
    op[i] = vp[j];
  });
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> permute_impl(const Vec<T>& values, const IntVec& positions) {
  require_same_length(values, positions, "permute");
  const Size n = values.size();
  Vec<T> out(n);
  Vec<Bool> written(n, Bool{0});
  const T* vp = values.data();
  const Int* pp = positions.data();
  T* op = out.data();
  Bool* wp = written.data();
  parallel_for(n, [&](Size i) {
    const Int j = pp[i];
    PROTEUS_REQUIRE(VectorError, j >= 0 && j < n,
                    "permute position out of range");
    op[j] = vp[i];
    wp[j] = 1;  // each slot is written once iff positions is a permutation
  });
  for (Size i = 0; i < n; ++i) {
    PROTEUS_REQUIRE(VectorError, wp[i] != 0,
                    "permute positions are not a permutation");
  }
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> scatter_impl(const Vec<T>& into, const IntVec& positions,
                    const Vec<T>& values) {
  require_same_length(positions, values, "scatter");
  const Size n = values.size();
  const Size m = into.size();
  Vec<T> out = into;
  Vec<Bool> written(m, Bool{0});
  const T* vp = values.data();
  const Int* pp = positions.data();
  T* op = out.data();
  Bool* wp = written.data();
  for (Size i = 0; i < n; ++i) {  // serial: duplicate detection is ordered
    const Int j = pp[i];
    PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                    "scatter position out of range");
    PROTEUS_REQUIRE(VectorError, wp[j] == 0,
                    "scatter writes position " + std::to_string(j) + " twice");
    op[j] = vp[i];
    wp[j] = 1;
  }
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> gather_segments_impl(const Vec<T>& values, const IntVec& starts,
                            const IntVec& lengths) {
  require_same_length(starts, lengths, "gather_segments");
  const Size n = starts.size();
  const Size m = values.size();
  const Int* sp = starts.data();
  const Int* lp = lengths.data();
  // Serial pass over the n ranges: bounds and output offsets, so the
  // copy below can run each range independently.
  IntVec offsets(n);
  Int* fp = offsets.data();
  Size total = 0;
  for (Size i = 0; i < n; ++i) {
    PROTEUS_REQUIRE(VectorError,
                    sp[i] >= 0 && lp[i] >= 0 && sp[i] <= m - lp[i],
                    "gather_segments: range [" + std::to_string(sp[i]) +
                        ", " + std::to_string(sp[i] + lp[i]) +
                        ") out of range for vector of length " +
                        std::to_string(m));
    fp[i] = total;
    total += lp[i];
  }
  Vec<T> out(total);
  const T* vp = values.data();
  T* op = out.data();
  parallel_for(n, [&](Size i) { std::copy_n(vp + sp[i], lp[i], op + fp[i]); });
  stats().record(total);
  return out;
}

template IntVec gather_impl<Int>(const IntVec&, const IntVec&);
template RealVec gather_impl<Real>(const RealVec&, const IntVec&);
template BoolVec gather_impl<Bool>(const BoolVec&, const IntVec&);
template IntVec permute_impl<Int>(const IntVec&, const IntVec&);
template RealVec permute_impl<Real>(const RealVec&, const IntVec&);
template BoolVec permute_impl<Bool>(const BoolVec&, const IntVec&);
template IntVec scatter_impl<Int>(const IntVec&, const IntVec&, const IntVec&);
template RealVec scatter_impl<Real>(const RealVec&, const IntVec&,
                                    const RealVec&);
template BoolVec scatter_impl<Bool>(const BoolVec&, const IntVec&,
                                    const BoolVec&);
template IntVec gather_segments_impl<Int>(const IntVec&, const IntVec&,
                                          const IntVec&);
template RealVec gather_segments_impl<Real>(const RealVec&, const IntVec&,
                                            const IntVec&);
template BoolVec gather_segments_impl<Bool>(const BoolVec&, const IntVec&,
                                            const IntVec&);

}  // namespace detail

template <typename T>
Vec<T> reverse(const Vec<T>& values) {
  const Size n = values.size();
  Vec<T> out(n);
  const T* vp = values.data();
  T* op = out.data();
  detail::parallel_for(n, [&](Size i) { op[i] = vp[n - 1 - i]; });
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> rotate(const Vec<T>& values, Int k) {
  const Size n = values.size();
  Vec<T> out(n);
  if (n == 0) return out;
  const T* vp = values.data();
  T* op = out.data();
  const Int shift = ((k % n) + n) % n;
  detail::parallel_for(n, [&](Size i) { op[i] = vp[(i + shift) % n]; });
  stats().record(n);
  return out;
}

template IntVec reverse<Int>(const IntVec&);
template RealVec reverse<Real>(const RealVec&);
template BoolVec reverse<Bool>(const BoolVec&);
template IntVec rotate<Int>(const IntVec&, Int);
template RealVec rotate<Real>(const RealVec&, Int);
template BoolVec rotate<Bool>(const BoolVec&, Int);

}  // namespace proteus::vl
