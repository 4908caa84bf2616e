#include "vl/pack.hpp"

#include <algorithm>
#include <cstdint>

#include "vl/kernel.hpp"
#include "vl/segdesc.hpp"

namespace proteus::vl {

namespace detail {

namespace {

/// True lanes of mask[lo, hi). The compare is the addend: no branch. The
/// lanes are summed in byte counters, 240 at a time (at most 255 fit), so
/// the compiler adds 16 lanes per vector instruction instead of widening
/// each to 64 bits.
Size count_true(const Bool* mp, Size lo, Size hi) {
  constexpr Size kChunk = 240;
  Size c = 0;
  for (Size i = lo; i < hi;) {
    const Size end = std::min(hi, i + kChunk);
    std::uint8_t part = 0;
    for (; i < end; ++i) part = static_cast<std::uint8_t>(part + (mp[i] != 0));
    c += part;
  }
  return c;
}

/// restrict's records and passes, writing value(i) for each true lane i:
/// count the mask, then compact each block by writing every lane at a
/// cursor that advances by the mask. A block's loop ends with its last
/// survivor, so no store lands at or past `stop` (the next block's first
/// slot).
template <typename T, typename Value>
Vec<T> compact(const BoolVec& mask, Value value) {
  const Size n = mask.size();
  const Bool* mp = mask.data();
  Vec<T> out;
  count_then_fill(
      n, block_count(n),
      [&](Size lo, Size hi) { return count_true(mp, lo, hi); },
      [&](Size survivors) {
        stats().record(n);  // the model's rank scan
        out = Vec<T>(survivors);
      },
      [&](Size lo, Size, Size k, Size stop) {
        T* rp = out.data();
        for (Size i = lo; k < stop; ++i) {
          rp[k] = value(i);
          k += mp[i] != 0 ? 1 : 0;
        }
      });
  stats().record(n);  // the model's permute pass
  return out;
}

/// m ? a : b with no branch: the bits of b, with those of a where m (0 or
/// 1) is set. Written as a ternary, GCC compiles the select into a branch.
template <typename T>
const T* select_ptr(Bool m, const T* a, const T* b) {
  const auto ua = reinterpret_cast<std::uintptr_t>(a);
  const auto ub = reinterpret_cast<std::uintptr_t>(b);
  const std::uintptr_t all = std::uintptr_t{0} - m;
  return reinterpret_cast<const T*>(ub ^ ((ua ^ ub) & all));
}

}  // namespace

template <typename T>
Vec<T> pack_impl(const Vec<T>& values, const BoolVec& mask) {
  require_same_length(values, mask, "restrict");
  const T* vp = values.data();
  return compact<T>(mask, [vp](Size i) { return vp[i]; });
}

template <typename T>
Vec<T> combine_impl(const BoolVec& mask, const Vec<T>& when_true,
                    const Vec<T>& when_false) {
  PROTEUS_REQUIRE(VectorError,
                  mask.size() == when_true.size() + when_false.size(),
                  "combine: #M must equal #V + #U");
  const Size n = mask.size();
  const Bool* mp = mask.data();
  const T* tp = when_true.data();
  const T* fp = when_false.data();
  Vec<T> out;
  count_then_fill(
      n, block_count(n),
      [&](Size lo, Size hi) { return count_true(mp, lo, hi); },
      [&](Size survivors) {
        stats().record(n);  // the model's rank scan
        PROTEUS_REQUIRE(VectorError, survivors == when_true.size(),
                        "combine: mask true-count does not match #V");
        out = Vec<T>(n);
      },
      [&](Size lo, Size hi, Size t, Size t_stop) {
        // Output lane i takes the t-th true element or the (i - t)-th
        // false one, t being the true lanes before i.
        T* rp = out.data();
        if (t_stop - t == hi - lo) {
          std::copy(tp + t, tp + t_stop, rp + lo);
        } else if (t_stop == t) {
          std::copy(fp + (lo - t), fp + (hi - t), rp + lo);
        } else {
          // Both cursors advance on every lane; the mask selects which one
          // is read, and only that one is dereferenced.
          for (Size i = lo; i < hi; ++i) {
            const Bool m = static_cast<Bool>(mp[i] != 0);
            rp[i] = *select_ptr(m, tp + t, fp + (i - t));
            t += m;
          }
        }
      });
  stats().record(n);  // the model's select pass
  return out;
}

template IntVec pack_impl<Int>(const IntVec&, const BoolVec&);
template RealVec pack_impl<Real>(const RealVec&, const BoolVec&);
template BoolVec pack_impl<Bool>(const BoolVec&, const BoolVec&);
template IntVec combine_impl<Int>(const BoolVec&, const IntVec&,
                                  const IntVec&);
template RealVec combine_impl<Real>(const BoolVec&, const RealVec&,
                                    const RealVec&);
template BoolVec combine_impl<Bool>(const BoolVec&, const BoolVec&,
                                    const BoolVec&);

}  // namespace detail

IntVec pack_indices(const BoolVec& mask) {
  stats().record(mask.size());  // the model's index vector
  return detail::compact<Int>(mask, [](Size i) { return Int{i}; });
}

IntVec seg_pack_lengths(const IntVec& seg_lengths, const BoolVec& mask) {
  require_descriptor(seg_lengths, mask.size(), "seg_pack_lengths");
  const Size nseg = seg_lengths.size();
  const Int* lp = seg_lengths.data();
  const Bool* mp = mask.data();
  IntVec out(nseg);
  Int* op = out.data();
  // Blocks of segments: each block's share is the mask lanes its segments
  // cover, so the prefix over the blocks is where each block's lanes start.
  detail::count_then_fill(
      nseg, detail::block_count(mask.size()),
      [&](Size lo, Size hi) {
        Size lanes = 0;
        for (Size s = lo; s < hi; ++s) lanes += lp[s];
        return lanes;
      },
      [&](Size) { stats().record(mask.size()); },  // the model's 0/1 vector
      [&](Size lo, Size hi, Size at, Size) {
        for (Size s = lo; s < hi; ++s) {
          op[s] = detail::count_true(mp, at, at + lp[s]);
          at += lp[s];
        }
      });
  stats().record(mask.size());  // the model's segmented sum
  stats().record_segments(nseg);
  return out;
}

template <typename T>
Vec<T> concat(const Vec<T>& a, const Vec<T>& b) {
  Vec<T> out(a.size() + b.size());
  const T* ap = a.data();
  const T* bp = b.data();
  T* op = out.data();
  detail::parallel_for(a.size(), [&](Size i) { op[i] = ap[i]; });
  detail::parallel_for(b.size(), [&](Size i) { op[a.size() + i] = bp[i]; });
  stats().record(out.size());
  return out;
}

template IntVec concat<Int>(const IntVec&, const IntVec&);
template RealVec concat<Real>(const RealVec&, const RealVec&);
template BoolVec concat<Bool>(const BoolVec&, const BoolVec&);

}  // namespace proteus::vl
