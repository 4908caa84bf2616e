#include "vl/scan.hpp"

#include <vector>

namespace proteus::vl {

namespace detail {

void require_segments_cover(Size values, const IntVec& seg_lengths,
                            const char* op) {
  Size sum = 0;
  for (Size i = 0; i < seg_lengths.size(); ++i) {
    Int len = seg_lengths.data()[i];
    PROTEUS_REQUIRE(VectorError, len >= 0,
                    std::string(op) + ": negative segment length");
    sum += len;
  }
  PROTEUS_REQUIRE(VectorError, sum == values,
                  std::string(op) + ": segment lengths sum to " +
                      std::to_string(sum) + " but value vector has " +
                      std::to_string(values) + " elements");
}

namespace {

/// Blocked two-pass scan: each block of block_count(n) scans its range from
/// the identity, an exclusive scan over the block totals gives each block
/// its carry-in, and a second pass folds the carry into every block after
/// the first. The serial backend runs it as one block, with no second pass.
template <typename T, typename Op, bool Inclusive>
Vec<T> scan_blocked(const Vec<T>& in, T* total) {
  const Size n = in.size();
  Vec<T> out(n);
  const T* ip = in.data();
  T* op = out.data();

  const Size blocks = block_count(n);
  T one = Op::identity();
  std::vector<T> many(blocks > 1 ? static_cast<std::size_t>(blocks) : 0);
  T* carry = blocks > 1 ? many.data() : &one;
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    T acc = Op::identity();
    for (Size i = lo; i < hi; ++i) {
      if constexpr (Inclusive) {
        acc = Op::combine(acc, ip[i]);
        op[i] = acc;
      } else {
        op[i] = acc;
        acc = Op::combine(acc, ip[i]);
      }
    }
    carry[b] = acc;
  });
  T run = Op::identity();
  for (Size b = 0; b < blocks; ++b) {
    const T sum = carry[b];
    carry[b] = run;
    run = Op::combine(run, sum);
  }
  if (total != nullptr) *total = run;
  if (blocks > 1) {
    for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
      if (b == 0) return;  // its carry-in is the identity
      for (Size i = lo; i < hi; ++i) op[i] = Op::combine(carry[b], op[i]);
    });
  }
  stats().record(n);
  return out;
}

/// Blelloch's flag/value-pair segmented scan over the FLAT vector:
/// combine((f1,v1),(f2,v2)) = (f1|f2, f2 ? v2 : v1+v2) is associative, so
/// the standard blocked two-pass algorithm applies. This path keeps every
/// thread busy even when one segment holds most of the data (the
/// load-balance property the paper claims for flattened execution).
template <typename T, typename Op, bool Inclusive>
Vec<T> seg_scan_flat(const Vec<T>& in, const IntVec& seg_lengths) {
  const Size n = in.size();
  Vec<T> out(n);
  const T* ip = in.data();
  T* op = out.data();

  // Head flags at the start of every nonempty segment.
  std::vector<std::uint8_t> head(static_cast<std::size_t>(n), 0);
  {
    Size pos = 0;
    for (Size s = 0; s < seg_lengths.size(); ++s) {
      if (seg_lengths.data()[s] > 0) head[std::size_t(pos)] = 1;
      pos += seg_lengths.data()[s];
    }
  }

  const Size blocks = block_count(n);
  std::vector<T> carry_val(static_cast<std::size_t>(blocks), Op::identity());
  std::vector<std::uint8_t> carry_flag(static_cast<std::size_t>(blocks), 0);

  // Pass 1: per-block inclusive pair-scan; remember the block's summary.
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    T acc = Op::identity();
    std::uint8_t flagged = 0;
    for (Size i = lo; i < hi; ++i) {
      if (head[std::size_t(i)]) {
        acc = ip[i];
        flagged = 1;
      } else {
        acc = Op::combine(acc, ip[i]);
      }
      op[i] = acc;
    }
    carry_val[std::size_t(b)] = acc;
    carry_flag[std::size_t(b)] = flagged;
  });
  // Exclusive pair-scan of the block summaries.
  T run = Op::identity();
  std::uint8_t run_flag = 0;
  for (Size b = 0; b < blocks; ++b) {
    T v = carry_val[std::size_t(b)];
    std::uint8_t f = carry_flag[std::size_t(b)];
    carry_val[std::size_t(b)] = run;
    carry_flag[std::size_t(b)] = run_flag;
    run = f ? v : Op::combine(run, v);
    run_flag = std::uint8_t(run_flag | f);
  }
  // Pass 2: fold the incoming carry into positions before the block's
  // first segment head.
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    const T carry = carry_val[std::size_t(b)];
    for (Size i = lo; i < hi; ++i) {
      if (head[std::size_t(i)]) break;
      op[i] = Op::combine(carry, op[i]);
    }
  });

  if constexpr (!Inclusive) {
    // Exclusive from inclusive: shift within segments.
    Vec<T> excl(n);
    T* ep = excl.data();
    parallel_for(n, [&](Size i) {
      ep[i] = head[std::size_t(i)] ? Op::identity() : op[i - 1];
    });
    stats().record(in.size());
    stats().record_segments(seg_lengths.size());
    return excl;
  }
  stats().record(in.size());
  stats().record_segments(seg_lengths.size());
  return out;
}

/// Segmented scan. Serial backend (and short vectors): one pass per
/// segment. OpenMP backend: the flat flag/value-pair algorithm above,
/// which balances even when one segment dominates.
template <typename T, typename Op, bool Inclusive>
Vec<T> seg_scan(const Vec<T>& in, const IntVec& seg_lengths, const char* name) {
  require_segments_cover(in.size(), seg_lengths, name);
  if (use_threads(in.size())) {
    return seg_scan_flat<T, Op, Inclusive>(in, seg_lengths);
  }
  const Size nseg = seg_lengths.size();
  Vec<T> out(in.size());
  const T* ip = in.data();
  T* op = out.data();

  // Per-segment start offsets (serial: descriptor vectors are usually far
  // shorter than value vectors).
  IntVec offsets(nseg);
  Int run = 0;
  for (Size s = 0; s < nseg; ++s) {
    offsets.data()[s] = run;
    run += seg_lengths.data()[s];
  }

  for (Size s = 0; s < nseg; ++s) {
    const Size lo = offsets.data()[s];
    const Size hi = lo + seg_lengths.data()[s];
    T acc = Op::identity();
    for (Size i = lo; i < hi; ++i) {
      if constexpr (Inclusive) {
        acc = Op::combine(acc, ip[i]);
        op[i] = acc;
      } else {
        op[i] = acc;
        acc = Op::combine(acc, ip[i]);
      }
    }
  }
  stats().record(in.size());
  stats().record_segments(nseg);
  return out;
}

}  // namespace

template <typename T, typename Op>
Vec<T> scan_exclusive_impl(const Vec<T>& in, T* total) {
  return scan_blocked<T, Op, false>(in, total);
}

template <typename T, typename Op>
Vec<T> scan_inclusive_impl(const Vec<T>& in) {
  return scan_blocked<T, Op, true>(in, nullptr);
}

template <typename T, typename Op>
Vec<T> seg_scan_exclusive_impl(const Vec<T>& in, const IntVec& seg_lengths) {
  return seg_scan<T, Op, false>(in, seg_lengths, "seg_scan");
}

template <typename T, typename Op>
Vec<T> seg_scan_inclusive_impl(const Vec<T>& in, const IntVec& seg_lengths) {
  return seg_scan<T, Op, true>(in, seg_lengths, "seg_scan_inclusive");
}

// Explicit instantiations for the scalar carriers of V.
template IntVec scan_exclusive_impl<Int, AddOp<Int>>(const IntVec&, Int*);
template IntVec scan_inclusive_impl<Int, AddOp<Int>>(const IntVec&);
template IntVec scan_exclusive_impl<Int, MaxOp<Int>>(const IntVec&, Int*);
template IntVec scan_inclusive_impl<Int, MaxOp<Int>>(const IntVec&);
template IntVec scan_exclusive_impl<Int, MinOp<Int>>(const IntVec&, Int*);
template IntVec scan_inclusive_impl<Int, MinOp<Int>>(const IntVec&);
template RealVec scan_exclusive_impl<Real, AddOp<Real>>(const RealVec&, Real*);
template RealVec scan_inclusive_impl<Real, AddOp<Real>>(const RealVec&);
template RealVec scan_exclusive_impl<Real, MaxOp<Real>>(const RealVec&, Real*);
template RealVec scan_inclusive_impl<Real, MaxOp<Real>>(const RealVec&);
template RealVec scan_exclusive_impl<Real, MinOp<Real>>(const RealVec&, Real*);
template RealVec scan_inclusive_impl<Real, MinOp<Real>>(const RealVec&);

template IntVec seg_scan_exclusive_impl<Int, AddOp<Int>>(const IntVec&,
                                                         const IntVec&);
template IntVec seg_scan_inclusive_impl<Int, AddOp<Int>>(const IntVec&,
                                                         const IntVec&);
template IntVec seg_scan_exclusive_impl<Int, MaxOp<Int>>(const IntVec&,
                                                         const IntVec&);
template IntVec seg_scan_inclusive_impl<Int, MaxOp<Int>>(const IntVec&,
                                                         const IntVec&);
template IntVec seg_scan_exclusive_impl<Int, MinOp<Int>>(const IntVec&,
                                                         const IntVec&);
template IntVec seg_scan_inclusive_impl<Int, MinOp<Int>>(const IntVec&,
                                                         const IntVec&);
template RealVec seg_scan_exclusive_impl<Real, AddOp<Real>>(const RealVec&,
                                                            const IntVec&);
template RealVec seg_scan_inclusive_impl<Real, AddOp<Real>>(const RealVec&,
                                                            const IntVec&);
template RealVec seg_scan_exclusive_impl<Real, MaxOp<Real>>(const RealVec&,
                                                            const IntVec&);
template RealVec seg_scan_inclusive_impl<Real, MaxOp<Real>>(const RealVec&,
                                                            const IntVec&);
template RealVec seg_scan_exclusive_impl<Real, MinOp<Real>>(const RealVec&,
                                                            const IntVec&);
template RealVec seg_scan_inclusive_impl<Real, MinOp<Real>>(const RealVec&,
                                                            const IntVec&);

}  // namespace detail

BoolVec scan_or(const BoolVec& v) {
  return detail::scan_exclusive_impl<Bool, detail::OrOp>(v, nullptr);
}
BoolVec scan_or_inclusive(const BoolVec& v) {
  return detail::scan_inclusive_impl<Bool, detail::OrOp>(v);
}
BoolVec scan_and(const BoolVec& v) {
  return detail::scan_exclusive_impl<Bool, detail::AndOp>(v, nullptr);
}
BoolVec scan_and_inclusive(const BoolVec& v) {
  return detail::scan_inclusive_impl<Bool, detail::AndOp>(v);
}

BoolVec seg_scan_or(const BoolVec& v, const IntVec& seg_lengths) {
  return detail::seg_scan_exclusive_impl<Bool, detail::OrOp>(v, seg_lengths);
}
BoolVec seg_scan_and(const BoolVec& v, const IntVec& seg_lengths) {
  return detail::seg_scan_exclusive_impl<Bool, detail::AndOp>(v, seg_lengths);
}

}  // namespace proteus::vl
