#include "kernels/prims.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <utility>

#include "kernels/lanes.hpp"
#include "rt/governor.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels {

using lang::Prim;
using vl::Bool;
using vl::BoolVec;
using vl::IntVec;
using vl::RealVec;
using vl::detail::add_wrap;
using vl::detail::sub_wrap;

namespace {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

[[noreturn]] void index_out_of_range(Int i, Int n) {
  eval_fail("seq_index: index " + std::to_string(i) +
            " out of range for sequence of length " + std::to_string(n));
}

Int checked_index0(Int i, Size n) {
  if (i < 1 || i > n) index_out_of_range(i, n);
  return i - 1;
}

/// combine(M, V, U) on one mask of `nm` flags with #V = nt and #U = nf:
/// the reference interpreter's checks and messages, charging no vl work.
void check_combine(const vl::Bool* m, Size nm, Size nt, Size nf) {
  if (nm != nt + nf) eval_fail("combine: #M must equal #V + #U");
  if (std::count_if(m, m + nm, [](vl::Bool b) { return b != 0; }) != nt) {
    eval_fail("combine: #V must equal the number of true elements of M");
  }
}

// --- elementwise primitives: the lane table at depth 0 and depth 1 ----------

/// A depth-0 elementwise primitive: its lane kernel on one lane.
VValue lane0(Prim op, const std::vector<VValue>& args) {
  struct Lane {
    Int i = 0;
    Real r = 0;
    Bool b = 0;
    void* at(K k) {
      if (k == K::kInt) return &i;
      if (k == K::kReal) return &r;
      return &b;
    }
  } x, y, out;
  const auto load = [](const VValue& v, Lane& l) {
    if (v.is_int()) { l.i = v.as_int(); return K::kInt; }
    if (v.is_real()) { l.r = v.as_real(); return K::kReal; }
    if (v.is_bool()) { l.b = v.as_bool() ? 1 : 0; return K::kBool; }
    return K::kOther;
  };
  const bool binary = args.size() == 2;
  const K ka = load(args[0], x);
  const K kb = binary ? load(args[1], y) : K::kOther;
  KernSel sel;
  if (binary ? !select_binary(op, ka, kb, sel) : !select_unary(op, ka, sel)) {
    eval_fail(std::string("no scalar overload of '") + prim_name(op) + "'");
  }
  run_kern(sel.kern, true, x.at(ka), true, y.at(kb), out.at(sel.out), 1);
  switch (sel.out) {
    case K::kInt: return VValue::ints(out.i);
    case K::kReal: return VValue::reals(out.r);
    default: return VValue::bools(out.b != 0);
  }
}

/// The depth-1 extension of an elementwise primitive: its lane kernel over
/// the frames, block by block, with the length check, output buffer and
/// records of the vl map it stands for (Bool == charges logical_xor's
/// record and then logical_not's, into one buffer).
Array lanes1(Prim op, const std::vector<Array>& frames) {
  const bool binary = frames.size() == 2;
  const K ka = leaf_kind(frames[0].kind());
  const K kb = binary ? leaf_kind(frames[1].kind()) : K::kOther;
  KernSel sel;
  if (binary ? !select_binary(op, ka, kb, sel) : !select_unary(op, ka, sel)) {
    eval_fail(std::string("no depth-1 ") + (binary ? "binary" : "unary") +
              " kernel for '" + prim_name(op) + "'");
  }
  const Size n = frames[0].length();
  if (binary) check_lane_lengths(sel, n, frames[1].length());
  const auto* a = static_cast<const std::byte*>(leaf_data(frames[0]));
  const auto* b =
      binary ? static_cast<const std::byte*>(leaf_data(frames[1])) : nullptr;
  const auto fill = [&](void* out) {
    auto* d = static_cast<std::byte*>(out);
    const auto at = [](auto* base, K k, Size lo) {
      return base == nullptr ? nullptr
                             : base + static_cast<std::size_t>(lo) * elem_size(k);
    };
    vl::detail::for_blocks(
        n, vl::detail::block_count(n), [&](Size, Size lo, Size hi) {
          run_kern(sel.kern, false, at(a, ka, lo), false, at(b, kb, lo),
                   at(d, sel.out, lo), hi - lo);
        });
    vl::VectorStats& st = vl::stats();
    st.record(n);
    if (sel.two_records) st.record(n);
    st.record_alloc();
  };
  switch (sel.out) {
    case K::kInt: {
      IntVec out(n);
      fill(out.data());
      return Array::ints(std::move(out));
    }
    case K::kReal: {
      RealVec out(n);
      fill(out.data());
      return Array::reals(std::move(out));
    }
    default: {
      BoolVec out(n);
      fill(out.data());
      return Array::bools(std::move(out));
    }
  }
}

// --- depth-1 sequence kernels ---------------------------------------------------
//
// The vector model defines each structural kernel below as a composition
// of vl primitives (index and offset vectors built with segment_ids,
// segment_ranks, gathers and elementwise arithmetic, then one gather of
// the data). Each kernel moves its data once instead, computing the
// offsets it needs locally, and charges that composition's vl::stats()
// records (same sizes, order and segment counts) as it goes, so element
// work, primitive calls, step budgets and injected kernel faults are
// unchanged; only buffer_allocs falls. The compositions are the test
// oracle in tests/kernels/prims_reference.hpp.

/// Records one primitive call per size, in order.
void charge(std::initializer_list<Size> sizes) {
  vl::VectorStats& st = vl::stats();
  for (const Size n : sizes) st.record(n);
}

/// vl::segment_ranks (or segment_ids) over `n` lengths summing to `total`:
/// lengths_total, the offsets scan, then the pass.
void charge_segment_ranks(Size n, Size total) {
  vl::VectorStats& st = vl::stats();
  st.record(n);
  st.record_segments(n);
  st.record(n);
  st.record(total);
  st.record_segments(n);
}

/// check_index_frame's records over `m` indices: ge(idx, 1), le(idx,
/// limits), their and, then all. The test itself runs in the caller's
/// pass, which raises index_out_of_range at the first bad index.
void charge_index_check(Size m) {
  if (m > 0) charge({m, m, m, m});
}

/// Non-negative clamp of per-slot counts ([1..n] is empty when n < 1),
/// charged as lt(counts, 0) and a select.
IntVec clamp_counts(const IntVec& counts) {
  IntVec out(counts.size());
  const Int* cp = counts.data();
  Int* op = out.data();
  vl::detail::parallel_for(counts.size(),
                           [&](Size i) { op[i] = cp[i] < 0 ? 0 : cp[i]; });
  charge({counts.size(), counts.size()});
  return out;
}

/// The values of range^1 and range1^1: slot s counts up from first(s),
/// lens[s] values at off[s].
template <typename First>
IntVec count_up(const IntVec& lens, const IntVec& off, First first) {
  IntVec values(off[lens.size()]);
  Int* vp = values.data();
  const Int* lp = lens.data();
  const Int* op = off.data();
  vl::detail::parallel_for(lens.size(), [&](Size s) {
    const Int base = first(s);
    for (Int r = 0; r < lp[s]; ++r) vp[op[s] + r] = add_wrap(base, r);
  });
  return values;
}

Array range1_1(const Array& ns) {
  const IntVec& raw = ns.int_values();
  const Size n = raw.size();
  IntVec lens = clamp_counts(raw);
  const IntVec off = vl::detail::exclusive_offsets(lens);
  charge({n});  // seg_iota1 clamps the counts again
  charge_segment_ranks(n, off[n]);
  IntVec values = count_up(lens, off, [](Size) { return Int{1}; });
  return Array::nested(std::move(lens), Array::ints(std::move(values)));
}

Array range_1(const Array& lo, const Array& hi) {
  const IntVec& l = lo.int_values();
  const IntVec& h = hi.int_values();
  vl::require_same_length(h, l, "sub");
  const Size n = l.size();
  // span = h - l + 1, clamped; slot s holds l[s], l[s] + 1, ..
  IntVec lens(n);
  const Int* lp = l.data();
  const Int* hp = h.data();
  Int* sp = lens.data();
  vl::detail::parallel_for(n, [&](Size s) {
    const Int span = add_wrap(sub_wrap(hp[s], lp[s]), Int{1});
    sp[s] = span < 0 ? 0 : span;
  });
  const IntVec off = vl::detail::exclusive_offsets(lens);
  const Size total = off[n];
  charge({n, n, n, n});  // sub, add 1, clamp (lt, select)
  charge_segment_ranks(n, total);
  vl::stats().record(n);  // seg_dist(l, lens): lengths_total
  vl::stats().record_segments(n);
  charge({n, total, total, total});  // its offsets and pass, + ranks, - 1
  IntVec values = count_up(lens, off, [&](Size s) { return lp[s]; });
  return Array::nested(std::move(lens), Array::ints(std::move(values)));
}

Array dist_1(const Array& values, const Array& counts) {
  IntVec lens = clamp_counts(counts.int_values());
  return Array::nested(lens, seq::seg_broadcast(values, lens));
}

Array seq_index_1_frame(const Array& s, const Array& idx) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "seq_index^1");
  const Size n = i.size();
  charge_index_check(n);
  const IntVec off = vl::detail::exclusive_offsets(lens);
  IntVec positions(n);
  const Int* ip = i.data();
  const Int* lp = lens.data();
  const Int* op = off.data();
  Int* pp = positions.data();
  vl::detail::parallel_for(n, [&](Size k) {
    if (ip[k] < 1 || ip[k] > lp[k]) index_out_of_range(ip[k], lp[k]);
    pp[k] = op[k] + ip[k] - 1;
  });
  charge({n, n, n});  // lengths_to_offsets, i - 1, offsets + ...
  return seq::gather(s.inner(), positions);
}

Array seq_index_1_shared(const Array& source, const Array& idx) {
  const IntVec& i = idx.int_values();
  const Size m = i.size();
  const Size limit = source.length();
  charge_index_check(m);
  IntVec positions(m);
  const Int* ip = i.data();
  Int* pp = positions.data();
  vl::detail::parallel_for(m, [&](Size k) {
    if (ip[k] < 1 || ip[k] > limit) index_out_of_range(ip[k], limit);
    pp[k] = ip[k] - 1;
  });
  charge({m});  // i - 1
  return seq::gather(source, positions);
}

/// seq_index_inner^1: per-slot gather from each slot's own row, without
/// replicating the rows (the generalized Section 4.5 optimization).
Array seq_index_inner_1(const Array& v, const Array& idx) {
  const IntVec& rows = v.lengths();
  const IntVec& per_slot = idx.lengths();
  vl::require_same_length(rows, per_slot, "seq_index_inner^1");
  const IntVec& i = idx.inner().int_values();
  const Size n = rows.size();
  const Size m = i.size();
  charge_segment_ranks(n, m);  // segment_ids(per_slot)
  charge({m});                 // the per-index limits: gather(rows, ids)
  charge_index_check(m);
  const IntVec first = vl::detail::exclusive_offsets(per_slot);
  const IntVec base = vl::detail::exclusive_offsets(rows);
  IntVec positions(m);
  const Int* ip = i.data();
  const Int* rp = rows.data();
  const Int* fp = first.data();
  const Int* bp = base.data();
  Int* pp = positions.data();
  vl::detail::parallel_for(n, [&](Size s) {
    for (Int k = fp[s]; k < fp[s + 1]; ++k) {
      if (ip[k] < 1 || ip[k] > rp[s]) index_out_of_range(ip[k], rp[s]);
      pp[k] = bp[s] + ip[k] - 1;
    }
  });
  charge({n, m, m, m});  // row offsets, their gather, i - 1, base + ...
  return Array::nested(per_slot, seq::gather(v.inner(), positions));
}

Array restrict_1(const Array& v, const Array& m) {
  PROTEUS_REQUIRE(EvalError, v.lengths() == m.lengths(),
                  "restrict^1: non-conformable frames");
  const BoolVec& mask = m.inner().bool_values();
  IntVec new_lens = vl::seg_pack_lengths(v.lengths(), mask);
  return Array::nested(std::move(new_lens), seq::pack(v.inner(), mask));
}

Array combine_1(const Array& m, const Array& t, const Array& f) {
  const BoolVec& mask = m.inner().bool_values();
  const IntVec& lm = m.lengths();
  const IntVec& lt = t.lengths();
  const IntVec& lf = f.lengths();
  PROTEUS_REQUIRE(EvalError, lt.size() == lm.size() && lf.size() == lm.size(),
                  "combine^1: non-conformable frames");
  Size off = 0;
  for (Size s = 0; s < lm.size(); ++s) {  // slot by slot, as the reference
    check_combine(mask.data() + off, lm[s], lt[s], lf[s]);
    off += lm[s];
  }
  return Array::nested(m.lengths(), seq::combine(mask, t.inner(), f.inner()));
}

/// update^1: slot g keeps its elements before and after index i[g] and
/// takes x[g] at i[g] — three ranges of concat(s.inner(), x) per slot.
Array update_1(const Array& s, const Array& idx, const Array& x) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "update^1");
  const Size n = i.size();
  const Size n_inner = s.inner().length();
  charge_index_check(n);
  const IntVec off = vl::detail::exclusive_offsets(lens);
  seq::Ranges r{{0, 1, 0}, IntVec(3 * n), IntVec(3 * n)};
  const Int* ip = i.data();
  const Int* lp = lens.data();
  const Int* op = off.data();
  Int* sp = r.start.data();
  Int* np = r.len.data();
  vl::detail::parallel_for(n, [&](Size g) {
    if (ip[g] < 1 || ip[g] > lp[g]) index_out_of_range(ip[g], lp[g]);
    const Int target = op[g] + ip[g] - 1;
    sp[3 * g] = op[g];
    np[3 * g] = ip[g] - 1;
    sp[3 * g + 1] = g;
    np[3 * g + 1] = 1;
    sp[3 * g + 2] = target + 1;
    np[3 * g + 2] = op[g + 1] - target - 1;
  });
  // the targets (offsets, i - 1, + ..), the identity and replacement
  // iotas, the scatter that builds the gather map
  charge({n, n, n, n_inner, n, n});
  const std::vector<const Array*> bases{&s.inner(), &x};
  seq::charge_concat(bases);
  if (x.length() < n) {
    // The map reads past concat(s.inner(), x) first at slot #x's target.
    vl::detail::require_gather_index(n_inner + x.length(),
                                     n_inner + x.length());
  }
  return Array::nested(lens, seq::gather_ranges(bases, r));
}

/// concat^1: slot s is a's segment s followed by b's.
Array concat_1(const Array& a, const Array& b) {
  const IntVec& la = a.lengths();
  const IntVec& lb = b.lengths();
  vl::require_same_length(la, lb, "concat^1");
  const Size n = la.size();
  const Size total = a.inner().length() + b.inner().length();
  charge({n});  // out_lens = la + lb
  charge_segment_ranks(n, total);  // segment_ids(out_lens)
  charge_segment_ranks(n, total);  // segment_ranks(out_lens)
  // ranks - 1, la by slot, a's and b's offsets by slot, rank < la, the
  // a-side positions, the b-side positions (three passes), the select
  charge({total, total, n, total, n, total, total, total, total, total,
          total, total});
  const std::vector<const Array*> bases{&a.inner(), &b.inner()};
  seq::charge_concat(bases);
  const IntVec aoff = vl::detail::exclusive_offsets(la);
  const IntVec boff = vl::detail::exclusive_offsets(lb);
  IntVec out_lens(n);
  seq::Ranges r{{0, 1}, IntVec(2 * n), IntVec(2 * n)};
  const Int* ap = la.data();
  const Int* bp = lb.data();
  Int* op = out_lens.data();
  Int* sp = r.start.data();
  Int* np = r.len.data();
  vl::detail::parallel_for(n, [&](Size s) {
    op[s] = ap[s] + bp[s];
    sp[2 * s] = aoff[s];
    np[2 * s] = ap[s];
    sp[2 * s + 1] = boff[s];
    np[2 * s + 1] = bp[s];
  });
  return Array::nested(std::move(out_lens), seq::gather_ranges(bases, r));
}

/// reverse^1: per-slot reversal (positions: mirror within each segment).
Array reverse_1(const Array& v) {
  const IntVec& lens = v.lengths();
  const Size n = lens.size();
  const Size total = v.inner().length();
  charge({n});                     // lengths_to_offsets(lens)
  charge_segment_ranks(n, total);  // segment_ids(lens)
  charge_segment_ranks(n, total);  // segment_ranks(lens)
  charge({total, total, total, total});  // offsets and lens by slot, +, -
  const IntVec off = vl::detail::exclusive_offsets(lens);
  IntVec positions(total);
  const Int* lp = lens.data();
  const Int* op = off.data();
  Int* pp = positions.data();
  // element at 1-origin rank r of slot s reads offset[s] + len[s] - r
  vl::detail::parallel_for(n, [&](Size s) {
    for (Int r = 0; r < lp[s]; ++r) pp[op[s] + r] = op[s] + lp[s] - 1 - r;
  });
  return Array::nested(lens, seq::gather(v.inner(), positions));
}

/// zip^1: per-slot zip — same descriptor, tuple of the inner arrays.
Array zip_1(const Array& x, const Array& y) {
  PROTEUS_REQUIRE(EvalError, x.lengths() == y.lengths(),
                  "zip^1: non-conformable frames (per-slot lengths differ)");
  return Array::nested(x.lengths(), Array::tuple({x.inner(), y.inner()}));
}

Array flatten_1(const Array& v) {
  PROTEUS_REQUIRE(EvalError, v.inner().kind() == Array::Kind::kNested,
                  "flatten^1: elements are not sequences");
  const Array& inner = v.inner();
  IntVec new_lens = vl::seg_reduce_add(inner.lengths(), v.lengths());
  return Array::nested(std::move(new_lens), inner.inner());
}

/// seq_cons^1: slot g is [e_0[g], .., e_{k-1}[g]], one single-element
/// range of each frame per slot. Charged as the gather of the
/// concatenated frames by the transposing index (p mod k) * n + p / k.
Array seq_cons_1(const std::vector<Array>& elems) {
  PROTEUS_REQUIRE(EvalError, !elems.empty(),
                  "seq_cons^1 with no element frames");
  const Size n = elems[0].length();
  const Size k = static_cast<Size>(elems.size());
  for (const Array& e : elems) {
    PROTEUS_REQUIRE(EvalError, e.length() == n,
                    "seq_cons^1: element frames differ in length");
  }
  std::vector<const Array*> bases;
  bases.reserve(elems.size());
  for (const Array& e : elems) {
    bases.push_back(&e);
    if (bases.size() > 1) seq::charge_concat(bases);
  }
  charge({n * k, n * k, n * k, n * k, n * k});  // iota, mod, mul, div, add
  seq::Ranges r{{}, IntVec(n * k), IntVec(n * k, 1)};
  r.from.reserve(elems.size());
  for (std::size_t c = 0; c < elems.size(); ++c) r.from.push_back(c);
  Int* sp = r.start.data();
  vl::detail::parallel_for(n, [&](Size g) {
    for (Size c = 0; c < k; ++c) sp[g * k + c] = g;
  });
  return Array::nested(IntVec(n, k), seq::gather_ranges(bases, r));
}

/// materialize(e, 1) without copying a sequence element: its one-element
/// frame shares e's array, and the broadcast that would copy it is charged.
Array materialize_one(const VValue& e) {
  if (e.is_seq()) {
    Array one = Array::nested(IntVec{e.as_seq().length()}, e.as_seq());
    vl::stats().record(1);  // broadcast_element(one, 0, 1): dist(0, 1)
    seq::charge_gather_each(one);
    return one;
  }
  if (e.is_tuple()) {
    std::vector<Array> comps;
    for (const VValue& c : e.as_tuple()) comps.push_back(materialize_one(c));
    return Array::tuple(std::move(comps));
  }
  return materialize(e, 1);
}

Array reduce_1(Prim op, const Array& v) {
  const IntVec& lens = v.lengths();
  const Array& inner = v.inner();
  check_reduce_segments(op, lens);
  if (op == Prim::kSum) {
    if (inner.kind() == Array::Kind::kReal) {
      return Array::reals(vl::seg_reduce_add(inner.real_values(), lens));
    }
    return Array::ints(vl::seg_reduce_add(inner.int_values(), lens));
  }
  if (op == Prim::kMaxVal || op == Prim::kMinVal) {
    if (inner.kind() == Array::Kind::kReal) {
      const RealVec& x = inner.real_values();
      return Array::reals(op == Prim::kMaxVal ? vl::seg_reduce_max(x, lens)
                                              : vl::seg_reduce_min(x, lens));
    }
    const IntVec& x = inner.int_values();
    return Array::ints(op == Prim::kMaxVal ? vl::seg_reduce_max(x, lens)
                                           : vl::seg_reduce_min(x, lens));
  }
  if (op == Prim::kAnyV) {
    return Array::bools(vl::seg_reduce_or(inner.bool_values(), lens));
  }
  if (op == Prim::kAllV) {
    return Array::bools(vl::seg_reduce_and(inner.bool_values(), lens));
  }
  eval_fail(std::string("no depth-1 reduction kernel for '") + prim_name(op) +
            "'");
}

}  // namespace

void charge_dist_1_uniform(Size n, Size len) {
  vl::VectorStats& st = vl::stats();
  st.record(n);  // clamp_counts: lt(counts, 0)
  st.record(n);  //               select(negative, 0, counts)
  seq::charge_seg_broadcast(n, n * len);
  st.record(n);  // Array::nested checks the n lengths
  st.record_segments(n);
}

void check_reduce_segments(Prim op, const IntVec& lens) {
  if (op != Prim::kMaxVal && op != Prim::kMinVal) return;
  if (!vl::all(vl::gt(lens, Int{0})) && lens.size() > 0) {
    eval_fail("maxval/minval of an empty sequence");
  }
}

// --- depth-0 entry ---------------------------------------------------------------

VValue apply_prim0(Prim op, const std::vector<VValue>& args) {
  rt::poll("kernel");  // cooperative check for direct kernel-table callers
  switch (op) {
    case Prim::kAdd:
    case Prim::kSub:
    case Prim::kMul:
    case Prim::kDiv:
    case Prim::kMod:
    case Prim::kMin:
    case Prim::kMax:
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
    case Prim::kNeg:
    case Prim::kNot:
    case Prim::kSqrt:
    case Prim::kToReal:
    case Prim::kToInt:
      return lane0(op, args);
    case Prim::kLength:
      return VValue::ints(args[0].as_seq().length());
    case Prim::kRange:
      return VValue::seq(Array::ints(
          vl::range(args[0].as_int(), args[1].as_int(), 1)));
    case Prim::kRange1:
      return VValue::seq(Array::ints(vl::iota1(args[0].as_int())));
    case Prim::kRestrict: {
      const Array& v = args[0].as_seq();
      const Array& m = args[1].as_seq();
      PROTEUS_REQUIRE(EvalError, v.length() == m.length(),
                      "restrict: sequence and mask lengths differ");
      return VValue::seq(seq::pack(v, m.bool_values()));
    }
    case Prim::kCombine: {
      const BoolVec& m = args[0].as_seq().bool_values();
      const Array& t = args[1].as_seq();
      const Array& f = args[2].as_seq();
      check_combine(m.data(), m.size(), t.length(), f.length());
      return VValue::seq(seq::combine(m, t, f));
    }
    case Prim::kDist: {
      Int r = args[1].as_int();
      return VValue::seq(materialize(args[0], r < 0 ? 0 : r));
    }
    case Prim::kSeqIndex: {
      const Array& s = args[0].as_seq();
      Int i = checked_index0(args[1].as_int(), s.length());
      return element_value(s, i);
    }
    case Prim::kSeqIndexInner:
      return VValue::seq(
          seq_index_1_shared(args[0].as_seq(), args[1].as_seq()));
    case Prim::kSeqUpdate: {
      const Array& s = args[0].as_seq();
      Int i = checked_index0(args[1].as_int(), s.length());
      Array x = materialize(args[2], 1);
      IntVec map = vl::scatter(vl::iota(s.length(), 0), IntVec{i},
                               IntVec{s.length()});
      return VValue::seq(seq::gather(seq::concat(s, x), map));
    }
    case Prim::kFlatten:
      return VValue::seq(seq::extract(args[0].as_seq(), 1));
    case Prim::kConcat:
      return VValue::seq(seq::concat(args[0].as_seq(), args[1].as_seq()));
    case Prim::kSum: {
      const Array& v = args[0].as_seq();
      if (v.kind() == Array::Kind::kReal) {
        return VValue::reals(vl::reduce_add(v.real_values()));
      }
      return VValue::ints(vl::reduce_add(v.int_values()));
    }
    case Prim::kMaxVal:
    case Prim::kMinVal: {
      const Array& v = args[0].as_seq();
      PROTEUS_REQUIRE(EvalError, v.length() > 0,
                      "maxval/minval of an empty sequence");
      if (v.kind() == Array::Kind::kReal) {
        return VValue::reals(op == Prim::kMaxVal
                                 ? vl::reduce_max(v.real_values())
                                 : vl::reduce_min(v.real_values()));
      }
      return VValue::ints(op == Prim::kMaxVal ? vl::reduce_max(v.int_values())
                                              : vl::reduce_min(v.int_values()));
    }
    case Prim::kReverse: {
      const Array& v = args[0].as_seq();
      if (v.length() == 0) return VValue::seq(v);
      IntVec idx = vl::reverse(vl::iota(v.length(), 0));
      return VValue::seq(seq::gather(v, idx));
    }
    case Prim::kZip: {
      const Array& x = args[0].as_seq();
      const Array& y = args[1].as_seq();
      PROTEUS_REQUIRE(EvalError, x.length() == y.length(),
                      "zip: sequences have different lengths");
      return VValue::seq(Array::tuple({x, y}));
    }
    case Prim::kAnyV:
      return VValue::bools(vl::any(args[0].as_seq().bool_values()));
    case Prim::kAllV:
      return VValue::bools(vl::all(args[0].as_seq().bool_values()));
    case Prim::kExtract:
      return VValue::seq(
          seq::extract(args[0].as_seq(), static_cast<int>(args[1].as_int())));
    case Prim::kInsert:
      return VValue::seq(seq::insert(args[0].as_seq(), args[1].as_seq(),
                                     static_cast<int>(args[2].as_int())));
    case Prim::kAnyTrue:
      return VValue::bools(any_true_frame(args[0]));
    case Prim::kEmptyFrame:
      eval_fail("empty_frame requires its frame depth and type (executor bug)");
  }
  eval_fail("corrupt primitive opcode");
}

// --- depth-1 entry ---------------------------------------------------------------

VValue apply_prim1(Prim op, const std::vector<VValue>& args,
                   const std::vector<std::uint8_t>& lifted,
                   const PrimOptions& options) {
  rt::poll("kernel");  // cooperative check for direct kernel-table callers
  auto is_lifted = [&](std::size_t i) {
    return lifted.empty() || lifted[i] != 0;
  };

  // Section 4.5 fast path: seq_index with a fixed (broadcast) source is a
  // gather from the shared sequence, with no replication.
  if (op == Prim::kSeqIndex && options.shared_source_gather &&
      !is_lifted(0) && is_lifted(1)) {
    return VValue::seq(
        seq_index_1_shared(args[0].as_seq(), args[1].as_seq()));
  }

  // Frame length from the first lifted argument.
  Size n = -1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (is_lifted(i)) {
      n = args[i].as_seq().length();
      break;
    }
  }
  PROTEUS_REQUIRE(EvalError, n >= 0,
                  "depth-1 extension applied with no frame argument");

  // Normalize: replicate broadcast arguments across the frame.
  std::vector<Array> frames;
  frames.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    frames.push_back(is_lifted(i) ? args[i].as_seq()
                                  : materialize(args[i], n));
  }

  switch (op) {
    case Prim::kAdd:
    case Prim::kSub:
    case Prim::kMul:
    case Prim::kDiv:
    case Prim::kMod:
    case Prim::kMin:
    case Prim::kMax:
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
    case Prim::kNeg:
    case Prim::kNot:
    case Prim::kToReal:
    case Prim::kToInt:
    case Prim::kSqrt:
      return VValue::seq(lanes1(op, frames));
    case Prim::kLength:
      return VValue::seq(Array::ints(frames[0].lengths()));
    case Prim::kRange:
      return VValue::seq(range_1(frames[0], frames[1]));
    case Prim::kRange1:
      return VValue::seq(range1_1(frames[0]));
    case Prim::kRestrict:
      return VValue::seq(restrict_1(frames[0], frames[1]));
    case Prim::kCombine:
      return VValue::seq(combine_1(frames[0], frames[1], frames[2]));
    case Prim::kDist:
      return VValue::seq(dist_1(frames[0], frames[1]));
    case Prim::kSeqIndex:
      return VValue::seq(seq_index_1_frame(frames[0], frames[1]));
    case Prim::kSeqIndexInner:
      return VValue::seq(seq_index_inner_1(frames[0], frames[1]));
    case Prim::kSeqUpdate:
      return VValue::seq(update_1(frames[0], frames[1], frames[2]));
    case Prim::kFlatten:
      return VValue::seq(flatten_1(frames[0]));
    case Prim::kConcat:
      return VValue::seq(concat_1(frames[0], frames[1]));
    case Prim::kReverse:
      return VValue::seq(reverse_1(frames[0]));
    case Prim::kZip:
      return VValue::seq(zip_1(frames[0], frames[1]));
    case Prim::kSum:
    case Prim::kMaxVal:
    case Prim::kMinVal:
    case Prim::kAnyV:
    case Prim::kAllV:
      return VValue::seq(reduce_1(op, frames[0]));
    case Prim::kExtract:
    case Prim::kInsert:
    case Prim::kEmptyFrame:
    case Prim::kAnyTrue:
      eval_fail(std::string("'") + prim_name(op) +
                "' has no depth-1 extension (it is a depth-0 representation "
                "primitive)");
  }
  eval_fail("corrupt primitive opcode");
}

VValue empty_frame_value(const VValue& mask, int depth,
                         const lang::TypePtr& type) {
  PROTEUS_REQUIRE(EvalError, depth >= 1 && type != nullptr && type->is_seq(),
                  "empty_frame: bad depth or type annotation");
  // Element type beta of Seq^depth(beta):
  lang::TypePtr beta = type;
  for (int k = 0; k < depth; ++k) beta = beta->elem();

  // Recursive structure copy of the mask's array above the deepest level.
  std::function<Array(const Array&, int)> build = [&](const Array& m,
                                                      int d) -> Array {
    if (d == 1) return empty_array_of(beta);
    if (d == 2) {
      return Array::nested(IntVec(m.length(), Int{0}), empty_array_of(beta));
    }
    return Array::nested(m.lengths(), build(m.inner(), d - 1));
  };
  return VValue::seq(build(mask.as_seq(), depth));
}

VValue seq_cons0(const std::vector<VValue>& elems,
                 const lang::TypePtr& elem_type) {
  if (elems.empty()) {
    PROTEUS_REQUIRE(EvalError, elem_type != nullptr,
                    "seq_cons: empty literal without an element type");
    return VValue::seq(empty_array_of(elem_type));
  }
  // The literal is defined as the chain concat(..concat(m0, m1).., m_k-1)
  // of the one-element frames m_i = materialize(e_i, 1); every step but the
  // last is charged, the last moves all the elements once.
  std::vector<Array> parts;
  parts.reserve(elems.size());
  std::vector<const Array*> chain;
  chain.reserve(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i) {
    parts.push_back(materialize_one(elems[i]));
    chain.push_back(&parts.back());
    if (i > 0 && i + 1 < elems.size()) seq::charge_concat(chain);
  }
  return VValue::seq(chain.size() == 1 ? parts.front() : seq::concat(chain));
}

VValue tuple_cons(std::vector<VValue> elems, int depth) {
  if (depth == 0) return VValue::tuple(std::move(elems));
  std::vector<Array> comps;
  comps.reserve(elems.size());
  for (const VValue& v : elems) comps.push_back(v.as_seq());
  return VValue::seq(Array::tuple(std::move(comps)));
}

VValue tuple_get(const VValue& tuple, int index, int depth) {
  const std::size_t k = static_cast<std::size_t>(index - 1);
  if (depth == 0) {
    const auto& comps = tuple.as_tuple();
    PROTEUS_REQUIRE(EvalError, k < comps.size(),
                    "tuple component index out of range");
    return comps[k];
  }
  const auto& comps = tuple.as_seq().components();
  PROTEUS_REQUIRE(EvalError, k < comps.size(),
                  "tuple component index out of range");
  return VValue::seq(comps[k]);
}

VValue seq_cons1(const std::vector<VValue>& elems) {
  std::vector<Array> frames;
  frames.reserve(elems.size());
  for (const VValue& e : elems) frames.push_back(e.as_seq());
  return VValue::seq(seq_cons_1(frames));
}

bool any_true_frame(const VValue& frame) {
  const Array* cur = &frame.as_seq();
  while (cur->kind() == Array::Kind::kNested) cur = &cur->inner();
  return vl::any(cur->bool_values());
}

}  // namespace proteus::kernels
