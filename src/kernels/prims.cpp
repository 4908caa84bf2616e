#include "kernels/prims.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
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

namespace {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

Int checked_index0(Int i, Size n) {
  if (i < 1 || i > n) {
    eval_fail("seq_index: index " + std::to_string(i) +
              " out of range for sequence of length " + std::to_string(n));
  }
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

/// Non-negative clamp of per-slot counts ([1..n] is empty when n < 1).
IntVec clamp_counts(const IntVec& counts) {
  BoolVec negative = vl::lt(counts, Int{0});
  return vl::select(negative, IntVec(counts.size(), Int{0}), counts);
}

void check_index_frame(const IntVec& idx, const IntVec& limits) {
  if (idx.empty()) return;
  BoolVec ok = vl::logical_and(vl::ge(idx, Int{1}), vl::le(idx, limits));
  if (!vl::all(ok)) {
    for (Size k = 0; k < idx.size(); ++k) {
      if (idx[k] < 1 || idx[k] > limits[k]) {
        eval_fail("seq_index: index " + std::to_string(idx[k]) +
                  " out of range for sequence of length " +
                  std::to_string(limits[k]));
      }
    }
  }
}

Array range1_1(const Array& ns) {
  const IntVec& raw = ns.int_values();
  IntVec lens = clamp_counts(raw);
  return Array::nested(std::move(lens), Array::ints(vl::seg_iota1(raw)));
}

Array range_1(const Array& lo, const Array& hi) {
  const IntVec& l = lo.int_values();
  const IntVec& h = hi.int_values();
  IntVec span = vl::add(vl::sub(h, l), Int{1});
  IntVec lens = clamp_counts(span);
  // value at 1-origin rank r within slot s is l[s] + r - 1
  IntVec ranks = vl::segment_ranks(lens);
  IntVec base = vl::seg_dist(l, lens);
  IntVec values = vl::sub(vl::add(base, ranks), Int{1});
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
  check_index_frame(i, lens);
  IntVec offsets = vl::lengths_to_offsets(lens);
  IntVec positions = vl::add(offsets, vl::sub(i, Int{1}));
  return seq::gather(s.inner(), positions);
}

Array seq_index_1_shared(const Array& source, const Array& idx) {
  const IntVec& i = idx.int_values();
  IntVec limits(i.size(), source.length());
  check_index_frame(i, limits);
  return seq::gather(source, vl::sub(i, Int{1}));
}

/// seq_index_inner^1: per-slot gather from each slot's own row, without
/// replicating the rows (the generalized Section 4.5 optimization).
Array seq_index_inner_1(const Array& v, const Array& idx) {
  const IntVec& rows = v.lengths();
  const IntVec& per_slot = idx.lengths();
  vl::require_same_length(rows, per_slot, "seq_index_inner^1");
  const IntVec& i = idx.inner().int_values();
  IntVec ids = vl::segment_ids(per_slot);
  IntVec limits = vl::gather(rows, ids);
  check_index_frame(i, limits);
  IntVec base = vl::gather(vl::lengths_to_offsets(rows), ids);
  IntVec positions = vl::add(base, vl::sub(i, Int{1}));
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

Array update_1(const Array& s, const Array& idx, const Array& x) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "update^1");
  check_index_frame(i, lens);
  IntVec offsets = vl::lengths_to_offsets(lens);
  IntVec targets = vl::add(offsets, vl::sub(i, Int{1}));
  const Size n_inner = s.inner().length();
  IntVec own = vl::iota(n_inner, 0);
  IntVec replacement = vl::iota(lens.size(), n_inner);
  IntVec map = vl::scatter(own, targets, replacement);
  return Array::nested(lens, seq::gather(seq::concat(s.inner(), x), map));
}

Array concat_1(const Array& a, const Array& b) {
  const IntVec& la = a.lengths();
  const IntVec& lb = b.lengths();
  vl::require_same_length(la, lb, "concat^1");
  IntVec out_lens = vl::add(la, lb);
  IntVec ids = vl::segment_ids(out_lens);
  IntVec ranks0 = vl::sub(vl::segment_ranks(out_lens), Int{1});
  IntVec la_of = vl::gather(la, ids);
  IntVec aoff = vl::gather(vl::lengths_to_offsets(la), ids);
  IntVec boff = vl::gather(vl::lengths_to_offsets(lb), ids);
  BoolVec in_a = vl::lt(ranks0, la_of);
  IntVec pos_a = vl::add(aoff, ranks0);
  IntVec pos_b = vl::add(vl::add(boff, vl::sub(ranks0, la_of)),
                         IntVec(ranks0.size(), a.inner().length()));
  IntVec pos = vl::select(in_a, pos_a, pos_b);
  return Array::nested(std::move(out_lens),
                       seq::gather(seq::concat(a.inner(), b.inner()), pos));
}

/// reverse^1: per-slot reversal (positions: mirror within each segment).
Array reverse_1(const Array& v) {
  const IntVec& lens = v.lengths();
  IntVec offsets = vl::lengths_to_offsets(lens);
  IntVec ids = vl::segment_ids(lens);
  IntVec ranks = vl::segment_ranks(lens);
  // element at 1-origin rank r of slot s reads offset[s] + len[s] - r
  IntVec pos = vl::sub(
      vl::add(vl::gather(offsets, ids), vl::gather(lens, ids)), ranks);
  return Array::nested(lens, seq::gather(v.inner(), pos));
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

Array seq_cons_1(const std::vector<Array>& elems) {
  PROTEUS_REQUIRE(EvalError, !elems.empty(),
                  "seq_cons^1 with no element frames");
  const Size n = elems[0].length();
  const Size k = static_cast<Size>(elems.size());
  Array all = elems[0];
  for (std::size_t c = 1; c < elems.size(); ++c) {
    all = seq::concat(all, elems[c]);
  }
  IntVec p = vl::iota(n * k, 0);
  IntVec idx = vl::add(vl::mul(vl::mod(p, k), n), vl::div(p, k));
  return Array::nested(IntVec(n, k), seq::gather(all, idx));
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
    case Prim::kSeqIndexInner: {
      const Array& s = args[0].as_seq();
      const IntVec& i = args[1].as_seq().int_values();
      IntVec limits(i.size(), s.length());
      check_index_frame(i, limits);
      return VValue::seq(seq::gather(s, vl::sub(i, Int{1})));
    }
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
  Array all = materialize(elems[0], 1);
  for (std::size_t i = 1; i < elems.size(); ++i) {
    all = seq::concat(all, materialize(elems[i], 1));
  }
  return VValue::seq(std::move(all));
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
