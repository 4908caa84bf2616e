// prims_reference.hpp — the composed definitions of the depth-1 structural
// kernels of kernels/prims, kept as the oracle for their one-pass
// implementations.
//
// Each kernel here is built only from vector-model primitives: per-element
// slot ids and ranks (segment_ids, segment_ranks), offsets by slot
// (lengths_to_offsets and a gather by the ids), elementwise arithmetic and
// selects that turn them into source positions, and one gather of the data
// by those positions, often from a concatenation of the sources. Index
// checks build the comparisons and their conjunction before reducing it.
// That makes many passes over every output, but it defines the work the
// vector model charges for each kernel. kernels/prims moves the data once
// and must charge exactly the vl::stats() records these make, in the same
// order, return the same values and raise the same errors.
//
// The one addition to the composed definitions is seq_cons_1's up-front
// check that the element frames have one length: without it the
// transposing gather reads across frame boundaries.
#pragma once

#include <string>
#include <vector>

#include "kernels/vvalue.hpp"
#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels::reference {

using vl::BoolVec;
using vl::Int;
using vl::IntVec;
using vl::Size;

inline IntVec clamp_counts(const IntVec& counts) {
  BoolVec negative = vl::lt(counts, Int{0});
  return vl::select(negative, IntVec(counts.size(), Int{0}), counts);
}

inline void check_index_frame(const IntVec& idx, const IntVec& limits) {
  if (idx.empty()) return;
  BoolVec ok = vl::logical_and(vl::ge(idx, Int{1}), vl::le(idx, limits));
  if (!vl::all(ok)) {
    for (Size k = 0; k < idx.size(); ++k) {
      if (idx[k] < 1 || idx[k] > limits[k]) {
        throw EvalError("seq_index: index " + std::to_string(idx[k]) +
                        " out of range for sequence of length " +
                        std::to_string(limits[k]));
      }
    }
  }
}

inline Array range1_1(const Array& ns) {
  const IntVec& raw = ns.int_values();
  IntVec lens = clamp_counts(raw);
  return Array::nested(std::move(lens), Array::ints(vl::seg_iota1(raw)));
}

inline Array range_1(const Array& lo, const Array& hi) {
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

inline Array dist_1(const Array& values, const Array& counts) {
  IntVec lens = clamp_counts(counts.int_values());
  return Array::nested(lens, seq::seg_broadcast(values, lens));
}

inline Array seq_index_1_frame(const Array& s, const Array& idx) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "seq_index^1");
  check_index_frame(i, lens);
  IntVec offsets = vl::lengths_to_offsets(lens);
  IntVec positions = vl::add(offsets, vl::sub(i, Int{1}));
  return seq::gather(s.inner(), positions);
}

inline Array seq_index_1_shared(const Array& source, const Array& idx) {
  const IntVec& i = idx.int_values();
  IntVec limits(i.size(), source.length());
  check_index_frame(i, limits);
  return seq::gather(source, vl::sub(i, Int{1}));
}

inline Array seq_index_inner_1(const Array& v, const Array& idx) {
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

inline Array update_1(const Array& s, const Array& idx, const Array& x) {
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

inline Array concat_1(const Array& a, const Array& b) {
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

inline Array reverse_1(const Array& v) {
  const IntVec& lens = v.lengths();
  IntVec offsets = vl::lengths_to_offsets(lens);
  IntVec ids = vl::segment_ids(lens);
  IntVec ranks = vl::segment_ranks(lens);
  // element at 1-origin rank r of slot s reads offset[s] + len[s] - r
  IntVec pos = vl::sub(
      vl::add(vl::gather(offsets, ids), vl::gather(lens, ids)), ranks);
  return Array::nested(lens, seq::gather(v.inner(), pos));
}

inline Array seq_cons_1(const std::vector<Array>& elems) {
  PROTEUS_REQUIRE(EvalError, !elems.empty(),
                  "seq_cons^1 with no element frames");
  const Size n = elems[0].length();
  const Size k = static_cast<Size>(elems.size());
  for (const Array& e : elems) {
    PROTEUS_REQUIRE(EvalError, e.length() == n,
                    "seq_cons^1: element frames differ in length");
  }
  Array all = elems[0];
  for (std::size_t c = 1; c < elems.size(); ++c) {
    all = seq::concat(all, elems[c]);
  }
  IntVec p = vl::iota(n * k, 0);
  IntVec idx = vl::add(vl::mul(vl::mod(p, k), n), vl::div(p, k));
  return Array::nested(IntVec(n, k), seq::gather(all, idx));
}

inline VValue seq_cons0(const std::vector<VValue>& elems,
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

}  // namespace proteus::kernels::reference
