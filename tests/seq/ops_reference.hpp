// ops_reference.hpp — the composed definitions of the structural kernels of
// seq/ops, kept as the oracle for their direct implementations.
//
// Each operation here is built only from vector-model primitives: the
// selection of whole segments is an index vector expanded through the
// descriptor (seg_dist of the segment starts plus the segment ranks),
// restrict is a gather by pack_indices, combine a gather from the
// concatenation of both sides, and dist^1 a gather by a distributed iota.
// That makes several passes over every output, but it defines the work the
// vector model charges for each operation. seq/ops moves the data in one
// pass and must charge exactly the vl::stats() records these make, in the
// same order, return the same values and raise the same errors.
#pragma once

#include <algorithm>
#include <string>

#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace proteus::seq::reference {

// The checks below spell their conditions as seq/ops does: the condition's
// text is part of the error message the two must agree on.

inline void require_same_structure(const Array& a, const Array& b,
                                   const char* op) {
  PROTEUS_REQUIRE(RepresentationError, same_structure(a, b),
                  std::string(op) + ": arrays have different element structure");
}

inline Size true_count(const BoolVec& mask) {
  return std::count_if(mask.begin(), mask.end(),
                       [](Bool b) { return b != 0; });
}

inline Array gather(const Array& a, const IntVec& idx) {
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(vl::gather(a.int_values(), idx));
    case Array::Kind::kReal:
      return Array::reals(vl::gather(a.real_values(), idx));
    case Array::Kind::kBool:
      return Array::bools(vl::gather(a.bool_values(), idx));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) {
        comps.push_back(reference::gather(c, idx));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      // Select whole segments: new descriptor, then expand per-segment
      // start offsets to per-element source positions.
      IntVec out_lens = vl::gather(a.lengths(), idx);
      IntVec src_offsets = vl::lengths_to_offsets(a.lengths());
      IntVec starts = vl::gather(src_offsets, idx);
      IntVec base = vl::seg_dist(starts, out_lens);
      IntVec ranks = vl::segment_ranks(out_lens);
      IntVec positions = vl::add(base, vl::sub(ranks, Int{1}));
      return Array::nested(std::move(out_lens),
                           reference::gather(a.inner(), positions));
    }
  }
  throw RepresentationError("gather: corrupt array kind");
}

inline Array pack(const Array& a, const BoolVec& mask) {
  PROTEUS_REQUIRE(VectorError, a.length() == mask.size(),
                  "restrict: sequence and mask lengths differ");
  return reference::gather(a, vl::pack_indices(mask));
}

inline Array combine(const BoolVec& mask, const Array& t, const Array& f) {
  require_same_structure(t, f, "combine");
  PROTEUS_REQUIRE(VectorError, mask.size() == t.length() + f.length(),
                  "combine: #M must equal #V + #U");
  PROTEUS_REQUIRE(VectorError, true_count(mask) == t.length(),
                  "combine: mask true-count does not match #V");
  // Source index into concat(t, f): true positions take the i-th true
  // element of t, false positions the i-th false element of f.
  IntVec ones(mask.size());
  Int* op = ones.data();
  for (Size i = 0; i < mask.size(); ++i) op[i] = mask[i] ? 1 : 0;
  IntVec true_rank = vl::scan_add(ones);  // #true before i
  IntVec pos(mask.size());
  Int* pp = pos.data();
  const Int* tr = true_rank.data();
  for (Size i = 0; i < mask.size(); ++i) {
    pp[i] = mask[i] ? tr[i] : t.length() + (i - tr[i]);
  }
  vl::stats().record(mask.size());
  return reference::gather(concat(t, f), pos);
}

inline Array broadcast_element(const Array& a, Size i, Size n) {
  PROTEUS_REQUIRE(VectorError, i >= 0 && i < a.length(),
                  "broadcast_element: index out of range");
  return reference::gather(a, vl::dist(Int{i}, n));
}

inline Array seg_broadcast(const Array& a, const IntVec& counts) {
  PROTEUS_REQUIRE(VectorError, a.length() == counts.size(),
                  "dist: value and count sequences must have equal length");
  return reference::gather(a,
                           vl::seg_dist(vl::iota(a.length(), 0), counts));
}

}  // namespace proteus::seq::reference
