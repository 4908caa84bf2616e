// ops.hpp — structural kernels on the vector representation.
//
// Each operation here lifts a flat vl primitive through the element
// structure of an Array: scalar leaves run the vl kernel once, tuple
// elements run it per component, and sequence elements run it on the
// descriptor and recurse on the inner elements.
//
// The vector model defines each operation as a composition of its own
// primitives: selecting sequence elements expands the selected segments
// into a position vector (seg_dist of their starts plus segment_ranks - 1)
// and gathers the level below by it; restrict gathers by pack_indices,
// combine gathers from concat(V, U), dist^1 gathers by a distributed iota.
// The data moves in one pass over each output level instead: whole
// segments are copied level by level as ranges (gather_ranges), and scalar
// leaves run vl::pack, vl::combine and vl::seg_dist directly. The work is
// still charged as the composed definition: the same vl::stats() records
// in the same order, with the same sizes and segment counts, so the
// element work, primitive calls, step budgets and injected kernel faults
// are those of the vector model; only buffer_allocs is lower. The
// compositions are kept as the test oracle in tests/seq/ops_reference.hpp.
#pragma once

#include <vector>

#include "seq/nested.hpp"

namespace proteus::seq {

/// out[i] = a[idx[i]] (0-origin element selection; duplicates allowed).
[[nodiscard]] Array gather(const Array& a, const IntVec& idx);

/// Elements of `a` at the true positions of `mask` — the paper's
/// restrict(V, M) on the representation.
[[nodiscard]] Array pack(const Array& a, const BoolVec& mask);

/// The paper's combine(M, V, U): #mask == t.length() + f.length() and
/// `mask` has t.length() true flags (both checked, VectorError); result
/// takes from `t` at true positions and `f` at false positions.
[[nodiscard]] Array combine(const BoolVec& mask, const Array& t,
                            const Array& f);

/// Concatenation of two conformable (same element structure) arrays.
[[nodiscard]] Array concat(const Array& a, const Array& b);

/// Concatenation of one or more conformable arrays in one pass, charged
/// as the last step of the pairwise chain concat(concat(p0, p1), ..): one
/// binary concat of all their elements.
[[nodiscard]] Array concat(const std::vector<const Array*>& parts);

/// Charges concat(concat(parts[0..k-2]), parts[k-1]) without building it:
/// the structure check of the last part and one binary concat of all the
/// parts' elements.
void charge_concat(const std::vector<const Array*>& parts);

/// Whole ranges of one or more arrays of one element structure (the
/// bases), in output order: for group g and pattern slot j in [0, k), with
/// k = from.size(), the elements [start[g*k + j], start[g*k + j] +
/// len[g*k + j]) of bases[from[j]].
struct Ranges {
  std::vector<std::size_t> from;
  IntVec start;
  IntVec len;
};

/// The elements the ranges select, concatenated, moved once: scalar
/// leaves copy each range, a tuple copies its components by the same
/// ranges, and a sequence level copies the selected lengths and recurses
/// with the ranges they span one level down. Charged as the composed
/// gather of those elements from the concatenation of the bases (by the
/// positions the ranges expand to); building the positions and the
/// concatenation is for the caller to charge. Ranges must lie inside
/// their bases (not checked).
[[nodiscard]] Array gather_ranges(const std::vector<const Array*>& bases,
                                  const Ranges& r);

/// Charges gather(a, p) for an index vector p that selects every element
/// of `a` once, without building it.
void charge_gather_each(const Array& a);

/// The empty array with the same element structure as `a` (rule R2d's
/// empty_frame on representations).
[[nodiscard]] Array empty_like(const Array& a);

/// n copies of element i of `a` — dist(c, n) for a non-scalar c.
[[nodiscard]] Array broadcast_element(const Array& a, Size i, Size n);

/// dist^1: element i of `a` replicated counts[i] times, concatenated.
[[nodiscard]] Array seg_broadcast(const Array& a, const IntVec& counts);

/// Charges the work of broadcast_element(nested([len], v), 0, n) — the
/// depth-0 dist(v, n) of a sequence v of `len` scalars — without building
/// it (the fused evaluator's tile operand).
void charge_broadcast_row(Size len, Size n);

/// Charges the work of seg_broadcast(a, counts) over `n` scalars and
/// non-negative counts summing to `total`, without building it (the
/// fused evaluator's segment-splat operand).
void charge_seg_broadcast(Size n, Size total);

/// Single element i of `a` as a one-element array.
[[nodiscard]] Array element(const Array& a, Size i);

/// Elements [lo, lo+len) of `a`.
[[nodiscard]] Array slice(const Array& a, Size lo, Size len);

/// Structural conformability (same kinds/arity at every level); value
/// lengths are not compared.
[[nodiscard]] bool same_structure(const Array& a, const Array& b);

}  // namespace proteus::seq
