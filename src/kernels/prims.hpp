// prims.hpp — the shared kernel table: vector-model implementations of the
// Table 2 primitives and their depth-1 parallel extensions (Section 4.4).
//
// The bytecode vm::VM funnels every primitive application through this
// one table (its fused superinstructions through kernels/fused.hpp), so
// the kernels are testable on their own and a kernel fix reaches every
// opcode at once.
//
// apply_prim0 evaluates a primitive on depth-0 values (scalars and whole
// sequences); apply_prim1 evaluates the depth-1 extension on frames, where
// broadcast (depth-0) arguments are either served by a shared-source fast
// path (seq_index's fixed source, Section 4.5) or replicated across the
// frame first. Depth >= 2 extensions never reach this layer: the T1
// translation reduced them to extract / depth-1 / insert.
#pragma once

#include <vector>

#include "kernels/vvalue.hpp"
#include "lang/ast.hpp"

namespace proteus::kernels {

/// Controls the Section 4.5 shared-source fast paths (the ablation bench
/// flips this off to measure the replication cost the paper describes).
struct PrimOptions {
  bool shared_source_gather = true;
};

/// Depth-0 primitive application (includes extract/insert/any_true).
[[nodiscard]] VValue apply_prim0(lang::Prim op,
                                 const std::vector<VValue>& args);

/// Depth-1 parallel extension; lifted[i] == 0 marks a broadcast argument
/// (empty `lifted` means all arguments are frames).
[[nodiscard]] VValue apply_prim1(lang::Prim op,
                                 const std::vector<VValue>& args,
                                 const std::vector<std::uint8_t>& lifted,
                                 const PrimOptions& options = {});

/// Charges dist^1(s, counts) for `n` scalars s and `n` counts that all
/// equal `len` (the length^1 of a tile), without building it: the clamp
/// of the counts, then seq::seg_broadcast.
void charge_dist_1_uniform(vl::Size n, vl::Size len);

/// The check reduce^1 `op` makes of its segment lengths before it reduces
/// (maxval/minval refuse an empty segment), with the work it charges.
void check_reduce_segments(lang::Prim op, const vl::IntVec& lens);

/// Rule R2d's empty_frame: same structure as `mask` above the deepest
/// level, no elements at depth `depth`; `type` is Seq^depth(beta).
[[nodiscard]] VValue empty_frame_value(const VValue& mask, int depth,
                                       const lang::TypePtr& type);

/// True when any leaf of the (arbitrary-depth) boolean frame is true.
[[nodiscard]] bool any_true_frame(const VValue& frame);

/// seq_cons^1: builds one length-k sequence per frame slot from k
/// conformable element frames.
[[nodiscard]] VValue seq_cons1(const std::vector<VValue>& elems);

/// seq_cons at depth 0: the sequence literal [e1, ..., en]; `elem_type` is
/// the static element type (required when `elems` is empty).
[[nodiscard]] VValue seq_cons0(const std::vector<VValue>& elems,
                               const lang::TypePtr& elem_type);

/// Tuple construction; depth 1 builds the structure-of-arrays frame of
/// conformable component frames.
[[nodiscard]] VValue tuple_cons(std::vector<VValue> elems, int depth);

/// 1-origin tuple component extraction; depth 1 selects the component
/// array out of a tuple frame.
[[nodiscard]] VValue tuple_get(const VValue& tuple, int index, int depth);

}  // namespace proteus::kernels
