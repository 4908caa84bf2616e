// fuse.hpp — the VCODE optimizer: per-function dataflow over assembled
// bytecode. Functions without calls are optimized first; every other
// function then runs these passes, in order:
//
//   0. inlining each call of a leaf: a function whose optimized code is
//      straight-line (no branch, no call) and at most kInlineLimit
//      instructions. The body is copied in over fresh registers, its
//      parameters become moves from the arguments and its ret a write of
//      the call's destination. An inlined call is no frame: it counts in
//      neither vm.calls nor the call-depth limit;
//   1. one forward reaching-definitions pass over the CFG of vm/cfg.hpp
//      that, as it goes, (a) turns identity gathers into moves and
//      (b) propagates copies across blocks. The identity gathers are the
//      ones R1's iterators leave, seq_index^1(v, range1(length(v))) and
//      its seq_index_inner^1 form one level down, plus an extension's
//      prologue seq_index^1(Vk, range1(length(Vj))) over two frame
//      parameters (see FrameParams). A use of a move's destination
//      reads the move's source instead wherever that move is the only
//      definition reaching the use and the source still holds the value
//      it copied; a move survives only where its destination has more
//      than one reaching definition (a branch join);
//   2. renaming an in-block definition that a later one in the same
//      block overwrites to a fresh register when a chain member reads
//      it, so register reuse by the assembler cannot cut a fusion chain;
//   3. collapsing chains of depth-1 elementwise instructions over a
//      common frame into single-pass kFusedMap superinstructions, and a
//      chain that ends in insert + a segmented reduce over a depth-0
//      `dist(v, n)` into one that never builds the dist: the dist, the
//      length^1/dist^1 pairs that spread a scalar per segment over it,
//      the extracts reading both and the insert are absorbed (see
//      kernels/fused.hpp). A rename of pass 2 that no chain needed is
//      then undone;
//   4. removing the moves, constants and length/range1 instructions left
//      dead;
//   5. marking each fused operand's last use so the VM can move a dying
//      register into the kernel and run the chain in place in its buffer.
//
// The optimizer is semantics-preserving by construction: results and
// thrown errors match the unoptimized stream. A fused chain reports the
// same primitive_calls / element_work / per-prim tallies as the
// instructions it replaced (see kernels/fused.hpp); the logical work
// drops only by what the elided gathers and their dead length/range1
// recorded, extension prologues included. Physical buffer allocations
// (vl.buffer_allocs) drop too — one output buffer per chain instead of
// one per instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lang/ast.hpp"

namespace proteus::vm {

struct Module;

/// Tallies of one optimize_module run (surfaced by proteusc --stats and
/// the pipeline's optimize-vcode span).
struct FuseStats {
  std::uint64_t fused_chains = 0;      ///< kFusedMap superinstructions made
  std::uint64_t fused_prims = 0;       ///< elementwise instrs folded in
  std::uint64_t eliminated_instrs = 0; ///< instructions removed outright
  std::uint64_t eliminated_moves = 0;  ///< of which register moves
  std::uint64_t elided_gathers = 0;    ///< identity gathers made moves
  std::uint64_t inlined_calls = 0;     ///< leaf calls replaced by the body
};

/// The frame record of one function: flag k is set when parameter k is
/// a frame of a depth-1 extension f^1, so that on entry every flagged
/// parameter has the same length. This holds by construction: R0 makes
/// every non-function parameter of f^1 a sequence, both R2c call rules
/// lift every non-function argument to a frame of the call's depth, T1
/// extracts those frames uniformly, and the shape analyzer checks it
/// (V101/V102, docs/ANALYSIS.md). Extensions carry no Signature, so only
/// the compiler's own call sites reach them. Empty: no record, and no
/// elision relies on one.
using FrameParams = std::vector<std::uint8_t>;

/// The frame records of `program`'s depth-1 extensions, parallel to the
/// functions of `m` = compile_module(program).
[[nodiscard]] std::vector<FrameParams> extension_frames(
    const lang::Program& program, const Module& m);

/// Largest optimized leaf, in instructions (its ret included), that pass
/// 0 inlines.
inline constexpr std::size_t kInlineLimit = 16;

/// Optimizes every function of `m` and returns the rewritten module (the
/// input is not modified; unoptimized callers can keep running it).
/// `frames` (parallel to m.functions, possibly shorter) is the frame
/// record of each function; it is not stored in the module.
[[nodiscard]] std::shared_ptr<const Module> optimize_module(
    const Module& m, FuseStats* stats = nullptr,
    std::span<const FrameParams> frames = {});

}  // namespace proteus::vm
