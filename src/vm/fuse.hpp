// fuse.hpp — the VCODE optimizer: per-function dataflow over assembled
// bytecode that (a) turns the identity gathers R1's iterators leave,
// seq_index^1(v, range1(length(v))) and its seq_index_inner^1 form one
// level down, into moves of v, (b) collapses chains of depth-1
// elementwise instructions over a common frame into single-pass
// kFusedMap superinstructions, (c) propagates copies and removes the
// moves, constants and length/range1 instructions left dead, and (d)
// marks each fused operand's last use so the VM can move a dying
// register into the kernel and run the chain in place in its buffer.
//
// The optimizer is semantics-preserving by construction: results and
// thrown errors match the unoptimized stream. A fused chain reports the
// same primitive_calls / element_work / per-prim tallies as the
// instructions it replaced (see kernels/fused.hpp); the logical work
// drops only by what the elided gathers and their dead length/range1
// recorded. Physical buffer allocations (vl.buffer_allocs) drop too —
// one output buffer per chain instead of one per instruction.
#pragma once

#include <cstdint>
#include <memory>

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
};

/// Optimizes every function of `m` and returns the rewritten module (the
/// input is not modified; unoptimized callers can keep running it).
[[nodiscard]] std::shared_ptr<const Module> optimize_module(
    const Module& m, FuseStats* stats = nullptr);

}  // namespace proteus::vm
