// fused.hpp — single-pass evaluation of fused elementwise chains.
//
// The VCODE optimizer (vm/fuse.hpp) collapses a chain of depth-1
// elementwise instructions over a common frame into one kFusedMap
// superinstruction carrying a micro-expression: a tiny post-order program
// whose leaves are the surviving operand registers (or broadcast scalars)
// and whose interior nodes are elementwise prims. This module evaluates
// such an expression in ONE pass over the data — block by block through a
// per-thread scratch arena instead of one full Vec materialization per
// intermediate — and can run the whole chain in place in the buffer of a
// dying input (the optimizer marks last uses; sole ownership is checked
// at run time via the Array spine's use count).
//
// A chain may also end in a segmented reduce (sum/maxval/minval/any/all
// of the reduce^1 family) over the segments of a `dist(v, n)` it never
// builds: the optimizer absorbs that dist (the *tile*), the length^1 and
// dist^1 that spread one scalar per segment over it (a *segment splat*),
// and the depth-1 extracts and inserts around the elementwise members.
// Segment i, element j of a tile reads v[j]; every element of segment i
// of a segment splat reads s[i]. The pass walks the segments block by
// block and folds each one into its output slot, so neither the n·#v
// copy of v nor the spread of s exists.
//
// Cost-model contract: primitive_calls / element_work and the throw
// behaviour of a fused chain are emulated node-for-node to match what the
// unfused instructions would have reported — engines must stay
// indistinguishable to the differential and stats-parity harnesses. Only
// vl::VectorStats::buffer_allocs is allowed to drop: that counter is
// physical, and its reduction is the point of the optimization. Absorbed
// structural instructions charge through the charge helpers of the
// kernels they replace; any operand the fast path cannot address (a tile of
// nested or tuple elements, a non-conformable splat) is built by the real
// kernel instead, so its errors and records are the real ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "kernels/vvalue.hpp"
#include "lang/ast.hpp"

namespace proteus::kernels {

/// One node of a fused micro-expression.
struct MicroOp {
  enum class Kind : std::uint8_t { kInput, kPrim };
  Kind kind = Kind::kInput;
  lang::Prim prim = lang::Prim::kAdd;  ///< kPrim: the elementwise prim
  std::uint8_t a = 0;                  ///< kPrim: operand node index (< own)
  std::uint8_t b = 0;                  ///< kPrim binary: second operand
  std::uint8_t input = 0;              ///< kInput: operand slot of the instr
};

// Flags on each operand slot of a fused instruction.
inline constexpr std::uint8_t kFusedBroadcast = 1;  ///< depth-0 arg: splat
inline constexpr std::uint8_t kFusedLastUse = 2;    ///< register dies here
/// Slot 0 of a reduce-rooted chain: the v of the absorbed dist(v, n);
/// each leaf reading it is an absorbed extract of that dist.
inline constexpr std::uint8_t kFusedTile = 4;
/// Slot 1 of a reduce-rooted chain: the n of the tile (no leaf reads it).
inline constexpr std::uint8_t kFusedCount = 8;
/// The s of an absorbed dist^1(s, length^1(tile)); each leaf reading it is
/// an absorbed extract of that dist^1.
inline constexpr std::uint8_t kFusedSegSplat = 16;
inline constexpr std::uint8_t kFusedSlotFlags =
    kFusedBroadcast | kFusedLastUse | kFusedTile | kFusedCount |
    kFusedSegSplat;

/// A fused elementwise chain: `nodes` in post-order (every operand index
/// precedes its user; the root is nodes.back()), one input_flags entry per
/// operand slot of the carrying instruction. With `reduce` set, the chain
/// is the body of reduce^1(insert(body, dist(v, n))): slot 0 is the tile
/// (kFusedTile), slot 1 its count (kFusedCount), and the result holds one
/// reduced value per segment.
struct FusedExpr {
  std::vector<MicroOp> nodes;
  std::vector<std::uint8_t> input_flags;
  std::optional<lang::Prim> reduce;
  /// Absorbed depth-1 extracts (of the tile and splats, and between two
  /// members), which charge nothing.
  std::uint8_t extracts = 0;
  /// Absorbed inserts between two members of a reduce-rooted chain: each
  /// entry is the interior node after whose charges one insert charges
  /// (the last member before it in the unfused code). The final insert,
  /// before the reduce, is implied by `reduce`.
  std::vector<std::uint8_t> reinserts;
  [[nodiscard]] std::size_t n_inputs() const { return input_flags.size(); }
};

/// True when `p` may root a fused chain as its segmented reduce.
[[nodiscard]] bool fusible_reduce(lang::Prim p);

/// Calls f(prim) once for every instruction `e` replaced: the tile's
/// dist, each splat's length^1 and dist^1, the extracts, the elementwise
/// prims, the inserts and the reduce. The VM counts prim applications
/// through it.
template <typename F>
void for_each_application(const FusedExpr& e, F&& f) {
  if (e.reduce) {
    f(lang::Prim::kDist);
    for (const std::uint8_t flags : e.input_flags) {
      if ((flags & kFusedSegSplat) != 0) {
        f(lang::Prim::kLength);
        f(lang::Prim::kDist);
      }
    }
  }
  for (std::uint8_t i = 0; i < e.extracts; ++i) f(lang::Prim::kExtract);
  for (const MicroOp& mo : e.nodes) {
    if (mo.kind == MicroOp::Kind::kPrim) f(mo.prim);
  }
  for (std::size_t i = 0; i < e.reinserts.size(); ++i) f(lang::Prim::kInsert);
  if (e.reduce) {
    f(lang::Prim::kInsert);
    f(*e.reduce);
  }
}

/// Node-count cap: child indices are uint8 and the per-thread scratch
/// arena stays cache-sized.
inline constexpr std::size_t kMaxFusedNodes = 64;

/// True when `p` belongs to the fusible elementwise family (the prims of
/// the lane table, kernels/lanes.hpp).
[[nodiscard]] bool fusible_prim(lang::Prim p);

/// Evaluates the chain over `inputs` (one VValue per operand slot; slots
/// flagged kFusedLastUse arrive as the moved-out register contents, which
/// enables in-place reuse). Serial and OpenMP paths, selected exactly like
/// the unfused kernels.
[[nodiscard]] VValue eval_fused(const FusedExpr& e,
                                std::vector<VValue> inputs);

}  // namespace proteus::kernels
