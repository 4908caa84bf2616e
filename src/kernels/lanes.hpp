// lanes.hpp — the VM's one definition of every elementwise primitive.
//
// Each (prim, operand kinds) pair the VM accepts is one typed lane kernel
// (Kern), defined once in run_kern's table over a run of lanes. A depth-0
// application runs it on one lane (apply_prim0), a depth-1 extension over
// the frames block by block (apply_prim1), and a fused chain over each
// block of its single pass (eval_fused), so the three can never disagree
// on a value or an error. The reference interpreter keeps its own
// definitions: it is the independent oracle these are tested against.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lang/ast.hpp"
#include "seq/nested.hpp"

namespace proteus::kernels {

/// Scalar kinds of lane operands; kOther marks values no kernel accepts
/// (tuples, nested frames, broadcast aggregates), so selection fails with
/// the same diagnostic wherever it runs.
enum class K : std::uint8_t { kInt, kReal, kBool, kOther };

constexpr std::size_t elem_size(K k) {
  return k == K::kBool ? sizeof(vl::Bool) : sizeof(vl::Int);
}

/// The typed lane kernels, one per (prim, operand-kind) pair.
enum class Kern : std::uint8_t {
  kAddI, kSubI, kMulI, kDivI, kModI, kMinI, kMaxI,
  kEqI, kNeI, kLtI, kLeI, kGtI, kGeI,
  kAddR, kSubR, kMulR, kDivR, kMinR, kMaxR,
  kEqR, kNeR, kLtR, kLeR, kGtR, kGeR,
  kAndB, kOrB, kEqB, kNeB,
  kNegI, kNegR, kToReal, kToInt, kSqrtR, kNotB,
};

struct KernSel {
  Kern kern{};
  K out = K::kOther;
  const char* len_name = nullptr;  ///< vl kernel name for the length check
  bool two_records = false;        ///< Bool eq = not(xor): two vl records
};

/// The kernel of binary `p` on operands of kinds (ka, kb); false when the
/// VM has none.
[[nodiscard]] bool select_binary(lang::Prim p, K ka, K kb, KernSel& sel);

/// The kernel of unary `p` on an operand of kind `ka`.
[[nodiscard]] bool select_unary(lang::Prim p, K ka, KernSel& sel);

/// d[i] = k(a[i], b[i]) for i in [0, len); an operand flagged scalar is one
/// value every lane reads (a broadcast, a segment splat, a depth-0 value).
/// Unary kernels ignore b. Throws EvalError on a zero Int divisor, at the
/// first such lane.
void run_kern(Kern k, bool scalar_a, const void* a, bool scalar_b,
              const void* b, void* d, vl::Size len);

/// The vl length check of a binary kernel over operands of la and lb
/// lanes, with the text of the vl call it stands for.
void check_lane_lengths(const KernSel& sel, vl::Size la, vl::Size lb);

/// The lane kind of an array's elements (kOther unless they are scalars).
[[nodiscard]] K leaf_kind(seq::Array::Kind k);

/// The element data of a scalar array (null for any other kind).
[[nodiscard]] const void* leaf_data(const seq::Array& a);

}  // namespace proteus::kernels
