// lifetime.hpp — static buffer-lifetime and memory-plan analysis over
// VCODE bytecode.
//
// The paper's flat vector operations make buffer lifetimes statically
// decidable: every VCODE register has a def / last-use interval in the
// instruction CFG, and the segment-descriptor representation gives each
// flat buffer a size that is an affine function of the input scale. This
// pass combines
//
//   * an interprocedural backward liveness / last-use dataflow over the
//     same instruction-level CFG the bytecode verifier (vm/verify.cpp)
//     walks for its must-define analysis, and
//   * a forward symbolic size propagation in an affine domain
//     c0 + c1*N (N = total leaf scalars of the function's inputs), with
//     widening at join points and call-summary composition,
//
// into a per-function MemoryPlan:
//
//   * deaths[pc]       — registers whose value is dead after pc; the VM
//                        clears them so sole-owner buffers are freed at
//                        their last use,
//   * peak_bytes       — a static peak-resident-bytes bound for one call
//                        (admission control: docs/SERVING.md),
//   * static_allocs    — how many instructions of the function allocate a
//                        fresh buffer,
//
// plus M3xx warnings for wasteful patterns the optimizer missed (dead
// stores, reduce-only materializations, redundant copies). The plan is
// attached by the compile pipeline and derived again by the PVCM loader
// (vm/module_io.*; images do not store it), rendered by disasm and
// `proteusc --analyze=memory`, and consumed by the VM's death clearing
// and admission control. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "kernels/vvalue.hpp"
#include "vm/bytecode.hpp"

namespace proteus::analysis {

/// Affine symbolic byte/element bound c0 + c1*N, where N is the total
/// number of leaf scalars across the function's arguments. `unbounded`
/// is the domain's top (recursion, data-dependent sizes, descriptor
/// surgery the domain cannot track). Arithmetic saturates at 2^64-1.
struct SymBound {
  std::uint64_t c0 = 0;
  std::uint64_t c1 = 0;
  bool unbounded = false;

  static SymBound konst(std::uint64_t c) { return {c, 0, false}; }
  static SymBound linear(std::uint64_t c0, std::uint64_t c1) {
    return {c0, c1, false};
  }
  static SymBound top() { return {0, 0, true}; }

  [[nodiscard]] bool is_top() const { return unbounded; }

  /// Saturating pointwise sum / coefficient-wise max (the domain join).
  [[nodiscard]] SymBound plus(const SymBound& o) const;
  [[nodiscard]] SymBound max(const SymBound& o) const;
  /// Saturating scale by a constant factor.
  [[nodiscard]] SymBound times(std::uint64_t k) const;
  /// Substitutes N := `inner` (interprocedural summary composition):
  /// (c0 + c1*N) ∘ inner = c0 + c1*inner.c0 + (c1*inner.c1)*N.
  [[nodiscard]] SymBound compose(const SymBound& inner) const;
  /// Evaluates at a concrete input scale; 2^64-1 when unbounded.
  [[nodiscard]] std::uint64_t eval(std::uint64_t n) const;

  /// "512", "64 + 8*N", or "unbounded".
  [[nodiscard]] std::string to_text() const;

  bool operator==(const SymBound&) const = default;
};

/// The memory plan of one compiled function (parallel to its code).
struct FunctionPlan {
  /// CSR layout over pcs (death_off has code.size()+1 entries): the
  /// registers in death_regs[death_off[pc], death_off[pc+1]) hold values
  /// that are dead once pc's instruction has read its operands. The VM
  /// resets them so sole-owner buffers are freed immediately.
  std::vector<std::uint32_t> death_off;
  std::vector<std::uint16_t> death_regs;
  /// Static peak-resident bound for one call of this function, covering
  /// live buffers, the in-flight allocation and callee peaks (doubled,
  /// plus slack; see lifetime.cpp).
  SymBound peak_bytes;
  /// Instructions of this function that allocate a fresh buffer.
  std::uint32_t static_allocs = 0;

  bool operator==(const FunctionPlan&) const = default;
};

/// The module-wide plan artifact: one FunctionPlan per Module function.
struct MemoryPlan {
  std::vector<FunctionPlan> functions;
  bool operator==(const MemoryPlan&) const = default;
};

/// plan_module's result: the plan plus M3xx wasteful-pattern warnings
/// (never errors — a plan always exists for a verified module).
struct PlanResult {
  MemoryPlan plan;
  Report report;
};

/// Computes the memory plan of a module. The module must be structurally
/// sound (vm::verify_module passes): the pass indexes operand pools and
/// register files unguarded, exactly like the verifier's dataflow.
/// Deterministic: equal modules produce equal plans (the PVCM loader in
/// vm/module_io.cpp derives the plan instead of storing it because of
/// this).
[[nodiscard]] PlanResult plan_module(const vm::Module& m);

/// Total leaf scalars across an argument list — the concrete N a
/// function's symbolic bounds are expressed over.
[[nodiscard]] std::uint64_t input_scale(
    const std::vector<kernels::VValue>& args);

/// Renders one function's plan as the disassembler's summary line
/// (peak bound, static allocation count).
[[nodiscard]] std::string plan_to_text(const FunctionPlan& plan);

}  // namespace proteus::analysis
