// lifetime.hpp — static buffer-lifetime analysis over VCODE bytecode.
//
// The paper's flat vector operations make buffer lifetimes statically
// decidable: every VCODE register has a def / last-use interval in the
// instruction CFG. A backward may-liveness over that CFG (the shared
// vm::Liveness of vm/cfg.hpp, which the optimizer reads too) gives a
// per-function MemoryPlan:
//
//   * deaths[pc]       — registers whose value is dead after pc; the VM
//                        clears them so sole-owner buffers are freed at
//                        their last use,
//   * static_allocs    — how many reachable instructions of the function
//                        allocate a fresh buffer,
//
// plus M3xx warnings for wasteful patterns the optimizer missed (dead
// stores, reduce-only materializations, redundant copies). The plan holds
// no size bound: descriptor lengths are runtime values and flattened
// recursion is data-dependent, so a bound over the input size is top on
// the paper's central programs. The plan is attached by the compile
// pipeline and derived again by the PVCM loader (vm/module_io.*; images
// do not store it), rendered by disasm and `proteusc --analyze=memory`,
// and consumed by the VM's death clearing. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "vm/bytecode.hpp"

namespace proteus::analysis {

/// The memory plan of one compiled function (parallel to its code).
struct FunctionPlan {
  /// CSR layout over pcs (death_off has code.size()+1 entries): the
  /// registers in death_regs[death_off[pc], death_off[pc+1]) hold values
  /// that are dead once pc's instruction has read its operands. The VM
  /// resets them so sole-owner buffers are freed immediately.
  std::vector<std::uint32_t> death_off;
  std::vector<std::uint16_t> death_regs;
  /// Reachable instructions of this function that allocate a fresh buffer.
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

/// Renders one function's plan as the disassembler's summary line
/// (its static allocation count).
[[nodiscard]] std::string plan_to_text(const FunctionPlan& plan);

}  // namespace proteus::analysis
