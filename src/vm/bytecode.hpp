// bytecode.hpp — the VCODE-style linear instruction format the bytecode VM
// executes.
//
// A tree walk over the V-form AST would pay, on every call, per-node
// variant dispatch, environment lookups by string, and re-resolution of
// callee functions at every flattened-recursion level. Historically the
// paper's T1 target was not a syntax tree but a *linear* segmented-vector
// instruction stream (VCODE over CVL) run by a small abstract machine;
// this module is that substrate. A V program compiles once into flat
// code — slot-addressed virtual registers, a constant pool, pre-resolved
// call targets, and explicit branches — and the dispatch loop in vm.hpp
// replays it with nothing left to look up.
//
// One opcode covers each vl primitive family (elementwise, build, gather,
// pack, reduce, segment-surgery, extract/insert) with the concrete
// lang::Prim carried as the selector; control flow is kCall / kRet /
// kBranchEmpty — the branch-on-empty-frame that guards the paper's
// flattened recursion (rule R2d's any_true(M) test, fused with its `if`).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/fused.hpp"
#include "kernels/vvalue.hpp"
#include "lang/ast.hpp"

namespace proteus::analysis {
struct MemoryPlan;
}  // namespace proteus::analysis

namespace proteus::vm {

/// VM opcodes. The kPrim* block is metadata-rich dispatch: every member
/// funnels into the shared kernel table keyed by `Instr::prim` and
/// `Instr::depth`; the distinction exists so profiles and disassembly
/// group work by vl primitive family.
enum class Op : std::uint8_t {
  // value movement
  kConst,       ///< dst <- constants[aux]
  kLoadFun,     ///< dst <- function value functions[aux].name
  kMove,        ///< dst <- reg args[0]
  // vl primitive families (selector: prim + depth)
  kScalar,      ///< depth-0 scalar arithmetic / comparison / logic
  kElementwise, ///< depth-1 elementwise kernels
  kBuild,       ///< range / range1 / dist (iota + distribute family)
  kGather,      ///< seq_index / seq_index_inner (permute family)
  kPack,        ///< restrict / combine / update (pack + scatter family)
  kReduce,      ///< length / sum / maxval / minval / any / all / any_true
  kSegment,     ///< flatten / concat / reverse / zip (descriptor surgery)
  kExtract,     ///< representation extract (Figure 2)
  kInsert,      ///< representation insert (Figure 2)
  kEmptyFrame,  ///< rule R2d's empty frame; aux = types[] index
  // constructors
  kSeqCons,     ///< sequence literal; depth 0 or 1; aux = types[] index or -1
  kTuple,       ///< tuple construction at depth 0/1
  kTupleGet,    ///< tuple component extraction; aux = 1-origin index
  // superinstructions (emitted by the optimizer in fuse.hpp, never by the
  // assembler)
  kFusedMap,    ///< single-pass elementwise chain; aux = Function::fused idx
  // control
  kCall,        ///< dst <- functions[aux](args); aux2 = name for diagnostics
  kCallIndirect,///< dst <- (reg args[0])^depth(args[1..])
  kBranchEmpty, ///< if !any_true_frame(reg args[0]) then pc <- aux
  kJump,        ///< pc <- aux
  kJumpIfFalse, ///< if !reg args[0] then pc <- aux
  kRet,         ///< return reg args[0]
};

inline constexpr int kNumOps = static_cast<int>(Op::kRet) + 1;

/// Printable mnemonic of an opcode.
[[nodiscard]] const char* op_name(Op op);

/// One VM instruction. Fixed-size: variable-length operand lists live in
/// the owning function's `arg_pool` (args_off/args_count) and the set of
/// broadcast flags in its `lifted_sets` (lifted index).
struct Instr {
  Op op = Op::kRet;
  lang::Prim prim = lang::Prim::kAdd;  ///< selector for the kPrim* block
  std::uint8_t depth = 0;              ///< 0 or 1 (empty_frame: frame depth)
  std::uint16_t dst = 0;               ///< destination register
  std::uint16_t args_count = 0;
  std::uint32_t args_off = 0;          ///< into Function::arg_pool
  std::int32_t lifted = -1;            ///< into Function::lifted_sets, or -1
  std::int32_t aux = -1;               ///< const/fun/type index, branch target
  std::int32_t aux2 = -1;              ///< secondary payload (name index)
};

/// One compiled function: params arrive in registers [0, n_params).
struct Function {
  std::string name;
  std::uint16_t n_params = 0;
  std::uint16_t n_regs = 0;
  std::vector<Instr> code;
  std::vector<std::uint16_t> arg_pool;
  std::vector<std::vector<std::uint8_t>> lifted_sets;
  std::vector<kernels::FusedExpr> fused;  ///< kFusedMap micro-expressions
};

/// External calling convention of one function: the *source-level* (P)
/// parameter and result types that guide boxed-value conversion at the
/// module boundary (kernels::from_boxed / to_boxed). Populated by the
/// pipeline from the type-checked program for user-visible functions (and
/// the entry expression); the `^d` parallel extensions the transformation
/// manufactures are internal and carry no signature. Serialized with the
/// module (vm/module_io.hpp), which is what lets a loaded module be
/// called without any AST in sight.
struct Signature {
  bool present = false;
  std::vector<lang::TypePtr> params;
  lang::TypePtr result;
};

/// A linked module: every function of a V program plus shared pools. The
/// optional entry expression compiles as the parameterless function at
/// index `entry`.
struct Module {
  std::vector<Function> functions;
  std::unordered_map<std::string, std::uint32_t> fn_index;
  std::vector<kernels::VValue> constants;
  std::vector<lang::TypePtr> types;    ///< empty_frame / empty-literal types
  std::vector<std::string> names;      ///< unresolved-call diagnostics
  std::vector<Signature> signatures;   ///< parallel to `functions`; may be
                                       ///< empty for hand-built modules
  std::int32_t entry = -1;

  /// Memory plan computed by analysis::plan_module (one FunctionPlan per
  /// function) — attached by the pipeline's plan-memory stage and derived
  /// by the PVCM loader (images do not store it); null for hand-built
  /// modules. Shared and immutable: VMs read it concurrently.
  std::shared_ptr<const analysis::MemoryPlan> plan;

  [[nodiscard]] const Function* find(const std::string& name) const {
    auto it = fn_index.find(name);
    return it == fn_index.end() ? nullptr : &functions[it->second];
  }

  /// Signature of function `index`, or null when none was recorded.
  [[nodiscard]] const Signature* signature(std::uint32_t index) const {
    if (index >= signatures.size() || !signatures[index].present) {
      return nullptr;
    }
    return &signatures[index];
  }
};

}  // namespace proteus::vm
