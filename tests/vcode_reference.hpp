// vcode_reference.hpp — brute-force restatements of VCODE control flow and
// liveness, shared by the tests of the dataflow core (vm/cfg_test.cpp) and
// of the memory planner's death tables (analysis/lifetime_test.cpp). They
// share no code with vm/cfg.hpp, which is what they check, and they are
// slow on purpose: one search per question.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vm/bytecode.hpp"

namespace proteus::testing {

/// CFG successors, restated from the opcode table.
inline std::vector<std::size_t> reference_successors(const vm::Function& fn,
                                                     std::size_t pc) {
  using vm::Op;
  const vm::Instr& in = fn.code[pc];
  const auto target = static_cast<std::size_t>(in.aux);
  const bool falls = pc + 1 < fn.code.size();
  switch (in.op) {
    case Op::kRet:
      return {};
    case Op::kJump:
      return {target};
    case Op::kJumpIfFalse:
    case Op::kBranchEmpty:
      return falls ? std::vector<std::size_t>{target, pc + 1}
                   : std::vector<std::size_t>{target};
    default:
      return falls ? std::vector<std::size_t>{pc + 1}
                   : std::vector<std::size_t>{};
  }
}

/// True when instruction pc has r among its operands.
inline bool reads(const vm::Function& fn, std::size_t pc, std::size_t r) {
  const vm::Instr& in = fn.code[pc];
  for (std::size_t i = 0; i < in.args_count; ++i) {
    if (fn.arg_pool[in.args_off + i] == r) return true;
  }
  return false;
}

/// True when instruction pc writes r as its destination.
inline bool writes(const vm::Function& fn, std::size_t pc, std::size_t r) {
  using vm::Op;
  const Op op = fn.code[pc].op;
  return op != Op::kRet && op != Op::kJump && op != Op::kJumpIfFalse &&
         op != Op::kBranchEmpty && fn.code[pc].dst == r;
}

/// Along some path from pc's successors, is r read before it is written?
/// A depth-first search over instructions; an instruction that reads r
/// answers yes (operands are read before the destination is written), one
/// that only writes r ends its path.
inline bool reference_live_out(const vm::Function& fn, std::size_t pc,
                               std::size_t r) {
  std::vector<char> seen(fn.code.size(), 0);
  std::vector<std::size_t> stack = reference_successors(fn, pc);
  while (!stack.empty()) {
    const std::size_t q = stack.back();
    stack.pop_back();
    if (seen[q] != 0) continue;
    seen[q] = 1;
    if (reads(fn, q, r)) return true;
    if (writes(fn, q, r)) continue;
    for (const std::size_t s : reference_successors(fn, q)) stack.push_back(s);
  }
  return false;
}

/// The pcs a depth-first search from pc 0 reaches (1) or not (0).
inline std::vector<char> reference_reachable(const vm::Function& fn) {
  std::vector<char> seen(fn.code.size(), 0);
  std::vector<std::size_t> stack;
  if (!fn.code.empty()) stack.push_back(0);
  while (!stack.empty()) {
    const std::size_t q = stack.back();
    stack.pop_back();
    if (seen[q] != 0) continue;
    seen[q] = 1;
    for (const std::size_t s : reference_successors(fn, q)) stack.push_back(s);
  }
  return seen;
}

}  // namespace proteus::testing
