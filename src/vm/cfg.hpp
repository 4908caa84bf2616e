// cfg.hpp — what the VCODE opcodes mean for control flow and dataflow:
// which opcodes write Instr::dst, the instruction-level successor walk,
// and one backward may-liveness over it. The optimizer (vm/fuse.cpp), the
// verifier (vm/verify.cpp) and the memory planner (analysis/lifetime.cpp)
// all read these instead of keeping their own copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vm/bytecode.hpp"

namespace proteus::vm {

/// True when the opcode writes Instr::dst.
constexpr bool writes_dst(Op op) {
  switch (op) {
    case Op::kBranchEmpty:
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kRet:
      return false;
    default:
      return true;
  }
}

/// True for the opcodes that may transfer control to Instr::aux.
constexpr bool is_branch(Op op) {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kBranchEmpty;
}

/// True when operand `slot` of `in` is a frame (lifted) operand, not a
/// broadcast scalar. No lift set, or an empty one, lifts every operand.
inline bool lifted_operand(const Function& fn, const Instr& in,
                           std::size_t slot) {
  if (in.lifted < 0) return true;
  const auto& set = fn.lifted_sets[static_cast<std::size_t>(in.lifted)];
  return set.empty() || set[slot] != 0;
}

/// The CFG successors of one instruction (at most two), iterable.
struct Successors {
  std::size_t pc[2] = {0, 0};
  std::size_t count = 0;

  [[nodiscard]] const std::size_t* begin() const { return pc; }
  [[nodiscard]] const std::size_t* end() const { return pc + count; }
};

/// Successors of `in` at `pc` in code of `n` instructions: kRet has none,
/// kJump goes to aux, kJumpIfFalse / kBranchEmpty go to aux and fall
/// through, every other op falls through. A fall-through past the end is
/// dropped; a branch target is returned as written (the verifier, which
/// reads untrusted images, bounds it itself).
constexpr Successors successors(const Instr& in, std::size_t pc,
                                std::size_t n) {
  Successors s;
  if (in.op == Op::kRet) return s;
  if (is_branch(in.op)) s.pc[s.count++] = static_cast<std::size_t>(in.aux);
  if (in.op != Op::kJump && pc + 1 < n) s.pc[s.count++] = pc + 1;
  return s;
}

/// One instruction as the dataflow reads it: its fixed fields and its
/// operand registers, wherever the caller keeps them.
struct InstrView {
  const Instr& in;
  std::span<const std::uint16_t> args;
};

/// Backward may-liveness over one function's instruction-level CFG, one
/// bit per register per pc: live_out(pc, r) is true when some path from
/// pc's successors reads r before writing it. An instruction reads its
/// operands before it writes its destination.
class Liveness {
 public:
  /// Liveness of `fn`'s code as stored (operands in fn.arg_pool).
  explicit Liveness(const Function& fn)
      : Liveness(fn.code.size(), fn.n_regs, [&fn](std::size_t pc) {
          const Instr& in = fn.code[pc];
          return InstrView{in, {fn.arg_pool.data() + in.args_off,
                                in.args_count}};
        }) {}

  /// Liveness of `n` instructions over `n_regs` registers, where `at(pc)`
  /// returns the InstrView of instruction pc (so a caller holding its
  /// operands outside an arg_pool need not re-pack them).
  template <typename At>
  Liveness(std::size_t n, std::size_t n_regs, At&& at)
      : words_((n_regs + 63) / 64),
        uses_(n * words_, 0),
        def_(n, -1),
        succ_(n),
        out_(n * words_, 0) {
    for (std::size_t pc = 0; pc < n; ++pc) {
      const InstrView v = at(pc);
      for (const std::uint16_t r : v.args) {
        uses_[pc * words_ + r / 64] |= bit(r);
      }
      if (writes_dst(v.in.op)) def_[pc] = v.in.dst;
      succ_[pc] = successors(v.in, pc, n);
    }
    solve();
  }

  [[nodiscard]] bool live_out(std::size_t pc, std::size_t r) const {
    return (out_[pc * words_ + r / 64] & bit(r)) != 0;
  }

 private:
  static constexpr std::uint64_t bit(std::size_t r) {
    return std::uint64_t{1} << (r % 64);
  }

  /// Round-robin fixpoint, last pc first: out(pc) = the union over the
  /// successors s of uses(s) ∪ (out(s) \ def(s)).
  void solve();

  std::size_t words_;
  std::vector<std::uint64_t> uses_;  ///< pc x words_
  std::vector<std::int32_t> def_;    ///< written register, or -1
  std::vector<Successors> succ_;
  std::vector<std::uint64_t> out_;   ///< pc x words_
};

}  // namespace proteus::vm
