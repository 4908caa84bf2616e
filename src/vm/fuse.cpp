#include "vm/fuse.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "kernels/fused.hpp"
#include "vm/bytecode.hpp"
#include "vm/cfg.hpp"

namespace proteus::vm {

namespace {

using kernels::FusedExpr;
using kernels::MicroOp;

/// Working form of one instruction: the operand list is materialized so
/// passes can rewrite it without aliasing the shared arg_pool.
struct IInstr {
  Instr in;
  std::vector<std::uint16_t> args;
  bool removed = false;
};

class FunctionOptimizer {
 public:
  FunctionOptimizer(Function& fn, FuseStats& stats)
      : fn_(fn), stats_(stats) {}

  void run() {
    if (fn_.code.empty()) return;
    load();
    propagate_copies();
    fuse_chains();
    compact();
    while (eliminate_dead()) compact();
    mark_last_uses();
    emit();
  }

 private:
  // --- IR in/out -------------------------------------------------------------

  void load() {
    ir_.reserve(fn_.code.size());
    for (const Instr& in : fn_.code) {
      IInstr ii;
      ii.in = in;
      ii.args.assign(fn_.arg_pool.begin() + in.args_off,
                     fn_.arg_pool.begin() + in.args_off + in.args_count);
      ir_.push_back(std::move(ii));
    }
  }

  void emit() {
    fn_.code.clear();
    fn_.arg_pool.clear();
    std::uint16_t max_reg = fn_.n_params == 0
                                ? 0
                                : static_cast<std::uint16_t>(fn_.n_params - 1);
    for (IInstr& ii : ir_) {
      ii.in.args_off = static_cast<std::uint32_t>(fn_.arg_pool.size());
      ii.in.args_count = static_cast<std::uint16_t>(ii.args.size());
      for (const std::uint16_t r : ii.args) {
        fn_.arg_pool.push_back(r);
        max_reg = std::max(max_reg, r);
      }
      if (writes_dst(ii.in.op)) max_reg = std::max(max_reg, ii.in.dst);
      fn_.code.push_back(ii.in);
    }
    fn_.n_regs = static_cast<std::uint16_t>(max_reg + 1);
    fn_.fused = std::move(fused_);
  }

  /// Drops removed instructions and remaps branch targets. A removed
  /// target (an absorbed chain member) forwards to the next surviving
  /// instruction of its block; control instructions are never removed,
  /// so the forward scan cannot fall off the end.
  void compact() {
    const std::size_t n = ir_.size();
    std::vector<std::size_t> new_index(n + 1, 0);
    std::size_t alive = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      new_index[pc] = alive;
      if (!ir_[pc].removed) ++alive;
    }
    new_index[n] = alive;
    std::vector<IInstr> next;
    next.reserve(alive);
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (ir_[pc].removed) continue;
      IInstr ii = std::move(ir_[pc]);
      if (is_branch(ii.in.op)) {
        std::size_t t = static_cast<std::size_t>(ii.in.aux);
        while (t < n && ir_[t].removed) ++t;
        ii.in.aux = static_cast<std::int32_t>(new_index[t]);
      }
      next.push_back(std::move(ii));
    }
    ir_ = std::move(next);
  }

  // --- CFG / dataflow helpers ------------------------------------------------

  /// Liveness of the current IR (the shared VCODE dataflow, vm/cfg.hpp).
  Liveness liveness() const {
    return Liveness(ir_.size(), fn_.n_regs, [this](std::size_t pc) {
      return InstrView{ir_[pc].in, ir_[pc].args};
    });
  }

  /// Basic-block boundaries: [starts[i], starts[i+1]) are the blocks.
  std::vector<std::size_t> block_starts() const {
    const std::size_t n = ir_.size();
    std::vector<std::uint8_t> leader(n + 1, 0);
    leader[0] = 1;
    leader[n] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Instr& in = ir_[pc].in;
      if (!is_branch(in.op) && in.op != Op::kRet) continue;
      leader[pc + 1] = 1;
      for (const std::size_t t : successors(in, pc, n)) leader[t] = 1;
    }
    std::vector<std::size_t> starts;
    for (std::size_t pc = 0; pc <= n; ++pc) {
      if (leader[pc] != 0) starts.push_back(pc);
    }
    return starts;
  }

  // --- pass 1: block-local copy propagation ----------------------------------

  /// Rewrites uses of move destinations to their sources so the moves go
  /// dead (and chains flow through the original registers, which fusion
  /// can then follow).
  void propagate_copies() {
    const std::vector<std::size_t> starts = block_starts();
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      std::map<std::uint16_t, std::uint16_t> copy;
      for (std::size_t pc = starts[b]; pc < starts[b + 1]; ++pc) {
        IInstr& ii = ir_[pc];
        for (std::uint16_t& r : ii.args) {
          auto it = copy.find(r);
          if (it != copy.end()) r = it->second;
        }
        if (!writes_dst(ii.in.op)) continue;
        const std::uint16_t d = ii.in.dst;
        copy.erase(d);
        for (auto it = copy.begin(); it != copy.end();) {
          it = it->second == d ? copy.erase(it) : std::next(it);
        }
        if (ii.in.op == Op::kMove && ii.args[0] != d) copy[d] = ii.args[0];
      }
    }
  }

  // --- pass 2: elementwise chain fusion --------------------------------------

  bool fusible_instr(std::size_t pc) const {
    const IInstr& ii = ir_[pc];
    return !ii.removed && ii.in.op == Op::kElementwise && ii.in.depth == 1 &&
           kernels::fusible_prim(ii.in.prim) &&
           ii.args.size() ==
               static_cast<std::size_t>(lang::prim_arity(ii.in.prim));
  }

  void fuse_chains() {
    const Liveness live = liveness();
    const std::vector<std::size_t> starts = block_starts();
    absorbed_.assign(ir_.size(), 0);
    reach_at_.assign(ir_.size(), {});
    use_count_.assign(ir_.size(), 0);
    escape_.assign(ir_.size(), 0);

    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      const std::size_t hi = starts[b + 1];
      if (lo == hi) continue;

      // Forward scan: the in-block reaching def of every operand
      // occurrence, per-def use counts, and which defs escape the block.
      std::vector<std::int64_t> reach(fn_.n_regs, -1);
      for (std::size_t pc = lo; pc < hi; ++pc) {
        IInstr& ii = ir_[pc];
        reach_at_[pc].assign(ii.args.size(), -1);
        for (std::size_t s = 0; s < ii.args.size(); ++s) {
          const std::int64_t d = reach[ii.args[s]];
          reach_at_[pc][s] = d;
          if (d >= 0) use_count_[static_cast<std::size_t>(d)] += 1;
        }
        if (writes_dst(ii.in.op)) {
          reach[ii.in.dst] = static_cast<std::int64_t>(pc);
        }
      }
      for (std::size_t r = 0; r < fn_.n_regs; ++r) {
        if (reach[r] >= 0 && live.live_out(hi - 1, r)) {
          escape_[static_cast<std::size_t>(reach[r])] = 1;
        }
      }

      for (std::size_t pc = hi; pc-- > lo;) {
        if (fusible_instr(pc) && absorbed_[pc] == 0) try_fuse(pc, lo);
      }
    }
  }

  /// True when the chain rooted at `root` may absorb the producer at `d`:
  /// a fusible single-use in-block def whose own operands are unchanged
  /// between the producer and the root (their values at `root` are the
  /// values the producer would have read).
  bool absorbable(std::int64_t d, std::size_t root, std::size_t lo) const {
    if (d < 0) return false;
    const auto dp = static_cast<std::size_t>(d);
    if (dp < lo || !fusible_instr(dp) || absorbed_[dp] != 0) return false;
    if (use_count_[dp] != 1 || escape_[dp] != 0) return false;
    for (const std::uint16_t l : ir_[dp].args) {
      for (std::size_t q = dp + 1; q < root; ++q) {
        if (!ir_[q].removed && writes_dst(ir_[q].in.op) &&
            ir_[q].in.dst == l) {
          return false;
        }
      }
    }
    return true;
  }

  void try_fuse(std::size_t root, std::size_t lo) {
    // Decide the chain: grow the absorbed set greedily from the root,
    // bounded by the micro-expression node cap (each absorbed producer
    // turns one leaf into an interior node plus its own leaves).
    std::vector<std::size_t> parts{root};
    std::size_t nodes =
        1 + static_cast<std::size_t>(lang::prim_arity(ir_[root].in.prim));
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const IInstr& ii = ir_[parts[i]];
      for (std::size_t s = 0; s < ii.args.size(); ++s) {
        if (!lifted_operand(fn_, ii.in, s)) continue;
        const std::int64_t d = reach_at_[parts[i]][s];
        if (!absorbable(d, root, lo)) continue;
        const auto dp = static_cast<std::size_t>(d);
        if (std::find(parts.begin(), parts.end(), dp) != parts.end()) continue;
        const auto arity =
            static_cast<std::size_t>(lang::prim_arity(ir_[dp].in.prim));
        if (nodes + arity > kernels::kMaxFusedNodes) continue;
        nodes += arity;
        parts.push_back(dp);
      }
    }
    if (parts.size() < 2) return;
    std::sort(parts.begin(), parts.end());

    // Emit the micro-expression: interiors in original instruction order
    // (so the fused kernel replays the unfused cost model in order),
    // one kInput leaf per operand occurrence.
    FusedExpr fe;
    std::vector<std::uint16_t> slot_regs;
    std::map<std::size_t, std::uint8_t> node_of;
    bool any_frame = false;
    for (const std::size_t p : parts) {
      const IInstr& ii = ir_[p];
      std::uint8_t children[2] = {0, 0};
      for (std::size_t s = 0; s < ii.args.size(); ++s) {
        const std::int64_t d = reach_at_[p][s];
        const auto it = d >= 0 ? node_of.find(static_cast<std::size_t>(d))
                               : node_of.end();
        if (it != node_of.end()) {
          children[s] = it->second;
          continue;
        }
        MicroOp leaf;
        leaf.kind = MicroOp::Kind::kInput;
        leaf.input = static_cast<std::uint8_t>(slot_regs.size());
        const bool frame = lifted_operand(fn_, ii.in, s);
        any_frame = any_frame || frame;
        fe.input_flags.push_back(frame ? 0 : kernels::kFusedBroadcast);
        slot_regs.push_back(ii.args[s]);
        children[s] = static_cast<std::uint8_t>(fe.nodes.size());
        fe.nodes.push_back(leaf);
      }
      MicroOp op;
      op.kind = MicroOp::Kind::kPrim;
      op.prim = ii.in.prim;
      op.a = children[0];
      op.b = children[1];
      node_of[p] = static_cast<std::uint8_t>(fe.nodes.size());
      fe.nodes.push_back(op);
    }
    // A chain with no frame operand would throw on every execution (and
    // the verifier rejects it); leave such code alone.
    if (!any_frame) return;

    for (const std::size_t p : parts) {
      absorbed_[p] = 1;
      if (p != root) ir_[p].removed = true;
    }
    IInstr& ri = ir_[root];
    ri.in.op = Op::kFusedMap;
    ri.in.lifted = -1;
    ri.in.aux = static_cast<std::int32_t>(fused_.size());
    ri.in.aux2 = -1;
    ri.args = std::move(slot_regs);
    fused_.push_back(std::move(fe));
    stats_.fused_chains += 1;
    stats_.fused_prims += parts.size();
    stats_.eliminated_instrs += parts.size() - 1;
  }

  // --- pass 3: dead move/constant elimination --------------------------------

  bool eliminate_dead() {
    const Liveness live = liveness();
    bool removed_any = false;
    for (std::size_t pc = 0; pc < ir_.size(); ++pc) {
      IInstr& ii = ir_[pc];
      const Op op = ii.in.op;
      const bool pure =
          op == Op::kMove || op == Op::kConst || op == Op::kLoadFun;
      if (!pure) continue;
      const bool self_move = op == Op::kMove && ii.args[0] == ii.in.dst;
      if (!self_move && live.live_out(pc, ii.in.dst)) continue;
      ii.removed = true;
      removed_any = true;
      stats_.eliminated_instrs += 1;
      if (op == Op::kMove) stats_.eliminated_moves += 1;
    }
    return removed_any;
  }

  // --- pass 4: last-use marking for in-place execution -----------------------

  void mark_last_uses() {
    if (fused_.empty()) return;
    const Liveness live = liveness();
    for (std::size_t pc = 0; pc < ir_.size(); ++pc) {
      IInstr& ii = ir_[pc];
      if (ii.in.op != Op::kFusedMap) continue;
      FusedExpr& fe = fused_[static_cast<std::size_t>(ii.in.aux)];
      for (std::size_t s = 0; s < ii.args.size(); ++s) {
        const std::uint16_t r = ii.args[s];
        bool last = true;
        for (std::size_t t = s + 1; t < ii.args.size(); ++t) {
          if (ii.args[t] == r) last = false;
        }
        // The old value of the destination register dies here no matter
        // what liveness says: the instruction overwrites it.
        if (last && (r == ii.in.dst || !live.live_out(pc, r))) {
          fe.input_flags[s] |= kernels::kFusedLastUse;
        }
      }
    }
  }

  Function& fn_;
  FuseStats& stats_;
  std::vector<IInstr> ir_;
  std::vector<FusedExpr> fused_;
  std::vector<std::uint8_t> absorbed_;
  std::vector<std::vector<std::int64_t>> reach_at_;
  std::vector<std::size_t> use_count_;
  std::vector<std::uint8_t> escape_;
};

}  // namespace

std::shared_ptr<const Module> optimize_module(const Module& m,
                                              FuseStats* stats) {
  auto out = std::make_shared<Module>(m);
  FuseStats local;
  FuseStats& tally = stats != nullptr ? *stats : local;
  for (Function& fn : out->functions) {
    FunctionOptimizer(fn, tally).run();
  }
  return out;
}

}  // namespace proteus::vm
