#include "vm/fuse.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <span>
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

/// What a register holds at a read: the pc of the one definition that
/// reaches it (>= 0), the value it held on entry to the function
/// (kEntry), or phi(b), the merge of several definitions at the entry of
/// block b. A block of acyclic code runs at most once per call, so equal
/// values hold equal data (see propagate for code with a loop).
using Value = std::int32_t;
constexpr Value kEntry = -1;
constexpr Value kUnset = std::numeric_limits<Value>::min();
constexpr Value phi(std::size_t b) { return -2 - static_cast<Value>(b); }

/// A value traced back through moves to the definition it copies; the
/// register matters only for kEntry and phi values.
struct Root {
  Value value;
  std::uint16_t reg;
  bool operator==(const Root&) const = default;
};

class FunctionOptimizer {
 public:
  FunctionOptimizer(Function& fn, std::span<const std::uint8_t> frames,
                    FuseStats& stats)
      : fn_(fn), frames_(frames), stats_(stats) {}

  void run() {
    if (fn_.code.empty()) return;
    load();
    // Nothing is compacted until fusion ends, so the first three passes
    // share one set of block boundaries and one reaching-definitions
    // solve.
    const std::vector<std::size_t> starts = block_starts();
    propagate(starts);
    bool any_fusible = false;
    for (std::size_t pc = 0; pc < ir_.size() && !any_fusible; ++pc) {
      any_fusible = fusible_instr(pc);
    }
    if (any_fusible) {
      rename_redefinitions(starts);
      fuse_chains(starts);
    }
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
    // A compiled module lives as long as its cache entry: drop the
    // capacity the unoptimized code needed.
    fn_.code.shrink_to_fit();
    fn_.arg_pool.shrink_to_fit();
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

  /// The value operand `slot` of instruction `pc` reads (see propagate).
  Value reach_at(std::size_t pc, std::size_t slot) const {
    return reach_[reach_off_[pc] + slot];
  }

  /// `r` holding `v`, traced back through the moves that copied it.
  Root root(std::uint16_t r, Value v) const {
    while (v >= 0 && ir_[static_cast<std::size_t>(v)].in.op == Op::kMove) {
      r = ir_[static_cast<std::size_t>(v)].args[0];
      v = src_value_[static_cast<std::size_t>(v)];
    }
    return {v, v >= 0 ? std::uint16_t{0} : r};
  }

  /// True when register `r` is a parameter the frame record flags.
  bool is_frame(std::uint16_t r) const {
    return r < fn_.n_params && r < frames_.size() && frames_[r] != 0;
  }

  // --- pass 1: reaching definitions, gather elision, copy propagation --------

  /// One forward pass over the blocks in pc order. Assembled code only
  /// branches forward, so every block is visited after all of its
  /// predecessors and starts from the merge of their exit states: a
  /// register keeps a value its predecessors agree on and becomes the
  /// block's phi otherwise. A backward branch (possible only in
  /// hand-built code) would break that order; then every block starts
  /// from its own phi values and the pass is block-local.
  ///
  /// At each read the pass records the value read (reach_at) after
  /// propagating copies: when that value is a move whose source register
  /// still holds what the move copied, the read takes the source instead.
  /// The move's own read was propagated the same way, so one step
  /// reaches the original definition. Identity gathers become moves as
  /// they are met, so their copies propagate in the same pass.
  void propagate(const std::vector<std::size_t>& starts) {
    const std::size_t n = ir_.size();
    const std::size_t n_blocks = starts.size() - 1;
    const std::size_t n_regs = fn_.n_regs;
    reach_off_.resize(n);
    std::size_t off = 0;
    bool forward = true;
    for (std::size_t pc = 0; pc < n; ++pc) {
      reach_off_[pc] = off;
      off += ir_[pc].args.size();
      const Instr& in = ir_[pc].in;
      if (is_branch(in.op) && static_cast<std::size_t>(in.aux) <= pc) {
        forward = false;
      }
    }
    reach_.assign(off, kEntry);
    src_value_.assign(n, kUnset);
    std::vector<Value> entry(forward ? n_blocks * n_regs : 0, kUnset);
    std::vector<Value> state(n_regs);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t lo = starts[b];
      const std::size_t hi = starts[b + 1];
      for (std::size_t r = 0; r < n_regs; ++r) {
        const Value v = forward ? entry[b * n_regs + r] : kUnset;
        state[r] = forward && b == 0 ? kEntry : v == kUnset ? phi(b) : v;
      }
      for (std::size_t pc = lo; pc < hi; ++pc) visit(pc, lo, state);
      if (!forward) continue;
      for (const std::size_t t : successors(ir_[hi - 1].in, hi - 1, n)) {
        const auto sb = static_cast<std::size_t>(
            std::lower_bound(starts.begin(), starts.end(), t) -
            starts.begin());
        if (sb >= n_blocks) continue;
        Value* in = entry.data() + sb * n_regs;
        for (std::size_t r = 0; r < n_regs; ++r) {
          if (in[r] == kUnset) {
            in[r] = state[r];
          } else if (in[r] != state[r]) {
            in[r] = phi(sb);
          }
        }
      }
    }
  }

  void visit(std::size_t pc, std::size_t lo, std::vector<Value>& state) {
    IInstr& ii = ir_[pc];
    Value* reach = reach_.data() + reach_off_[pc];
    for (std::size_t s = 0; s < ii.args.size(); ++s) {
      std::uint16_t& r = ii.args[s];
      Value v = state[r];
      if (v >= 0) {
        const IInstr& def = ir_[static_cast<std::size_t>(v)];
        const std::uint16_t src = def.args.empty() ? r : def.args[0];
        if (def.in.op == Op::kMove && src != r &&
            state[src] == src_value_[static_cast<std::size_t>(v)]) {
          r = src;
          v = state[src];
        }
      }
      reach[s] = v;
    }
    if (ii.in.op == Op::kGather) elide_identity_gather(pc, lo);
    if (ii.in.op == Op::kMove) src_value_[pc] = reach[0];
    if (writes_dst(ii.in.op)) state[ii.in.dst] = static_cast<Value>(pc);
  }

  /// True when `in` is `prim` of family `op` and, at depth 1, reads a
  /// frame operand.
  bool applies(const Instr& in, Op op, lang::Prim prim) const {
    return in.op == op && in.prim == prim &&
           (in.depth == 0 || lifted_operand(fn_, in, 0));
  }

  /// True when `d` is a def in the block starting at `lo` applying the
  /// unary `prim` at `depth`.
  bool defines(Value d, std::size_t lo, Op op, lang::Prim prim,
               int depth) const {
    if (d < 0 || static_cast<std::size_t>(d) < lo) return false;
    const IInstr& ii = ir_[static_cast<std::size_t>(d)];
    return ii.in.depth == depth && ii.args.size() == 1 &&
           applies(ii.in, op, prim);
  }

  /// R1 iterates `[x <- v : e]` over range1(#v) and reads x as v[i], which
  /// R2 lowers to seq_index^1(v, range1(length(v))) — and one level down
  /// (Section 4.5) to seq_index_inner^1(v, range1^1(length^1(v))): a
  /// gather of every element of v in order, i.e. v itself. R0 reads each
  /// frame parameter Vk of an extension f^1 the same way through
  /// range1(length(V1)), which is Vk itself because the frames are
  /// conformable (see FrameParams). The gather at `pc`, whose index and
  /// length are defs in its own block, becomes a move of v when the
  /// length reads the value v holds, or, in the entry block, when both
  /// read the entry values of frame parameters. The indices are in range
  /// by construction, so no error is lost.
  void elide_identity_gather(std::size_t pc, std::size_t lo) {
    IInstr& g = ir_[pc];
    if (g.in.depth != 1 || g.args.size() != 2) return;
    // seq_index^1 reads the one broadcast v (lifted=01);
    // seq_index_inner^1 reads each slot's own row (lifted=11).
    const bool inner = g.in.prim == lang::Prim::kSeqIndexInner;
    if (!inner && g.in.prim != lang::Prim::kSeqIndex) return;
    if (lifted_operand(fn_, g.in, 0) != inner ||
        !lifted_operand(fn_, g.in, 1)) {
      return;
    }
    const int depth = inner ? 1 : 0;
    const Value range = reach_at(pc, 1);
    if (!defines(range, lo, Op::kBuild, lang::Prim::kRange1, depth)) return;
    const Value len = reach_at(static_cast<std::size_t>(range), 0);
    if (!defines(len, lo, Op::kReduce, lang::Prim::kLength, depth)) return;
    const auto lp = static_cast<std::size_t>(len);
    const Root v = root(g.args[0], reach_at(pc, 0));
    const Root w = root(ir_[lp].args[0], reach_at(lp, 0));
    const bool frames = !inner && lo == 0 && v.value == kEntry &&
                        w.value == kEntry && is_frame(v.reg) &&
                        is_frame(w.reg);
    if (v != w && !frames) return;
    g.in = Instr{.op = Op::kMove, .dst = g.in.dst};
    g.args.pop_back();
    stats_.elided_gathers += 1;
  }

  // --- pass 2: renaming in-block redefinitions -------------------------------

  /// The assembler reuses registers, so a value a chain member reads may
  /// be overwritten before the chain's root, which stops fusion from
  /// absorbing the member. Each def that a later def in its own block
  /// overwrites (killed_) cannot be read outside that block; when it is
  /// an operand of a fusible instruction whose one reader is fusible too
  /// (a member a chain may carry to a later root), it and its reads move
  /// to a fresh register.
  void rename_redefinitions(const std::vector<std::size_t>& starts) {
    const std::size_t n = ir_.size();
    // Per def: its reads, and whether a fusible instruction is one.
    std::vector<std::uint32_t> reads(n, 0);
    std::vector<std::uint8_t> fused_read(n, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      for (std::size_t s = 0; s < ir_[pc].args.size(); ++s) {
        const Value d = reach_at(pc, s);
        if (d < 0) continue;
        reads[static_cast<std::size_t>(d)] += 1;
        if (fusible_instr(pc)) fused_read[static_cast<std::size_t>(d)] = 1;
      }
    }
    std::vector<std::uint8_t> feeds(n, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (!fusible_instr(pc) || reads[pc] != 1 || fused_read[pc] == 0) {
        continue;
      }
      for (std::size_t s = 0; s < ir_[pc].args.size(); ++s) {
        const Value d = reach_at(pc, s);
        if (d >= 0) feeds[static_cast<std::size_t>(d)] = 1;
      }
    }
    killed_.assign(n, 0);
    std::vector<std::size_t> seen(fn_.n_regs, 0);  // block b + 1 that wrote
    std::vector<std::uint16_t> fresh(n, 0);         // 0: not renamed
    std::size_t next = fn_.n_regs;
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      const std::size_t hi = starts[b + 1];
      for (std::size_t pc = hi; pc-- > lo;) {
        if (!writes_dst(ir_[pc].in.op)) continue;
        const std::uint16_t d = ir_[pc].in.dst;
        killed_[pc] = seen[d] == b + 1 ? 1 : 0;
        seen[d] = b + 1;
      }
      for (std::size_t pc = lo; pc < hi; ++pc) {
        IInstr& ii = ir_[pc];
        for (std::size_t s = 0; s < ii.args.size(); ++s) {
          const Value d = reach_at(pc, s);
          if (d >= 0 && fresh[static_cast<std::size_t>(d)] != 0) {
            ii.args[s] = fresh[static_cast<std::size_t>(d)];
          }
        }
        if (killed_[pc] != 0 && feeds[pc] != 0 &&
            next < std::numeric_limits<std::uint16_t>::max()) {
          fresh[pc] = static_cast<std::uint16_t>(next++);
          ii.in.dst = fresh[pc];
        }
      }
    }
    fn_.n_regs = static_cast<std::uint16_t>(next);
  }

  // --- pass 3: elementwise chain fusion --------------------------------------

  bool fusible_instr(std::size_t pc) const {
    const IInstr& ii = ir_[pc];
    return !ii.removed && ii.in.op == Op::kElementwise && ii.in.depth == 1 &&
           kernels::fusible_prim(ii.in.prim) &&
           ii.args.size() ==
               static_cast<std::size_t>(lang::prim_arity(ii.in.prim));
  }

  void fuse_chains(const std::vector<std::size_t>& starts) {
    const Liveness live = liveness();
    absorbed_.assign(ir_.size(), 0);
    use_count_.assign(ir_.size(), 0);
    escape_.assign(ir_.size(), 0);

    // Per-def use counts, and which defs escape their block: the last
    // def of a register in its block, when the register is live out.
    for (std::size_t pc = 0; pc < ir_.size(); ++pc) {
      for (std::size_t s = 0; s < ir_[pc].args.size(); ++s) {
        const Value d = reach_at(pc, s);
        if (d >= 0) use_count_[static_cast<std::size_t>(d)] += 1;
      }
    }
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t last = starts[b + 1] - 1;
      for (std::size_t pc = starts[b]; pc <= last; ++pc) {
        const Instr& in = ir_[pc].in;
        if (writes_dst(in.op) && killed_[pc] == 0 &&
            live.live_out(last, in.dst)) {
          escape_[pc] = 1;
        }
      }
    }

    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      for (std::size_t pc = starts[b + 1]; pc-- > lo;) {
        if (fusible_instr(pc) && absorbed_[pc] == 0) try_fuse(pc, lo);
      }
    }
  }

  /// True when the chain rooted at `root` may absorb the producer at `d`:
  /// a fusible single-use in-block def whose own operands are unchanged
  /// between the producer and the root (their values at `root` are the
  /// values the producer would have read).
  bool absorbable(Value d, std::size_t root, std::size_t lo) const {
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
        const Value d = reach_at(parts[i], s);
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
        const Value d = reach_at(p, s);
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

  // --- pass 4: dead-code elimination -----------------------------------------

  /// Instructions with no effect but their destination: register moves,
  /// constants, and the length/range1 an elided gather leaves behind
  /// (over a frame operand neither throws; only a budget or
  /// injected-fault trap can stop them).
  bool pure(const Instr& in) const {
    switch (in.op) {
      case Op::kMove:
      case Op::kConst:
      case Op::kLoadFun:
        return true;
      default:
        return applies(in, Op::kReduce, lang::Prim::kLength) ||
               applies(in, Op::kBuild, lang::Prim::kRange1);
    }
  }

  /// Removes pure instructions whose destination is dead. Each block is
  /// swept backward from its live-out set, so a chain of dead defs inside
  /// one block (move <- range1 <- length) goes in a single round; only
  /// chains that cross blocks need another.
  bool eliminate_dead() {
    const Liveness live = liveness();
    const std::vector<std::size_t> starts = block_starts();
    std::vector<std::uint8_t> needed(fn_.n_regs);
    bool removed_any = false;
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      const std::size_t hi = starts[b + 1];
      if (lo == hi) continue;
      for (std::size_t r = 0; r < fn_.n_regs; ++r) {
        needed[r] = live.live_out(hi - 1, r) ? 1 : 0;
      }
      for (std::size_t pc = hi; pc-- > lo;) {
        IInstr& ii = ir_[pc];
        const Op op = ii.in.op;
        const bool self_move = op == Op::kMove && ii.args[0] == ii.in.dst;
        if (pure(ii.in) && (self_move || needed[ii.in.dst] == 0)) {
          ii.removed = true;
          removed_any = true;
          stats_.eliminated_instrs += 1;
          if (op == Op::kMove) stats_.eliminated_moves += 1;
          continue;
        }
        if (writes_dst(op)) needed[ii.in.dst] = 0;
        for (const std::uint16_t r : ii.args) needed[r] = 1;
      }
    }
    return removed_any;
  }

  // --- pass 5: last-use marking for in-place execution -----------------------

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
  std::span<const std::uint8_t> frames_;
  FuseStats& stats_;
  std::vector<IInstr> ir_;
  std::vector<FusedExpr> fused_;
  std::vector<std::uint8_t> absorbed_;
  std::vector<Value> reach_;             ///< per operand; see propagate
  std::vector<std::size_t> reach_off_;   ///< pc -> first slot in reach_
  std::vector<Value> src_value_;         ///< per move: its source's value
  std::vector<std::uint8_t> killed_;     ///< def overwritten in its block
  std::vector<std::size_t> use_count_;
  std::vector<std::uint8_t> escape_;
};

}  // namespace

std::vector<FrameParams> extension_frames(const lang::Program& program,
                                          const Module& m) {
  std::vector<FrameParams> out(m.functions.size());
  for (const lang::FunDef& f : program.functions) {
    if (f.extension_depth != 1) continue;
    const auto it = m.fn_index.find(f.name);
    if (it == m.fn_index.end()) continue;
    FrameParams& record = out[it->second];
    record.reserve(f.params.size());
    for (const lang::Param& p : f.params) {
      record.push_back(p.type->is_fun() ? 0 : 1);
    }
  }
  return out;
}

std::shared_ptr<const Module> optimize_module(
    const Module& m, FuseStats* stats, std::span<const FrameParams> frames) {
  auto out = std::make_shared<Module>(m);
  FuseStats local;
  FuseStats& tally = stats != nullptr ? *stats : local;
  for (std::size_t i = 0; i < out->functions.size(); ++i) {
    const std::span<const std::uint8_t> record =
        i < frames.size() ? std::span<const std::uint8_t>(frames[i])
                          : std::span<const std::uint8_t>();
    FunctionOptimizer(out->functions[i], record, tally).run();
  }
  return out;
}

}  // namespace proteus::vm
