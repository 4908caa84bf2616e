#include "vm/fuse.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
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

/// Registers a function may reach through inlining; leaves headroom in
/// the 16-bit register space for the renaming pass.
constexpr std::size_t kMaxInlineRegs = 0x8000;

/// True when `fn` is a leaf pass 0 may inline: straight-line code of at
/// most kInlineLimit instructions ending in its only ret.
bool inlinable(const Function& fn) {
  if (fn.code.empty() || fn.code.size() > kInlineLimit ||
      fn.code.back().op != Op::kRet || fn.code.back().args_count != 1) {
    return false;
  }
  for (std::size_t pc = 0; pc + 1 < fn.code.size(); ++pc) {
    const Op op = fn.code[pc].op;
    if (is_branch(op) || op == Op::kRet || op == Op::kCall ||
        op == Op::kCallIndirect) {
      return false;
    }
  }
  return true;
}

bool calls_out(const Function& fn) {
  return std::any_of(fn.code.begin(), fn.code.end(), [](const Instr& in) {
    return in.op == Op::kCall || in.op == Op::kCallIndirect;
  });
}

class FunctionOptimizer {
 public:
  FunctionOptimizer(Function& fn, std::span<const std::uint8_t> frames,
                    std::span<const Function* const> leaves,
                    FuseStats& stats)
      : fn_(fn),
        frames_(frames),
        leaves_(leaves),
        stats_(stats),
        base_regs_(fn.n_regs) {}

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
      any_fusible = fusible_instr(pc) || seg_reduce_instr(pc);
    }
    if (any_fusible) {
      rename_redefinitions(starts);
      fuse_chains(starts);
      undo_renames();
    }
    compact();
    while (eliminate_dead()) compact();
    mark_last_uses();
    emit();
  }

 private:
  // --- IR in/out, pass 0: inlining -------------------------------------------

  void load() {
    fused_ = fn_.fused;
    const std::size_t n = fn_.code.size();
    std::vector<std::size_t> new_pc(n + 1, 0);
    bool inlined = false;
    std::optional<Liveness> live;  // of the code as assembled
    ir_.reserve(n);
    for (std::size_t pc = 0; pc < n; ++pc) {
      new_pc[pc] = ir_.size();
      const Instr& in = fn_.code[pc];
      IInstr ii;
      ii.in = in;
      ii.args.assign(fn_.arg_pool.begin() + in.args_off,
                     fn_.arg_pool.begin() + in.args_off + in.args_count);
      if (const Function* callee = inline_target(in)) {
        if (!live) live.emplace(fn_);
        inline_call(ii, *callee, free_at(pc, ii, *live));
        inlined = true;
        continue;
      }
      ir_.push_back(std::move(ii));
    }
    new_pc[n] = ir_.size();
    if (!inlined) return;
    for (IInstr& ii : ir_) {
      if (!is_branch(ii.in.op) || ii.in.aux < 0 ||
          static_cast<std::size_t>(ii.in.aux) > n) {
        continue;
      }
      ii.in.aux = static_cast<std::int32_t>(
          new_pc[static_cast<std::size_t>(ii.in.aux)]);
    }
  }

  /// The leaf `in` calls, when pass 0 may inline it here.
  const Function* inline_target(const Instr& in) const {
    if (in.op != Op::kCall || in.aux < 0) return nullptr;
    const auto index = static_cast<std::size_t>(in.aux);
    if (index >= leaves_.size() || leaves_[index] == nullptr) return nullptr;
    const Function& callee = *leaves_[index];
    if (in.args_count != callee.n_params ||
        std::size_t{fn_.n_regs} + callee.n_regs > kMaxInlineRegs) {
      return nullptr;
    }
    return &callee;
  }

  /// Index of `set` in the function's lifted sets, appended if new.
  std::int32_t lifted_index(const std::vector<std::uint8_t>& set) {
    const auto it =
        std::find(fn_.lifted_sets.begin(), fn_.lifted_sets.end(), set);
    if (it != fn_.lifted_sets.end()) {
      return static_cast<std::int32_t>(it - fn_.lifted_sets.begin());
    }
    fn_.lifted_sets.push_back(set);
    return static_cast<std::int32_t>(fn_.lifted_sets.size() - 1);
  }

  /// The registers of the function that the call at `pc` may lend to
  /// the body it inlines: dead after the call, and none of: an argument
  /// (copy propagation reads the arguments in place of the parameters),
  /// the destination, a parameter (whose entry value gather elision
  /// reads), a register some move or gather copies (propagation may make
  /// it live again), or one read earlier in the call's block (fusion may
  /// move that read into the body).
  std::vector<std::uint16_t> free_at(std::size_t pc, const IInstr& call,
                                     const Liveness& live) const {
    std::vector<std::uint8_t> taken(base_regs_, 0);
    std::vector<std::uint8_t> leader(fn_.code.size() + 1, 0);
    for (std::size_t q = 0; q < fn_.code.size(); ++q) {
      const Instr& in = fn_.code[q];
      if ((in.op == Op::kMove || in.op == Op::kGather) && in.args_count > 0) {
        taken[fn_.arg_pool[in.args_off]] = 1;
      }
      if (is_branch(in.op) || in.op == Op::kRet) {
        leader[q + 1] = 1;
        if (in.aux >= 0 &&
            static_cast<std::size_t>(in.aux) < fn_.code.size()) {
          leader[static_cast<std::size_t>(in.aux)] = 1;
        }
      }
    }
    for (std::size_t q = pc; q-- > 0 && leader[q + 1] == 0;) {
      const Instr& in = fn_.code[q];
      for (std::size_t s = 0; s < in.args_count; ++s) {
        taken[fn_.arg_pool[in.args_off + s]] = 1;
      }
    }
    std::vector<std::uint16_t> out;
    for (std::uint16_t r = fn_.n_params; r < base_regs_; ++r) {
      if (live.live_out(pc, r) || r == call.in.dst || taken[r] != 0 ||
          std::find(call.args.begin(), call.args.end(), r) !=
              call.args.end()) {
        continue;
      }
      out.push_back(r);
    }
    return out;
  }

  /// Replaces `call` by the body of `callee`: a move per parameter, the
  /// body, and the ret's value written to the call's destination (by the
  /// instruction that computes it when that is the last one, else by a
  /// move). The callee's registers take the `lent` ones first, then
  /// fresh ones.
  void inline_call(const IInstr& call, const Function& callee,
                   const std::vector<std::uint16_t>& lent) {
    std::vector<std::uint16_t> map(callee.n_regs);
    for (std::uint16_t r = 0; r < callee.n_regs; ++r) {
      map[r] = r < lent.size() ? lent[r] : fn_.n_regs++;
    }
    const auto reg = [&map](std::uint16_t r) { return map[r]; };
    for (std::uint16_t k = 0; k < callee.n_params; ++k) {
      IInstr mv;
      mv.in = Instr{.op = Op::kMove, .dst = reg(k)};
      mv.args = {call.args[k]};
      ir_.push_back(std::move(mv));
    }
    const auto fused_base = static_cast<std::int32_t>(fused_.size());
    for (FusedExpr fe : callee.fused) {
      // Last uses are the callee's; mark_last_uses redoes them here.
      for (std::uint8_t& f : fe.input_flags) {
        f = static_cast<std::uint8_t>(f & ~kernels::kFusedLastUse);
      }
      fused_.push_back(std::move(fe));
    }
    const std::size_t ret = callee.code.size() - 1;
    const std::uint16_t result = callee.arg_pool[callee.code[ret].args_off];
    bool direct = false;
    for (std::size_t q = 0; q < ret; ++q) {
      const Instr& ci = callee.code[q];
      IInstr ii;
      ii.in = ci;
      for (std::size_t s = 0; s < ci.args_count; ++s) {
        ii.args.push_back(reg(callee.arg_pool[ci.args_off + s]));
      }
      if (ci.lifted >= 0) {
        ii.in.lifted =
            lifted_index(callee.lifted_sets[static_cast<std::size_t>(
                ci.lifted)]);
      }
      if (ci.op == Op::kFusedMap) ii.in.aux += fused_base;
      if (writes_dst(ci.op)) {
        direct = q + 1 == ret && ci.dst == result;
        ii.in.dst = direct ? call.in.dst : reg(ci.dst);
      }
      ir_.push_back(std::move(ii));
    }
    if (!direct) {
      IInstr mv;
      mv.in = Instr{.op = Op::kMove, .dst = call.in.dst};
      mv.args = {reg(result)};
      ir_.push_back(std::move(mv));
    }
    stats_.inlined_calls += 1;
  }

  /// Writes the IR back. The registers the optimizer made (renames and
  /// inlined bodies) that are still used are renumbered densely after
  /// the function's own.
  void emit() {
    std::vector<std::uint16_t> renumber(fn_.n_regs, 0);
    for (const IInstr& ii : ir_) {
      for (const std::uint16_t r : ii.args) renumber[r] = 1;
      if (writes_dst(ii.in.op)) renumber[ii.in.dst] = 1;
    }
    std::uint16_t next = base_regs_;
    for (std::size_t r = 0; r < renumber.size(); ++r) {
      renumber[r] = r < base_regs_          ? static_cast<std::uint16_t>(r)
                    : renumber[r] != 0 ? next++
                                           : std::uint16_t{0};
    }
    fn_.code.clear();
    fn_.arg_pool.clear();
    std::uint16_t max_reg = fn_.n_params == 0
                                ? 0
                                : static_cast<std::uint16_t>(fn_.n_params - 1);
    for (IInstr& ii : ir_) {
      for (std::uint16_t& r : ii.args) r = renumber[r];
      if (writes_dst(ii.in.op)) ii.in.dst = renumber[ii.in.dst];
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
    std::vector<std::size_t> next_def(fn_.n_regs, 0);
    std::vector<std::size_t> killer(n, 0);
    std::vector<std::uint16_t> fresh(n, 0);         // 0: not renamed
    std::size_t next = fn_.n_regs;
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      const std::size_t hi = starts[b + 1];
      for (std::size_t pc = hi; pc-- > lo;) {
        if (!writes_dst(ir_[pc].in.op)) continue;
        const std::uint16_t d = ir_[pc].in.dst;
        killed_[pc] = seen[d] == b + 1 ? 1 : 0;
        killer[pc] = next_def[d];
        seen[d] = b + 1;
        next_def[d] = pc;
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
          renames_.push_back({pc, ii.in.dst, fresh[pc], killer[pc]});
          ii.in.dst = fresh[pc];
        }
      }
    }
    fn_.n_regs = static_cast<std::uint16_t>(next);
  }

  /// Undoes each rename no fused instruction needed. Every read of the
  /// renamed value lies in (def, killer], where killer is the next def of
  /// the original register in the block, except where fusion moved a
  /// read to a chain's root. So the def and its reads go back to the
  /// original register unless a fused instruction after the killer reads
  /// the fresh one, or one reads the original one where it would then see
  /// the def's value instead of an older one: inside (def, killer], or
  /// anywhere after the def once fusion absorbed the killer.
  void undo_renames() {
    for (const Rename& rn : renames_) {
      const bool killed = !ir_[rn.killer].removed;
      bool needed = false;
      for (std::size_t pc = rn.def + 1; pc < ir_.size() && !needed; ++pc) {
        const IInstr& ii = ir_[pc];
        if (ii.removed || ii.in.op != Op::kFusedMap) continue;
        for (const std::uint16_t r : ii.args) {
          if ((r == rn.fresh && pc > rn.killer) ||
              (r == rn.original && (pc <= rn.killer || !killed))) {
            needed = true;
          }
        }
      }
      if (needed) continue;
      for (std::size_t pc = rn.def; pc <= rn.killer; ++pc) {
        IInstr& ii = ir_[pc];
        for (std::uint16_t& r : ii.args) {
          if (r == rn.fresh) r = rn.original;
        }
        if (writes_dst(ii.in.op) && ii.in.dst == rn.fresh) {
          ii.in.dst = rn.original;
        }
      }
    }
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

    // Reads by moves nothing reads (an inlined call's parameter moves,
    // whose readers copy propagation redirected): eliminate_dead drops
    // them, so a segmented chain does not count them.
    dead_move_reads_.assign(ir_.size(), 0);
    for (std::size_t pc = 0; pc < ir_.size(); ++pc) {
      if (ir_[pc].in.op != Op::kMove || use_count_[pc] != 0 ||
          escape_[pc] != 0) {
        continue;
      }
      const Value d = reach_at(pc, 0);
      if (d >= 0) dead_move_reads_[static_cast<std::size_t>(d)] += 1;
    }

    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      const std::size_t lo = starts[b];
      for (std::size_t pc = starts[b + 1]; pc-- > lo;) {
        if (seg_reduce_instr(pc)) try_fuse_segmented(pc, lo);
        if (fusible_instr(pc) && absorbed_[pc] == 0) try_fuse(pc, lo);
      }
    }
  }

  /// True when `pc` is a reduce^1 a segmented chain may end in.
  bool seg_reduce_instr(std::size_t pc) const {
    const IInstr& ii = ir_[pc];
    return !ii.removed && ii.in.op == Op::kReduce && ii.in.depth == 1 &&
           kernels::fusible_reduce(ii.in.prim) && ii.args.size() == 1 &&
           lifted_operand(fn_, ii.in, 0);
  }

  /// True when `d` is a def of the block [lo, root) that applies `op` at
  /// `depth` to `n_args` operands, is in no chain yet, and is not read
  /// outside its block.
  bool chain_def(Value d, std::size_t lo, std::size_t root, Op op,
                 int depth, std::size_t n_args) const {
    if (d < 0) return false;
    const auto dp = static_cast<std::size_t>(d);
    if (dp < lo || dp >= root) return false;
    const IInstr& ii = ir_[dp];
    return !ii.removed && absorbed_[dp] == 0 && escape_[dp] == 0 &&
           ii.in.op == op && ii.in.depth == depth && ii.args.size() == n_args;
  }

  /// Reads of the def at `d` that survive dead-code elimination.
  std::size_t uses(std::size_t d) const {
    return use_count_[d] - dead_move_reads_[d];
  }

  /// What one operand of a segmented chain's elementwise member reads: a
  /// broadcast scalar, another member (directly, or through an
  /// extract(insert(member, frame)) pair T1 leaves between two depth-2
  /// operations), or an extract of the tile or of a segment splat.
  struct SegLeaf {
    enum class Kind : std::uint8_t { kBroadcast, kInterior, kTile, kSplat };
    Kind kind = Kind::kBroadcast;
    std::size_t node = 0;  ///< kInterior: the member; kSplat: the dist^1
  };

  /// The instructions one segmented chain absorbs, grouped by role.
  struct SegChain {
    std::size_t tile = 0;                 ///< the depth-0 dist(v, n)
    std::vector<std::size_t> parts;       ///< elementwise members
    std::vector<std::size_t> splats;      ///< dist^1(s, length^1(tile))
    std::vector<std::size_t> extracts;    ///< of the tile or a splat
    std::vector<std::size_t> passes;      ///< extract(insert(..)) pairs' inserts
    std::vector<std::size_t> pass_reads;  ///< and their extracts
    std::vector<std::size_t> inserts;     ///< every insert, the final one first
    std::vector<SegLeaf> leaves;          ///< per member operand, in order
  };

  /// True when `d` is dist^1(s, length^1(tile)) of the block [lo, root)
  /// with a length^1 nothing else reads.
  bool splat_of(Value d, Value tile, std::size_t lo, std::size_t root) const {
    if (!chain_def(d, lo, root, Op::kBuild, 1, 2)) return false;
    const auto dp = static_cast<std::size_t>(d);
    const Instr& dist = ir_[dp].in;
    if (dist.prim != lang::Prim::kDist || !lifted_operand(fn_, dist, 0) ||
        !lifted_operand(fn_, dist, 1)) {
      return false;
    }
    const Value len = reach_at(dp, 1);
    if (!chain_def(len, lo, root, Op::kReduce, 1, 1)) return false;
    const auto lp = static_cast<std::size_t>(len);
    const Instr& length = ir_[lp].in;
    return length.prim == lang::Prim::kLength &&
           lifted_operand(fn_, length, 0) && uses(lp) == 1 &&
           reach_at(lp, 0) == tile;
  }

  /// Collects the chain ending in reduce^1(insert(body, frame)) at `root`:
  /// false when some piece does not fit (see try_fuse_segmented).
  bool collect_segmented(std::size_t root, std::size_t lo,
                         SegChain& c) const {
    const Value insert = reach_at(root, 0);
    if (!chain_def(insert, lo, root, Op::kInsert, 1, 2) ||
        uses(static_cast<std::size_t>(insert)) != 1) {
      return false;
    }
    const auto in_block_insert = [&](Value d) {
      return chain_def(d, lo, root, Op::kInsert, 1, 2);
    };
    // The tile: the frame the final insert re-attaches, followed through
    // inserts and a splat's length^1.
    Value frame = reach_at(static_cast<std::size_t>(insert), 1);
    while (in_block_insert(frame)) {
      frame = reach_at(static_cast<std::size_t>(frame), 1);
    }
    if (chain_def(frame, lo, root, Op::kBuild, 1, 2)) {
      const Value len = reach_at(static_cast<std::size_t>(frame), 1);
      if (len < 0) return false;
      frame = reach_at(static_cast<std::size_t>(len), 0);
    }
    if (!chain_def(frame, lo, root, Op::kBuild, 0, 2) ||
        ir_[static_cast<std::size_t>(frame)].in.prim != lang::Prim::kDist) {
      return false;
    }
    const Value tile = frame;
    c.tile = static_cast<std::size_t>(tile);
    c.inserts.push_back(static_cast<std::size_t>(insert));

    const auto member = [&](Value d) {
      if (d < 0) return false;
      const auto dp = static_cast<std::size_t>(d);
      return dp >= lo && dp < root && fusible_instr(dp) &&
             absorbed_[dp] == 0 && uses(dp) == 1 && escape_[dp] == 0;
    };
    const Value body = reach_at(static_cast<std::size_t>(insert), 0);
    if (!member(body)) return false;
    c.parts.push_back(static_cast<std::size_t>(body));
    std::size_t nodes = 1 + static_cast<std::size_t>(
                                lang::prim_arity(ir_[c.parts[0]].in.prim));
    const auto add_part = [&](std::size_t p) {
      if (std::find(c.parts.begin(), c.parts.end(), p) != c.parts.end()) {
        return true;
      }
      const auto arity =
          static_cast<std::size_t>(lang::prim_arity(ir_[p].in.prim));
      if (nodes + arity > kernels::kMaxFusedNodes) return false;
      nodes += arity;
      c.parts.push_back(p);
      return true;
    };
    for (std::size_t i = 0; i < c.parts.size(); ++i) {
      const std::size_t p = c.parts[i];
      for (std::size_t s = 0; s < ir_[p].args.size(); ++s) {
        if (!lifted_operand(fn_, ir_[p].in, s)) continue;
        const Value d = reach_at(p, s);
        if (member(d)) {
          if (!add_part(static_cast<std::size_t>(d))) return false;
          continue;
        }
        if (!chain_def(d, lo, root, Op::kExtract, 1, 1) ||
            uses(static_cast<std::size_t>(d)) != 1) {
          return false;
        }
        const auto xp = static_cast<std::size_t>(d);
        const Value src = reach_at(xp, 0);
        if (src == tile) {
          c.extracts.push_back(xp);
        } else if (splat_of(src, tile, lo, root)) {
          c.extracts.push_back(xp);
        } else if (in_block_insert(src) &&
                   member(reach_at(static_cast<std::size_t>(src), 0))) {
          const auto pass = static_cast<std::size_t>(src);
          if (!add_part(static_cast<std::size_t>(reach_at(pass, 0)))) {
            return false;
          }
          c.pass_reads.push_back(xp);
          if (std::find(c.passes.begin(), c.passes.end(), pass) ==
              c.passes.end()) {
            c.passes.push_back(pass);
            c.inserts.push_back(pass);
          }
        } else {
          return false;
        }
      }
    }
    std::sort(c.parts.begin(), c.parts.end());
    // Every operand in member order, now that the members are known.
    for (const std::size_t p : c.parts) {
      for (std::size_t s = 0; s < ir_[p].args.size(); ++s) {
        SegLeaf lf;
        if (lifted_operand(fn_, ir_[p].in, s)) {
          Value d = reach_at(p, s);
          const auto dp = static_cast<std::size_t>(d);
          if (std::binary_search(c.parts.begin(), c.parts.end(), dp)) {
            lf.kind = SegLeaf::Kind::kInterior;
            lf.node = dp;
          } else {
            d = reach_at(dp, 0);  // an extract: what it reads
            if (d == tile) {
              lf.kind = SegLeaf::Kind::kTile;
            } else if (std::find(c.passes.begin(), c.passes.end(),
                                 static_cast<std::size_t>(d)) !=
                       c.passes.end()) {
              lf.kind = SegLeaf::Kind::kInterior;
              lf.node = static_cast<std::size_t>(
                  reach_at(static_cast<std::size_t>(d), 0));
            } else {
              lf.kind = SegLeaf::Kind::kSplat;
              lf.node = static_cast<std::size_t>(d);
              if (std::find(c.splats.begin(), c.splats.end(), lf.node) ==
                  c.splats.end()) {
                c.splats.push_back(lf.node);
              }
            }
          }
        }
        c.leaves.push_back(lf);
      }
    }
    // Every insert re-attaches the segments of the tile, a splat, or a
    // member passed through an insert of the chain.
    for (const std::size_t x : c.inserts) {
      const Value f = reach_at(x, 1);
      const auto fp = static_cast<std::size_t>(f);
      if (f == tile ||
          std::find(c.passes.begin(), c.passes.end(), fp) != c.passes.end()) {
        continue;
      }
      if (!splat_of(f, tile, lo, root)) return false;
      if (std::find(c.splats.begin(), c.splats.end(), fp) == c.splats.end()) {
        c.splats.push_back(fp);
      }
    }
    std::sort(c.splats.begin(), c.splats.end());
    return true;
  }

  /// Fuses reduce^1(insert(body, frame)) at `root` into one kFusedMap
  /// that builds neither a depth-0 dist(v, n) nor the dist^1(s,
  /// length^1(dist)) that spread a scalar per segment over it
  /// (kernels/fused.hpp). `body` is an elementwise chain whose operands
  /// are extracts of those dists and broadcast scalars; `frame` is the
  /// dist, a splat, or an insert of the chain. The absorbed instructions
  /// that charge work must run in the order the fused kernel replays
  /// them — the dist, the dist^1s, the elementwise members, the reduce —
  /// with nothing but moves and constants between the dist and the root,
  /// so costs, traps and errors come in the unfused order.
  void try_fuse_segmented(std::size_t root, std::size_t lo) {
    SegChain c;
    if (!collect_segmented(root, lo, c)) return;
    const std::size_t tp = c.tile;

    // Every read of an absorbed value is in the chain.
    const auto count_in = [](const std::vector<std::size_t>& pcs,
                             auto&& pred) {
      return static_cast<std::size_t>(
          std::count_if(pcs.begin(), pcs.end(), pred));
    };
    const auto reads = [&](std::size_t def) {
      const auto is_def = [&](std::size_t slot) {
        return [&, slot](std::size_t pc) {
          return reach_at(pc, slot) == static_cast<Value>(def);
        };
      };
      return count_in(c.extracts, is_def(0)) +
             count_in(c.pass_reads, is_def(0)) +
             count_in(c.inserts, is_def(1));
    };
    if (uses(tp) != reads(tp) + c.splats.size()) return;
    std::vector<std::size_t> chain{tp};
    for (const std::size_t d : c.splats) {
      if (uses(d) != reads(d)) return;
      chain.push_back(d);
      chain.push_back(static_cast<std::size_t>(reach_at(d, 1)));
    }
    for (const std::size_t x : c.passes) {
      if (uses(x) != reads(x)) return;
    }
    // The replay order: the dists charge before any member. (Extracts and
    // inserts charge nothing, and over a dist of a sequence, which is
    // all typed code makes, they cannot fail.)
    for (const std::size_t d : c.splats) {
      if (d > c.parts.front()) return;
    }
    for (const auto* group : {&c.extracts, &c.passes, &c.pass_reads,
                              &c.inserts, &c.parts}) {
      chain.insert(chain.end(), group->begin(), group->end());
    }
    std::sort(chain.begin(), chain.end());
    chain.erase(std::unique(chain.begin(), chain.end()), chain.end());
    const auto in_chain = [&](std::size_t q) {
      return std::binary_search(chain.begin(), chain.end(), q);
    };
    for (std::size_t q = tp + 1; q < root; ++q) {
      const IInstr& ii = ir_[q];
      if (ii.removed || in_chain(q)) continue;
      if (ii.in.op != Op::kMove && ii.in.op != Op::kConst &&
          ii.in.op != Op::kLoadFun) {
        return;
      }
    }
    // Operand registers still hold at the root what their readers read.
    const auto holds = [&](std::uint16_t r, std::size_t reader) {
      for (std::size_t q = reader + 1; q < root; ++q) {
        const IInstr& ii = ir_[q];
        if (!ii.removed && !in_chain(q) && writes_dst(ii.in.op) &&
            ii.in.dst == r) {
          return false;
        }
      }
      return true;
    };
    if (!holds(ir_[tp].args[0], tp) || !holds(ir_[tp].args[1], tp)) return;
    for (const std::size_t d : c.splats) {
      if (!holds(ir_[d].args[0], d)) return;
    }
    std::size_t li = 0;
    for (const std::size_t p : c.parts) {
      for (std::size_t s = 0; s < ir_[p].args.size(); ++s, ++li) {
        if (c.leaves[li].kind == SegLeaf::Kind::kBroadcast &&
            !holds(ir_[p].args[s], p)) {
          return;
        }
      }
    }

    // Emit: slot 0 the tile's v, slot 1 its n, then one slot per splat,
    // then the broadcast operands in order.
    FusedExpr fe;
    fe.reduce = ir_[root].in.prim;
    fe.extracts =
        static_cast<std::uint8_t>(c.extracts.size() + c.pass_reads.size());
    std::vector<std::uint16_t> slot_regs{ir_[tp].args[0], ir_[tp].args[1]};
    fe.input_flags = {kernels::kFusedTile, kernels::kFusedCount};
    std::map<std::size_t, std::uint8_t> splat_slot;
    for (const std::size_t d : c.splats) {
      splat_slot[d] = static_cast<std::uint8_t>(slot_regs.size());
      slot_regs.push_back(ir_[d].args[0]);
      fe.input_flags.push_back(kernels::kFusedSegSplat);
    }
    std::map<std::size_t, std::uint8_t> node_of;
    li = 0;
    for (const std::size_t p : c.parts) {
      const IInstr& ii = ir_[p];
      std::uint8_t children[2] = {0, 0};
      for (std::size_t s = 0; s < ii.args.size(); ++s, ++li) {
        const SegLeaf& lf = c.leaves[li];
        if (lf.kind == SegLeaf::Kind::kInterior) {
          children[s] = node_of.at(lf.node);
          continue;
        }
        MicroOp leaf;
        leaf.kind = MicroOp::Kind::kInput;
        if (lf.kind == SegLeaf::Kind::kTile) {
          leaf.input = 0;
        } else if (lf.kind == SegLeaf::Kind::kSplat) {
          leaf.input = splat_slot.at(lf.node);
        } else {
          leaf.input = static_cast<std::uint8_t>(slot_regs.size());
          fe.input_flags.push_back(kernels::kFusedBroadcast);
          slot_regs.push_back(ii.args[s]);
        }
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
    // Each insert between two members charges after the last member
    // before it.
    for (const std::size_t x : c.passes) {
      const auto before = std::lower_bound(c.parts.begin(), c.parts.end(), x);
      fe.reinserts.push_back(node_of.at(*std::prev(before)));
    }
    std::sort(fe.reinserts.begin(), fe.reinserts.end());

    for (const std::size_t q : chain) {
      absorbed_[q] = 1;
      ir_[q].removed = true;
    }
    absorbed_[root] = 1;
    IInstr& ri = ir_[root];
    ri.in.op = Op::kFusedMap;
    ri.in.lifted = -1;
    ri.in.aux = static_cast<std::int32_t>(fused_.size());
    ri.in.aux2 = -1;
    ri.args = std::move(slot_regs);
    fused_.push_back(std::move(fe));
    stats_.fused_chains += 1;
    stats_.fused_prims += c.parts.size();
    stats_.eliminated_instrs += chain.size();
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
      for (std::uint8_t& f : fe.input_flags) {
        f = static_cast<std::uint8_t>(f & ~kernels::kFusedLastUse);
      }
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

  /// One def pass 2 moved to a fresh register, and the next def of its
  /// original register in the block.
  struct Rename {
    std::size_t def;
    std::uint16_t original;
    std::uint16_t fresh;
    std::size_t killer;
  };

  Function& fn_;
  std::span<const std::uint8_t> frames_;
  std::span<const Function* const> leaves_;
  FuseStats& stats_;
  std::uint16_t base_regs_;  ///< registers before inlining and renaming
  std::vector<Rename> renames_;
  std::vector<IInstr> ir_;
  std::vector<FusedExpr> fused_;
  std::vector<std::uint8_t> absorbed_;
  std::vector<Value> reach_;             ///< per operand; see propagate
  std::vector<std::size_t> reach_off_;   ///< pc -> first slot in reach_
  std::vector<Value> src_value_;         ///< per move: its source's value
  std::vector<std::uint8_t> killed_;     ///< def overwritten in its block
  std::vector<std::size_t> use_count_;
  std::vector<std::size_t> dead_move_reads_;
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
  const auto optimize = [&](std::size_t i,
                            std::span<const Function* const> leaves) {
    const std::span<const std::uint8_t> record =
        i < frames.size() ? std::span<const std::uint8_t>(frames[i])
                          : std::span<const std::uint8_t>();
    FunctionOptimizer(out->functions[i], record, leaves, tally).run();
  };
  // Functions that call nothing first, so the callers inline their
  // optimized code; the second round never modifies them.
  std::vector<const Function*> leaves(out->functions.size(), nullptr);
  for (std::size_t i = 0; i < out->functions.size(); ++i) {
    if (calls_out(out->functions[i])) continue;
    optimize(i, {});
    if (inlinable(out->functions[i])) leaves[i] = &out->functions[i];
  }
  for (std::size_t i = 0; i < out->functions.size(); ++i) {
    if (calls_out(out->functions[i])) optimize(i, leaves);
  }
  return out;
}

}  // namespace proteus::vm
