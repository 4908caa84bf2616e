#include "vm/verify.hpp"

#include <string>
#include <vector>

#include "lang/types.hpp"
#include "seq/extract_insert.hpp"
#include "vm/cfg.hpp"
#include "vm/compile.hpp"

namespace proteus::vm {

using analysis::Report;
using lang::Prim;

namespace {

/// Abstract register contents for the dataflow pass. kUnset is the
/// "possibly never written" state (must-define analysis: a register that
/// is unset on any path into an instruction may not be read there);
/// kAny is the top of the kind lattice.
struct Kind {
  enum Tag : std::uint8_t {
    kUnset,
    kScalar,
    kSeq,
    kTuple,
    kFun,
    kAny
  } tag = kUnset;
  int depth = -1;  ///< kSeq nesting depth; -1 when unknown

  static Kind unset() { return {}; }
  static Kind scalar() { return {kScalar, -1}; }
  static Kind seq(int d) { return {kSeq, d}; }
  static Kind tuple() { return {kTuple, -1}; }
  static Kind fun() { return {kFun, -1}; }
  static Kind any() { return {kAny, -1}; }

  bool operator==(const Kind& o) const {
    return tag == o.tag && depth == o.depth;
  }
};

Kind join(const Kind& a, const Kind& b) {
  if (a.tag == Kind::kUnset || b.tag == Kind::kUnset) return Kind::unset();
  if (a.tag != b.tag) return Kind::any();
  if (a.tag == Kind::kSeq && a.depth != b.depth) return Kind::seq(-1);
  return a;
}

Kind kind_of_constant(const kernels::VValue& v) {
  // A flat array has spine_depth 0 but nesting depth 1.
  if (v.is_seq()) return Kind::seq(seq::spine_depth(v.as_seq()) + 1);
  if (v.is_tuple()) return Kind::tuple();
  if (v.is_fun()) return Kind::fun();
  return Kind::scalar();
}

/// Expected operand count for an opcode, or -1 when variable.
int expected_args(const Instr& in) {
  switch (in.op) {
    case Op::kConst:
    case Op::kLoadFun:
    case Op::kJump:
      return 0;
    case Op::kMove:
    case Op::kEmptyFrame:
    case Op::kTupleGet:
    case Op::kBranchEmpty:
    case Op::kJumpIfFalse:
    case Op::kRet:
    case Op::kExtract:
      return 1;
    case Op::kInsert:
      return 2;
    case Op::kScalar:
    case Op::kElementwise:
    case Op::kBuild:
    case Op::kGather:
    case Op::kPack:
    case Op::kReduce:
    case Op::kSegment:
      return lang::prim_arity(in.prim);
    default:
      return -1;  // kSeqCons, kTuple, kCall, kCallIndirect, kFusedMap
  }
}

class Verifier {
 public:
  explicit Verifier(const Module& m, Report& report)
      : module_(m), report_(report) {}

  void run() {
    check_module_tables();
    for (const Function& fn : module_.functions) {
      fn_ = &fn;
      errors_before_ = report_.error_count();
      check_structure();
      // Dataflow indexes registers and operand pools unguarded; only a
      // structurally sound function can be analyzed.
      if (report_.error_count() == errors_before_) check_dataflow();
    }
  }

 private:
  void err(const char* code, std::string msg, std::size_t pc) {
    report_.error(code, "pc " + std::to_string(pc) + ": " + std::move(msg),
                  fn_ != nullptr ? fn_->name : "<module>", {}, "VCODE");
  }

  void module_err(const char* code, std::string msg) {
    report_.error(code, std::move(msg), "<module>", {}, "VCODE");
  }

  void check_module_tables() {
    const auto n = static_cast<std::int64_t>(module_.functions.size());
    if (module_.entry >= n) {
      module_err("B201", "entry index " + std::to_string(module_.entry) +
                             " outside the function table of size " +
                             std::to_string(n));
    }
    for (const auto& [name, index] : module_.fn_index) {
      if (index >= module_.functions.size()) {
        module_err("B201", "fn_index['" + name + "'] = " +
                               std::to_string(index) +
                               " outside the function table");
      } else if (module_.functions[index].name != name) {
        module_err("B201", "fn_index['" + name + "'] names function '" +
                               module_.functions[index].name + "'");
      }
    }
  }

  bool valid_target(std::int32_t aux) const {
    return aux >= 0 &&
           static_cast<std::size_t>(aux) < fn_->code.size();
  }

  // --- linear structural pass ------------------------------------------------

  void check_structure() {
    const Function& fn = *fn_;
    if (fn.n_params > fn.n_regs) {
      err("B203",
          std::to_string(fn.n_params) + " parameters but only " +
              std::to_string(fn.n_regs) + " registers",
          0);
    }
    if (fn.code.empty()) {
      err("B202", "function has no instructions", 0);
      return;
    }
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      check_instr(fn.code[pc], pc);
    }
    const Op last = fn.code.back().op;
    if (last != Op::kRet && last != Op::kJump) {
      err("B202",
          std::string("control flow falls off the end (last op is ") +
              op_name(last) + ")",
          fn.code.size() - 1);
    }
  }

  void check_instr(const Instr& in, std::size_t pc) {
    const Function& fn = *fn_;
    // Operand list and register-file bounds.
    if (static_cast<std::size_t>(in.args_off) + in.args_count >
        fn.arg_pool.size()) {
      err("B204",
          "operand list [" + std::to_string(in.args_off) + ", +" +
              std::to_string(in.args_count) + ") outside the argument pool",
          pc);
      return;
    }
    const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
    for (std::size_t i = 0; i < in.args_count; ++i) {
      if (a[i] >= fn.n_regs) {
        err("B203",
            "operand register r" + std::to_string(a[i]) +
                " outside the register file of size " +
                std::to_string(fn.n_regs),
            pc);
      }
    }
    if (writes_dst(in.op) && in.dst >= fn.n_regs) {
      err("B203",
          "destination register r" + std::to_string(in.dst) +
              " outside the register file of size " +
              std::to_string(fn.n_regs),
          pc);
    }

    // Opcode operand arity.
    const int want = expected_args(in);
    if (want >= 0 && in.args_count != static_cast<std::uint16_t>(want)) {
      err("B205",
          std::string(op_name(in.op)) + " takes " + std::to_string(want) +
              " operands, got " + std::to_string(in.args_count),
          pc);
    }

    // Per-opcode payload checks.
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadFun:
        if (in.aux < 0 || static_cast<std::size_t>(in.aux) >=
                              module_.constants.size()) {
          err("B206", "constant index " + std::to_string(in.aux) +
                          " outside the constant pool",
              pc);
        }
        break;
      case Op::kScalar:
      case Op::kElementwise:
      case Op::kBuild:
      case Op::kGather:
      case Op::kPack:
      case Op::kReduce:
      case Op::kSegment: {
        if (in.depth > 1) {
          err("B212",
              std::string("kernel depth ") + std::to_string(in.depth) +
                  " (> 1: T1 was not applied?)",
              pc);
        }
        if (family_of(in.prim, in.depth) != in.op) {
          err("B205",
              std::string(op_name(in.op)) + " opcode disagrees with its " +
                  lang::prim_name(in.prim) + " selector",
              pc);
        }
        if (in.lifted >= 0) {
          if (static_cast<std::size_t>(in.lifted) >=
              fn.lifted_sets.size()) {
            err("B206", "lift-set index " + std::to_string(in.lifted) +
                            " outside the function's lift sets",
                pc);
          } else {
            const auto& set =
                fn.lifted_sets[static_cast<std::size_t>(in.lifted)];
            if (!set.empty() && set.size() != in.args_count) {
              err("B209",
                  std::to_string(set.size()) + " lift flags for " +
                      std::to_string(in.args_count) + " operands",
                  pc);
            }
          }
        }
        break;
      }
      case Op::kExtract:
        if (in.prim != Prim::kExtract) {
          err("B205", "extract opcode with a non-extract selector", pc);
        }
        break;
      case Op::kInsert:
        if (in.prim != Prim::kInsert) {
          err("B205", "insert opcode with a non-insert selector", pc);
        }
        break;
      case Op::kEmptyFrame:
        if (in.depth < 1) {
          err("B212", "empty_frame lacks its frame-depth marker", pc);
        }
        if (in.aux < 0 ||
            static_cast<std::size_t>(in.aux) >= module_.types.size()) {
          err("B206", "type index " + std::to_string(in.aux) +
                          " outside the type pool",
              pc);
        }
        break;
      case Op::kSeqCons:
        if (in.depth > 1) {
          err("B212", "seq_cons depth > 1", pc);
        }
        if (in.args_count == 0 && in.aux < 0) {
          err("B206", "empty sequence literal without a type index", pc);
        }
        if (in.aux >= 0 &&
            static_cast<std::size_t>(in.aux) >= module_.types.size()) {
          err("B206", "type index " + std::to_string(in.aux) +
                          " outside the type pool",
              pc);
        }
        break;
      case Op::kTuple:
        if (in.args_count == 0) {
          err("B205", "tuple construction with no components", pc);
        }
        if (in.depth > 1) err("B212", "tuple_cons depth > 1", pc);
        break;
      case Op::kTupleGet:
        if (in.aux < 1) {
          err("B206",
              "tuple component index " + std::to_string(in.aux) +
                  " (components are 1-origin)",
              pc);
        }
        if (in.depth > 1) err("B212", "tuple_extract depth > 1", pc);
        break;
      case Op::kFusedMap:
        check_fused(in, pc);
        break;
      case Op::kCall:
        if (in.aux >= 0) {
          if (static_cast<std::size_t>(in.aux) >=
              module_.functions.size()) {
            err("B206", "callee index " + std::to_string(in.aux) +
                            " outside the function table",
                pc);
          } else {
            const Function& callee =
                module_.functions[static_cast<std::size_t>(in.aux)];
            if (in.args_count != callee.n_params) {
              err("B208",
                  "call of '" + callee.name + "' passes " +
                      std::to_string(in.args_count) + " arguments to " +
                      std::to_string(callee.n_params) + " parameters",
                  pc);
            }
          }
        } else if (in.aux2 < 0 || static_cast<std::size_t>(in.aux2) >=
                                      module_.names.size()) {
          err("B206",
              "unresolved call without a valid diagnostic name index", pc);
        }
        break;
      case Op::kCallIndirect:
        if (in.args_count < 1) {
          err("B205", "indirect call without a callee operand", pc);
        }
        if (in.depth > 1) err("B212", "indirect call depth > 1", pc);
        break;
      case Op::kBranchEmpty:
      case Op::kJump:
      case Op::kJumpIfFalse:
        if (!valid_target(in.aux)) {
          err("B207", "jump target " + std::to_string(in.aux) +
                          " outside the code of size " +
                          std::to_string(fn.code.size()),
              pc);
        }
        break;
      case Op::kMove:
      case Op::kRet:
        break;
    }
  }

  /// kFusedMap: the superinstruction's micro-expression must be a closed,
  /// acyclic post-order program over the instruction's operand slots
  /// (B213), and its operand-slot metadata must agree with the operand
  /// list (B214).
  void check_fused(const Instr& in, std::size_t pc) {
    const Function& fn = *fn_;
    if (in.depth != 1) {
      err("B212", "fused superinstruction with depth != 1", pc);
    }
    if (in.aux < 0 ||
        static_cast<std::size_t>(in.aux) >= fn.fused.size()) {
      err("B213", "fused-expression index " + std::to_string(in.aux) +
                      " outside the function's fused pool",
          pc);
      return;
    }
    const kernels::FusedExpr& fe =
        fn.fused[static_cast<std::size_t>(in.aux)];
    if (fe.nodes.empty() || fe.nodes.size() > kernels::kMaxFusedNodes) {
      err("B213",
          "fused expression with " + std::to_string(fe.nodes.size()) +
              " nodes (1.." + std::to_string(kernels::kMaxFusedNodes) +
              " allowed)",
          pc);
      return;
    }
    if (fe.nodes.back().kind != kernels::MicroOp::Kind::kPrim) {
      err("B213", "fused expression whose root is a bare operand", pc);
    }
    if (fe.input_flags.size() != in.args_count) {
      err("B214",
          std::to_string(fe.input_flags.size()) +
              " operand-slot flags for " + std::to_string(in.args_count) +
              " operands",
          pc);
      return;
    }
    if (fe.reduce && !kernels::fusible_reduce(*fe.reduce)) {
      err("B213",
          std::string("prim '") + lang::prim_name(*fe.reduce) +
              "' as the segmented reduce of a fused expression",
          pc);
    }
    bool any_frame = false;
    for (std::size_t s = 0; s < fe.input_flags.size(); ++s) {
      const std::uint8_t flags = fe.input_flags[s];
      if ((flags & kernels::kFusedBroadcast) == 0) any_frame = true;
      check_slot_flags(fe, s, pc);
    }
    if (!any_frame) {
      err("B214", "fused expression with every operand broadcast", pc);
    }
    if (fe.reduce && fe.input_flags.size() < 2) {
      err("B214", "segmented fused expression without its tile operands",
          pc);
    }
    for (const std::uint8_t after : fe.reinserts) {
      if (!fe.reduce || after >= fe.nodes.size() ||
          fe.nodes[after].kind != kernels::MicroOp::Kind::kPrim) {
        err("B213",
            "insert after micro-op " + std::to_string(after) +
                ", not an elementwise node of a segmented expression",
            pc);
      }
    }
    for (std::size_t k = 0; k < fe.nodes.size(); ++k) {
      const kernels::MicroOp& mo = fe.nodes[k];
      if (mo.kind == kernels::MicroOp::Kind::kInput) {
        if (mo.input >= fe.input_flags.size()) {
          err("B214",
              "micro-op " + std::to_string(k) + " reads operand slot " +
                  std::to_string(mo.input) + " of " +
                  std::to_string(fe.input_flags.size()),
              pc);
        } else if ((fe.input_flags[mo.input] & kernels::kFusedCount) != 0) {
          err("B214",
              "micro-op " + std::to_string(k) +
                  " reads the tile count as an element",
              pc);
        }
        continue;
      }
      if (!kernels::fusible_prim(mo.prim)) {
        err("B213",
            std::string("non-elementwise prim '") +
                lang::prim_name(mo.prim) + "' inside a fused expression",
            pc);
      }
      // Post-order: children strictly precede their user (acyclic by
      // construction when this holds everywhere).
      const int arity = lang::prim_arity(mo.prim);
      if (mo.a >= k || (arity == 2 && mo.b >= k)) {
        err("B213",
            "micro-op " + std::to_string(k) +
                " reads a node at or after itself",
            pc);
      }
    }
  }

  /// B214: the flags of operand slot `s` name known roles, and the
  /// segment roles sit where the evaluator reads them: the tile in slot 0
  /// and its count in slot 1 of a reduce-rooted expression, splats only
  /// there, and no role combined with a broadcast.
  void check_slot_flags(const kernels::FusedExpr& fe, std::size_t s,
                        std::size_t pc) {
    const std::uint8_t flags = fe.input_flags[s];
    const auto has = [flags](std::uint8_t f) { return (flags & f) != 0; };
    const bool segmented = fe.reduce.has_value();
    std::string bad;
    if ((flags & ~kernels::kFusedSlotFlags) != 0) {
      bad = "unknown flag bits";
    } else if (has(kernels::kFusedTile) != (segmented && s == 0)) {
      bad = segmented ? "tile flag off slot 0" : "tile flag without a reduce";
    } else if (has(kernels::kFusedCount) != (segmented && s == 1)) {
      bad = segmented ? "count flag off slot 1"
                      : "count flag without a reduce";
    } else if (has(kernels::kFusedSegSplat) && (!segmented || s < 2)) {
      bad = "segment-splat flag outside the splat slots of a reduce";
    } else if (has(kernels::kFusedBroadcast) &&
               has(kernels::kFusedTile | kernels::kFusedCount |
                   kernels::kFusedSegSplat)) {
      bad = "broadcast flag on a segment operand";
    }
    if (!bad.empty()) {
      err("B214", "operand slot " + std::to_string(s) + ": " + bad, pc);
    }
  }

  // --- worklist dataflow over the instruction-level CFG ----------------------

  void check_dataflow() {
    const Function& fn = *fn_;
    const std::size_t n = fn.code.size();
    std::vector<std::vector<Kind>> in_state(n);
    std::vector<std::uint8_t> reached(n, 0);

    std::vector<Kind> entry(fn.n_regs, Kind::unset());
    for (std::size_t r = 0; r < fn.n_params; ++r) entry[r] = Kind::any();

    std::vector<std::size_t> work;
    auto flow_to = [&](std::size_t pc, const std::vector<Kind>& state) {
      if (pc >= n) return;  // successors() passes branch targets unchecked
      if (reached[pc] == 0) {
        reached[pc] = 1;
        in_state[pc] = state;
        work.push_back(pc);
        return;
      }
      bool changed = false;
      for (std::size_t r = 0; r < state.size(); ++r) {
        Kind merged = join(in_state[pc][r], state[r]);
        if (!(merged == in_state[pc][r])) {
          in_state[pc][r] = merged;
          changed = true;
        }
      }
      if (changed) work.push_back(pc);
    };

    flow_to(0, entry);
    while (!work.empty()) {
      const std::size_t pc = work.back();
      work.pop_back();
      std::vector<Kind> state = in_state[pc];
      const Instr& in = fn.code[pc];
      transfer(in, pc, state);
      for (const std::size_t succ : successors(in, pc, n)) flow_to(succ, state);
    }
  }

  /// Checks the uses of one instruction against the incoming state and
  /// applies its definition.
  void transfer(const Instr& in, std::size_t pc, std::vector<Kind>& state) {
    const Function& fn = *fn_;
    const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
    for (std::size_t i = 0; i < in.args_count; ++i) {
      if (state[a[i]].tag == Kind::kUnset) {
        err("B210",
            "register r" + std::to_string(a[i]) +
                " may be read before it is written",
            pc);
        state[a[i]] = Kind::any();  // report once per path shape
      }
    }

    Kind out = Kind::any();
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadFun:
        out = kind_of_constant(
            module_.constants[static_cast<std::size_t>(in.aux)]);
        break;
      case Op::kMove:
        out = state[a[0]];
        break;
      case Op::kScalar:
        out = Kind::scalar();
        break;
      case Op::kElementwise: {
        int d = -1;
        for (std::size_t i = 0; i < in.args_count; ++i) {
          if (state[a[i]].tag == Kind::kSeq && state[a[i]].depth > 0) {
            d = state[a[i]].depth;
            break;
          }
        }
        out = Kind::seq(d);
        break;
      }
      case Op::kFusedMap: {
        // Same kind transfer as the chain it replaced: the result is a
        // flat frame whose descriptor comes from the lifted operands.
        // A definitely-non-sequence register in a frame (non-broadcast)
        // slot would make every constituent instruction fail.
        const auto& fe =
            fn.fused[static_cast<std::size_t>(in.aux)];
        // A reduce-rooted one has the reduce^1's result kind; its tile
        // count must be a scalar (the dist reads it with as_int).
        int d = -1;
        for (std::size_t i = 0; i < in.args_count; ++i) {
          const std::uint8_t flags = fe.input_flags[i];
          if ((flags & kernels::kFusedBroadcast) != 0) continue;
          const Kind v = state[a[i]];
          if ((flags & kernels::kFusedCount) != 0) {
            if (v.tag == Kind::kSeq || v.tag == Kind::kTuple ||
                v.tag == Kind::kFun) {
              err("B211",
                  "fused tile count r" + std::to_string(a[i]) +
                      " is not a scalar",
                  pc);
            }
            continue;
          }
          if (v.tag == Kind::kScalar || v.tag == Kind::kTuple ||
              v.tag == Kind::kFun) {
            err("B211",
                "fused frame operand r" + std::to_string(a[i]) +
                    " is not a sequence",
                pc);
          }
          if (d < 0 && v.tag == Kind::kSeq && v.depth > 0) d = v.depth;
        }
        out = Kind::seq(fe.reduce ? -1 : d);
        break;
      }
      case Op::kBuild:
        if (in.prim == Prim::kRange || in.prim == Prim::kRange1) {
          out = Kind::seq(1 + in.depth);
        } else {
          out = Kind::seq(-1);
        }
        break;
      case Op::kGather:
      case Op::kTupleGet:
      case Op::kCall:
      case Op::kCallIndirect:
        out = Kind::any();
        break;
      case Op::kPack: {
        // restrict(v, m) / combine(m, v, u) / update(s, i, v): the result
        // has the data operand's kind.
        const std::size_t data = in.prim == Prim::kCombine ? 1 : 0;
        out = data < in.args_count && state[a[data]].tag == Kind::kSeq
                  ? state[a[data]]
                  : Kind::seq(-1);
        break;
      }
      case Op::kReduce:
        out = in.depth == 0 ? Kind::scalar() : Kind::seq(-1);
        break;
      case Op::kSegment:
        out = Kind::seq(-1);
        break;
      case Op::kExtract: {
        const Kind v = state[a[0]];
        if (v.tag == Kind::kScalar || v.tag == Kind::kTuple ||
            v.tag == Kind::kFun) {
          err("B211", "extract of a non-sequence register", pc);
          out = Kind::seq(-1);
        } else if (v.tag == Kind::kSeq && v.depth >= 0 &&
                   v.depth < in.depth + 1) {
          err("B211",
              "extract strips " + std::to_string(in.depth) +
                  " descriptor levels from a depth-" +
                  std::to_string(v.depth) + " register",
              pc);
          out = Kind::seq(-1);
        } else {
          out = Kind::seq(v.tag == Kind::kSeq && v.depth >= 0
                              ? v.depth - in.depth
                              : -1);
        }
        break;
      }
      case Op::kInsert: {
        const Kind inner = state[a[0]];
        const Kind frame = state[a[1]];
        if (inner.tag == Kind::kScalar || inner.tag == Kind::kTuple ||
            inner.tag == Kind::kFun || frame.tag == Kind::kScalar ||
            frame.tag == Kind::kTuple || frame.tag == Kind::kFun) {
          err("B211", "insert of a non-sequence register", pc);
        } else if (frame.tag == Kind::kSeq && frame.depth >= 0 &&
                   frame.depth < in.depth + 1) {
          err("B211",
              "insert re-attaches " + std::to_string(in.depth) +
                  " descriptor levels from a depth-" +
                  std::to_string(frame.depth) + " frame register",
              pc);
        }
        out = Kind::seq(inner.tag == Kind::kSeq && inner.depth >= 0
                            ? inner.depth + in.depth
                            : -1);
        break;
      }
      case Op::kEmptyFrame:
        out = Kind::seq(-1);
        break;
      case Op::kSeqCons:
        if (in.depth == 1) {
          out = Kind::seq(-1);
        } else if (in.args_count > 0 && state[a[0]].tag == Kind::kSeq &&
                   state[a[0]].depth >= 0) {
          out = Kind::seq(state[a[0]].depth + 1);
        } else if (in.args_count > 0 &&
                   state[a[0]].tag == Kind::kScalar) {
          out = Kind::seq(1);
        } else {
          out = Kind::seq(-1);
        }
        break;
      case Op::kTuple:
        out = in.depth == 0 ? Kind::tuple() : Kind::seq(-1);
        break;
      case Op::kBranchEmpty:
        if (state[a[0]].tag == Kind::kScalar ||
            state[a[0]].tag == Kind::kTuple ||
            state[a[0]].tag == Kind::kFun) {
          err("B211", "branch-on-empty of a non-sequence register", pc);
        }
        return;
      case Op::kJumpIfFalse:
        if (state[a[0]].tag == Kind::kSeq ||
            state[a[0]].tag == Kind::kTuple ||
            state[a[0]].tag == Kind::kFun) {
          err("B211", "conditional branch on a non-scalar register", pc);
        }
        return;
      case Op::kJump:
      case Op::kRet:
        return;
    }
    if (writes_dst(in.op)) state[in.dst] = out;
  }

  const Module& module_;
  Report& report_;
  const Function* fn_ = nullptr;
  std::size_t errors_before_ = 0;
};

}  // namespace

Report verify_module(const Module& m) {
  Report report;
  Verifier verifier(m, report);
  verifier.run();
  return report;
}

void verify_module_or_throw(const Module& m) {
  Report report = verify_module(m);
  if (!report.ok()) throw analysis::AnalysisError(std::move(report));
}

}  // namespace proteus::vm
