#include "vm/disasm.hpp"

#include <iomanip>
#include <sstream>

#include "analysis/lifetime.hpp"

namespace proteus::vm {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst:        return "const";
    case Op::kLoadFun:      return "loadfun";
    case Op::kMove:         return "move";
    case Op::kScalar:       return "scalar";
    case Op::kElementwise:  return "elementwise";
    case Op::kBuild:        return "build";
    case Op::kGather:       return "gather";
    case Op::kPack:         return "pack";
    case Op::kReduce:       return "reduce";
    case Op::kSegment:      return "segment";
    case Op::kExtract:      return "extract";
    case Op::kInsert:       return "insert";
    case Op::kEmptyFrame:   return "empty_frame";
    case Op::kSeqCons:      return "seq_cons";
    case Op::kTuple:        return "tuple";
    case Op::kTupleGet:     return "tuple_get";
    case Op::kFusedMap:     return "fused";
    case Op::kCall:         return "call";
    case Op::kCallIndirect: return "call_ind";
    case Op::kBranchEmpty:  return "brempty";
    case Op::kJump:         return "jump";
    case Op::kJumpIfFalse:  return "jfalse";
    case Op::kRet:          return "ret";
  }
  return "?";
}

namespace {

std::string constant_text(const kernels::VValue& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_real()) {
    std::ostringstream os;
    os << v.as_real();
    return os.str();
  }
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_fun()) return "&" + v.fun_name();
  return "<aggregate>";
}

std::string reg_list(const Module&, const Function& fn, const Instr& in,
                     std::size_t from = 0) {
  std::string out = "(";
  for (std::size_t i = from; i < in.args_count; ++i) {
    if (i != from) out += ", ";
    // += in two steps: `"r" + to_string(...)` trips GCC 12's
    // -Werror=restrict false positive (PR105651) at -O2+.
    out += 'r';
    out += std::to_string(fn.arg_pool[in.args_off + i]);
  }
  return out + ")";
}

/// Renders node `at` of a fused micro-expression as a prefix tree, leaves
/// shown as their operand registers (broadcast leaves with a ^ prefix, a
/// tile as tile(v, n), a segment splat as splat(s)).
void fused_tree(std::ostream& os, const Function& fn, const Instr& in,
                const kernels::FusedExpr& fe, std::size_t at) {
  const kernels::MicroOp& mo = fe.nodes[at];
  if (mo.kind == kernels::MicroOp::Kind::kInput) {
    const auto slot = [&](std::size_t s) {
      const std::uint8_t flags = fe.input_flags[s];
      if ((flags & kernels::kFusedBroadcast) != 0) os << '^';
      os << 'r' << fn.arg_pool[in.args_off + s];
      if ((flags & kernels::kFusedLastUse) != 0) os << '!';
    };
    const std::uint8_t flags = fe.input_flags[mo.input];
    if ((flags & kernels::kFusedTile) != 0 && fe.input_flags.size() > 1) {
      os << "tile(";
      slot(mo.input);
      os << ", ";
      slot(1);
      os << ')';
    } else if ((flags & kernels::kFusedSegSplat) != 0) {
      os << "splat(";
      slot(mo.input);
      os << ')';
    } else {
      slot(mo.input);
    }
    return;
  }
  os << lang::prim_name(mo.prim) << '(';
  fused_tree(os, fn, in, fe, mo.a);
  if (lang::prim_arity(mo.prim) == 2) {
    os << ", ";
    fused_tree(os, fn, in, fe, mo.b);
  }
  os << ')';
}

std::string lifted_text(const Function& fn, const Instr& in) {
  if (in.lifted < 0) return "";
  std::string out = " lifted=";
  for (std::uint8_t b :
       fn.lifted_sets[static_cast<std::size_t>(in.lifted)]) {
    out += b != 0 ? '1' : '0';
  }
  return out;
}

void instr_text(std::ostream& os, const Module& m, const Function& fn,
                std::size_t at) {
  const Instr& in = fn.code[at];
  os << std::setw(4) << at << "  " << std::left << std::setw(12)
     << op_name(in.op) << std::right << " ";
  const auto arg0 = [&] { return fn.arg_pool[in.args_off]; };
  const auto aux = [&] { return static_cast<std::size_t>(in.aux); };
  switch (in.op) {
    case Op::kConst:
    case Op::kLoadFun:
      os << "r" << in.dst << " <- " << constant_text(m.constants[aux()]);
      break;
    case Op::kMove:
      os << "r" << in.dst << " <- r" << arg0();
      break;
    case Op::kScalar:
    case Op::kElementwise:
    case Op::kBuild:
    case Op::kGather:
    case Op::kPack:
    case Op::kReduce:
    case Op::kSegment:
      os << "r" << in.dst << " <- " << lang::prim_name(in.prim)
         << (in.depth == 1 ? "^1" : "") << reg_list(m, fn, in)
         << lifted_text(fn, in);
      break;
    case Op::kExtract:
    case Op::kInsert:
      os << "r" << in.dst << " <- " << lang::prim_name(in.prim)
         << reg_list(m, fn, in) << " depth=" << int{in.depth};
      break;
    case Op::kEmptyFrame:
      os << "r" << in.dst << " <- empty_frame(r" << arg0()
         << ") depth=" << int{in.depth};
      break;
    case Op::kSeqCons:
      os << "r" << in.dst << " <- seq" << (in.depth == 1 ? "^1" : "")
         << reg_list(m, fn, in);
      break;
    case Op::kTuple:
      os << "r" << in.dst << " <- tuple" << (in.depth == 1 ? "^1" : "")
         << reg_list(m, fn, in);
      break;
    case Op::kTupleGet:
      os << "r" << in.dst << " <- r" << arg0() << "."
         << in.aux << (in.depth == 1 ? " ^1" : "");
      break;
    case Op::kFusedMap: {
      const kernels::FusedExpr& fe =
          fn.fused[static_cast<std::size_t>(in.aux)];
      os << "r" << in.dst << " <- ";
      if (fe.reduce) os << lang::prim_name(*fe.reduce) << "^1(";
      fused_tree(os, fn, in, fe, fe.nodes.size() - 1);
      if (fe.reduce) os << ')';
      std::size_t prims = 0;
      kernels::for_each_application(fe, [&](lang::Prim) { ++prims; });
      os << "  ; " << prims << " prims";
      break;
    }
    case Op::kCall:
      os << "r" << in.dst << " <- ";
      if (in.aux >= 0) {
        os << m.functions[aux()].name;
      } else {
        os << "<unresolved " << m.names[static_cast<std::size_t>(in.aux2)]
           << ">";
      }
      os << reg_list(m, fn, in);
      break;
    case Op::kCallIndirect:
      os << "r" << in.dst << " <- *r" << arg0()
         << (in.depth == 1 ? "^1" : "") << reg_list(m, fn, in, 1);
      break;
    case Op::kBranchEmpty:
      os << "r" << arg0() << " -> @" << in.aux;
      break;
    case Op::kJump:
      os << "-> @" << in.aux;
      break;
    case Op::kJumpIfFalse:
      os << "r" << arg0() << " -> @" << in.aux;
      break;
    case Op::kRet:
      os << "r" << arg0();
      break;
  }
  os << "\n";
}

}  // namespace

std::string to_text(const Module& module, const Function& fn) {
  std::ostringstream os;
  os << "fun " << fn.name << " (params " << fn.n_params << ", regs "
     << fn.n_regs << ", code " << fn.code.size() << "):\n";
  if (module.plan != nullptr) {
    // The memory plan is per-function and parallel to `functions`.
    for (std::size_t i = 0; i < module.functions.size(); ++i) {
      if (&module.functions[i] == &fn &&
          i < module.plan->functions.size()) {
        os << analysis::plan_to_text(module.plan->functions[i]);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    instr_text(os, module, fn, i);
  }
  return os.str();
}

std::string to_text(const Module& module) {
  std::ostringstream os;
  os << "module: " << module.functions.size() << " function"
     << (module.functions.size() == 1 ? "" : "s") << ", "
     << module.constants.size() << " constant"
     << (module.constants.size() == 1 ? "" : "s") << "\n";
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    os << "\n";
    if (static_cast<std::int32_t>(i) == module.entry) os << "; entry\n";
    os << to_text(module, module.functions[i]);
  }
  return os.str();
}

}  // namespace proteus::vm
