#include "vm/compile.hpp"

#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "vl/check.hpp"

namespace proteus::vm {

using kernels::VValue;
using lang::Expr;
using lang::ExprPtr;
using lang::FunDef;
using lang::Prim;

/// The vl primitive family an operation belongs to (profiling/disassembly
/// metadata; dispatch reads `prim` + `depth`). Exposed so the bytecode
/// verifier can check that each instruction's opcode matches its selector.
Op family_of(Prim p, int depth) {
  switch (p) {
    case Prim::kExtract:
      return Op::kExtract;
    case Prim::kInsert:
      return Op::kInsert;
    case Prim::kEmptyFrame:
      return Op::kEmptyFrame;
    case Prim::kRange:
    case Prim::kRange1:
    case Prim::kDist:
      return Op::kBuild;
    case Prim::kSeqIndex:
    case Prim::kSeqIndexInner:
      return Op::kGather;
    case Prim::kRestrict:
    case Prim::kCombine:
    case Prim::kSeqUpdate:
      return Op::kPack;
    case Prim::kLength:
    case Prim::kSum:
    case Prim::kMaxVal:
    case Prim::kMinVal:
    case Prim::kAnyV:
    case Prim::kAllV:
    case Prim::kAnyTrue:
      return Op::kReduce;
    case Prim::kFlatten:
    case Prim::kConcat:
    case Prim::kReverse:
    case Prim::kZip:
      return Op::kSegment;
    default:
      return depth == 0 ? Op::kScalar : Op::kElementwise;
  }
}

namespace {

[[noreturn]] void fail(const std::string& msg) { throw TransformError(msg); }

/// Shared interning pools of the module under construction.
class Builder {
 public:
  explicit Builder(Module& m) : module_(m) {}

  std::int32_t const_int(vl::Int v) {
    auto [it, fresh] = ints_.try_emplace(v, next());
    if (fresh) module_.constants.push_back(VValue::ints(v));
    return it->second;
  }
  std::int32_t const_real(vl::Real v) {
    // NaN never compares equal to itself; intern it un-deduplicated.
    if (v != v) {
      module_.constants.push_back(VValue::reals(v));
      return next() - 1;
    }
    auto [it, fresh] = reals_.try_emplace(v, next());
    if (fresh) module_.constants.push_back(VValue::reals(v));
    return it->second;
  }
  std::int32_t const_bool(bool v) {
    auto [it, fresh] = bools_.try_emplace(v, next());
    if (fresh) module_.constants.push_back(VValue::bools(v));
    return it->second;
  }
  std::int32_t const_fun(const std::string& name) {
    auto [it, fresh] = funs_.try_emplace(name, next());
    if (fresh) module_.constants.push_back(VValue::fun(name));
    return it->second;
  }

  std::int32_t type_index(const lang::TypePtr& t) {
    for (std::size_t i = 0; i < module_.types.size(); ++i) {
      if (module_.types[i] == t) return static_cast<std::int32_t>(i);
    }
    module_.types.push_back(t);
    return static_cast<std::int32_t>(module_.types.size() - 1);
  }

  std::int32_t name_index(const std::string& name) {
    for (std::size_t i = 0; i < module_.names.size(); ++i) {
      if (module_.names[i] == name) return static_cast<std::int32_t>(i);
    }
    module_.names.push_back(name);
    return static_cast<std::int32_t>(module_.names.size() - 1);
  }

  [[nodiscard]] std::int32_t fn_lookup(const std::string& name) const {
    auto it = module_.fn_index.find(name);
    return it == module_.fn_index.end() ? -1
                                        : static_cast<std::int32_t>(it->second);
  }

  [[nodiscard]] bool has_fn(const std::string& name) const {
    return module_.fn_index.contains(name);
  }

 private:
  std::int32_t next() const {
    return static_cast<std::int32_t>(module_.constants.size());
  }

  Module& module_;
  std::map<vl::Int, std::int32_t> ints_;
  std::map<vl::Real, std::int32_t> reals_;
  std::map<bool, std::int32_t> bools_;
  std::map<std::string, std::int32_t> funs_;
};

using Reg = std::uint16_t;

/// Compiles one function body into linear code with a scoped register
/// free-list (a released slot is reused by later temporaries, keeping
/// frames near the live-range width of the body).
class FunCompiler {
 public:
  FunCompiler(Builder& builder, Function& out)
      : builder_(builder), out_(out) {}

  void compile(const std::vector<lang::Param>& params, const ExprPtr& body) {
    out_.n_params = static_cast<std::uint16_t>(params.size());
    next_ = out_.n_params;
    for (Reg i = 0; i < out_.n_params; ++i) {
      env_.emplace_back(params[static_cast<std::size_t>(i)].name, i);
    }
    std::vector<Reg> owned;
    Reg r = operand(body, owned);
    emit(Instr{.op = Op::kRet}, {r});
    release(owned);
    out_.n_regs = next_;
  }

 private:
  // --- register allocation ---------------------------------------------------

  Reg alloc() {
    if (!free_.empty()) {
      Reg r = free_.back();
      free_.pop_back();
      return r;
    }
    PROTEUS_REQUIRE(TransformError, next_ < 0xFFFF,
                    "vm compiler: function needs too many registers");
    return next_++;
  }
  void release(Reg r) { free_.push_back(r); }
  void release(const std::vector<Reg>& regs) {
    for (Reg r : regs) release(r);
  }

  // --- code emission ---------------------------------------------------------

  std::size_t emit(Instr in, const std::vector<Reg>& args) {
    in.args_off = static_cast<std::uint32_t>(out_.arg_pool.size());
    in.args_count = static_cast<std::uint16_t>(args.size());
    out_.arg_pool.insert(out_.arg_pool.end(), args.begin(), args.end());
    out_.code.push_back(in);
    return out_.code.size() - 1;
  }

  std::size_t here() const { return out_.code.size(); }
  void patch(std::size_t at) {
    out_.code[at].aux = static_cast<std::int32_t>(here());
  }

  std::int32_t lifted_index(const std::vector<std::uint8_t>& lifted) {
    if (lifted.empty()) return -1;
    for (std::size_t i = 0; i < out_.lifted_sets.size(); ++i) {
      if (out_.lifted_sets[i] == lifted) return static_cast<std::int32_t>(i);
    }
    out_.lifted_sets.push_back(lifted);
    return static_cast<std::int32_t>(out_.lifted_sets.size() - 1);
  }

  // --- expression lowering ---------------------------------------------------

  /// Register holding `e`'s value: a bound variable's own slot (nothing
  /// emitted, not owned) or a fresh temporary appended to `owned`.
  Reg operand(const ExprPtr& e, std::vector<Reg>& owned) {
    if (const auto* v = lang::as<lang::VarRef>(e)) {
      if (!v->is_function) {
        if (const Reg* r = lookup(v->name)) return *r;
      }
    }
    Reg t = alloc();
    owned.push_back(t);
    compile_into(e, t);
    return t;
  }

  std::vector<Reg> operands(const std::vector<ExprPtr>& es,
                            std::vector<Reg>& owned) {
    std::vector<Reg> regs;
    regs.reserve(es.size());
    for (const ExprPtr& e : es) regs.push_back(operand(e, owned));
    return regs;
  }

  /// Like operand(), but a non-variable expression computes straight into
  /// `dst` (the accumulator trick: the VM writes dst only after reading
  /// every source, so dst may double as a source). Keeps left-deep
  /// expression chains at O(1) live registers instead of O(depth).
  Reg operand_into(const ExprPtr& e, Reg dst) {
    if (const auto* v = lang::as<lang::VarRef>(e)) {
      if (!v->is_function) {
        if (const Reg* r = lookup(v->name)) return *r;
      }
    }
    compile_into(e, dst);
    return dst;
  }

  /// Operand registers for an argument list whose first non-variable
  /// argument accumulates into `dst`.
  std::vector<Reg> operands_into(const std::vector<ExprPtr>& es, Reg dst,
                                 std::vector<Reg>& owned) {
    std::vector<Reg> regs;
    regs.reserve(es.size());
    for (std::size_t i = 0; i < es.size(); ++i) {
      regs.push_back(i == 0 ? operand_into(es[0], dst)
                            : operand(es[i], owned));
    }
    return regs;
  }

  void compile_into(const ExprPtr& e, Reg dst) {
    std::visit([&](const auto& node) { lower(node, e, dst); }, e->node);
  }

  void lower(const lang::IntLit& n, const ExprPtr&, Reg dst) {
    emit(Instr{.op = Op::kConst, .dst = dst, .aux = builder_.const_int(n.value)},
         {});
  }
  void lower(const lang::RealLit& n, const ExprPtr&, Reg dst) {
    emit(Instr{.op = Op::kConst, .dst = dst,
               .aux = builder_.const_real(n.value)},
         {});
  }
  void lower(const lang::BoolLit& n, const ExprPtr&, Reg dst) {
    emit(Instr{.op = Op::kConst, .dst = dst,
               .aux = builder_.const_bool(n.value)},
         {});
  }

  void lower(const lang::VarRef& n, const ExprPtr&, Reg dst) {
    if (!n.is_function) {
      if (const Reg* r = lookup(n.name)) {
        emit(Instr{.op = Op::kMove, .dst = dst}, {*r});
        return;
      }
    }
    if (builder_.has_fn(n.name)) {
      emit(Instr{.op = Op::kLoadFun, .dst = dst,
                 .aux = builder_.const_fun(n.name)},
           {});
      return;
    }
    fail("vm compiler: unbound variable '" + n.name + "'");
  }

  void lower(const lang::Let& n, const ExprPtr&, Reg dst) {
    std::vector<Reg> owned;
    Reg r = operand(n.init, owned);
    env_.emplace_back(n.var, r);
    compile_into(n.body, dst);
    env_.pop_back();
    release(owned);
  }

  void lower(const lang::If& n, const ExprPtr&, Reg dst) {
    std::size_t branch;
    // The condition may accumulate into dst: the branch consumes it
    // before either arm overwrites the register.
    //
    // Rule R2d's recursion guard `if any_true(M) ...` becomes the VM's
    // branch-on-empty-frame: one opcode walks M's spine and jumps.
    const auto* guard = lang::as<lang::PrimCall>(n.cond);
    if (guard != nullptr && guard->op == Prim::kAnyTrue &&
        guard->depth == 0) {
      Reg m = operand_into(guard->args[0], dst);
      branch = emit(Instr{.op = Op::kBranchEmpty}, {m});
    } else {
      Reg c = operand_into(n.cond, dst);
      branch = emit(Instr{.op = Op::kJumpIfFalse}, {c});
    }
    compile_into(n.then_expr, dst);
    std::size_t jump = emit(Instr{.op = Op::kJump}, {});
    patch(branch);
    compile_into(n.else_expr, dst);
    patch(jump);
  }

  void lower(const lang::PrimCall& n, const ExprPtr& e, Reg dst) {
    std::vector<Reg> owned;
    if (n.op == Prim::kEmptyFrame) {
      Reg m = operand_into(n.args[0], dst);
      emit(Instr{.op = Op::kEmptyFrame,
                 .prim = n.op,
                 .depth = static_cast<std::uint8_t>(n.depth),
                 .dst = dst,
                 .aux = builder_.type_index(e->type)},
           {m});
      return;
    }
    if (n.op == Prim::kExtract || n.op == Prim::kInsert) {
      PROTEUS_REQUIRE(TransformError, n.depth == 0,
                      "extract/insert have no parallel extension");
      // The representation depth is a static Int literal (T1 emits it so);
      // fold it into the instruction instead of spending a register.
      const std::size_t d_at = n.args.size() - 1;
      const auto* d = lang::as<lang::IntLit>(n.args[d_at]);
      if (d == nullptr || d->value < 0 || d->value > 0xFF) {
        fail("vm compiler: extract/insert without a static depth literal");
      }
      std::vector<ExprPtr> frames(n.args.begin(), n.args.begin() +
                                  static_cast<std::ptrdiff_t>(d_at));
      std::vector<Reg> regs = operands_into(frames, dst, owned);
      emit(Instr{.op = family_of(n.op, n.depth),
                 .prim = n.op,
                 .depth = static_cast<std::uint8_t>(d->value),
                 .dst = dst},
           regs);
      release(owned);
      return;
    }
    PROTEUS_REQUIRE(TransformError, n.depth <= 1,
                    "vm compiler given a depth >= 2 primitive call; run the "
                    "T1 translation first");
    std::vector<Reg> regs = operands_into(n.args, dst, owned);
    emit(Instr{.op = family_of(n.op, n.depth),
               .prim = n.op,
               .depth = static_cast<std::uint8_t>(n.depth),
               .dst = dst,
               .lifted = n.depth == 1 ? lifted_index(n.lifted) : -1},
         regs);
    release(owned);
  }

  void lower(const lang::FunCall& n, const ExprPtr&, Reg dst) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "vm compiler given a depth-extended user call; run the "
                    "T1 translation first");
    std::vector<Reg> owned;
    std::vector<Reg> regs = operands_into(n.args, dst, owned);
    emit(Instr{.op = Op::kCall,
               .dst = dst,
               .aux = builder_.fn_lookup(n.name),
               .aux2 = builder_.name_index(n.name)},
         regs);
    release(owned);
  }

  void lower(const lang::IndirectCall& n, const ExprPtr&, Reg dst) {
    PROTEUS_REQUIRE(TransformError, n.depth <= 1,
                    "vm compiler given a depth >= 2 indirect call");
    std::vector<Reg> owned;
    std::vector<Reg> regs;
    regs.push_back(operand_into(n.fn, dst));
    for (Reg r : operands(n.args, owned)) regs.push_back(r);
    emit(Instr{.op = Op::kCallIndirect,
               .depth = static_cast<std::uint8_t>(n.depth),
               .dst = dst},
         regs);
    release(owned);
  }

  void lower(const lang::TupleExpr& n, const ExprPtr&, Reg dst) {
    std::vector<Reg> owned;
    std::vector<Reg> regs = operands_into(n.elems, dst, owned);
    emit(Instr{.op = Op::kTuple,
               .depth = static_cast<std::uint8_t>(n.depth),
               .dst = dst},
         regs);
    release(owned);
  }

  void lower(const lang::TupleGet& n, const ExprPtr&, Reg dst) {
    Reg t = operand_into(n.tuple, dst);
    emit(Instr{.op = Op::kTupleGet,
               .depth = static_cast<std::uint8_t>(n.depth),
               .dst = dst,
               .aux = n.index},
         {t});
  }

  void lower(const lang::SeqExpr& n, const ExprPtr& e, Reg dst) {
    std::vector<Reg> owned;
    std::vector<Reg> regs = operands_into(n.elems, dst, owned);
    std::int32_t type_idx = -1;
    if (n.depth == 0) {
      lang::TypePtr elem = n.elem_type;
      if (elem == nullptr && n.elems.empty()) {
        PROTEUS_REQUIRE(TransformError,
                        e->type != nullptr && e->type->is_seq(),
                        "vm compiler: untyped empty sequence literal");
        elem = e->type->elem();
      }
      if (elem != nullptr) type_idx = builder_.type_index(elem);
    }
    emit(Instr{.op = Op::kSeqCons,
               .depth = static_cast<std::uint8_t>(n.depth > 0 ? 1 : 0),
               .dst = dst,
               .aux = type_idx},
         regs);
    release(owned);
  }

  void lower(const lang::Iterator&, const ExprPtr&, Reg) {
    fail("vm compiler given an iterator; run the transformation first");
  }
  void lower(const lang::Call&, const ExprPtr&, Reg) {
    fail("vm compiler given an unresolved Call node");
  }
  void lower(const lang::LambdaExpr&, const ExprPtr&, Reg) {
    fail("vm compiler given an unlifted lambda");
  }

  // --- environment -----------------------------------------------------------

  [[nodiscard]] const Reg* lookup(const std::string& name) const {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  Builder& builder_;
  Function& out_;
  std::vector<std::pair<std::string, Reg>> env_;
  std::vector<Reg> free_;
  Reg next_ = 0;
};

}  // namespace

std::shared_ptr<Module> compile_module(const lang::Program& program,
                                       const ExprPtr& entry) {
  auto module = std::make_shared<Module>();
  Builder builder(*module);

  // Pass 1: register every function name so direct calls resolve to
  // indices regardless of definition order (duplicates: last wins).
  module->functions.reserve(program.functions.size() + 1);
  for (const FunDef& f : program.functions) {
    Function fn;
    fn.name = f.name;
    module->fn_index[f.name] =
        static_cast<std::uint32_t>(module->functions.size());
    module->functions.push_back(std::move(fn));
  }

  // Pass 2: compile bodies.
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    const FunDef& f = program.functions[i];
    FunCompiler(builder, module->functions[i]).compile(f.params, f.body);
  }

  if (entry != nullptr) {
    Function fn;
    fn.name = "__entry";
    module->entry = static_cast<std::int32_t>(module->functions.size());
    module->functions.push_back(std::move(fn));
    FunCompiler(builder, module->functions.back()).compile({}, entry);
  }
  return module;
}

}  // namespace proteus::vm
