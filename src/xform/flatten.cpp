#include "xform/flatten.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "vl/check.hpp"
#include "lang/printer.hpp"
#include "obs/tracer.hpp"
#include "xform/freevars.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

enum class VarClass : std::uint8_t {
  kBroadcast,  // bound at depth 0 (parameters, outer lets): depth-0 value
  kFrame,      // bound at depth >= 1: holds a depth-j frame at depth j
};

struct VarInfo {
  VarClass cls = VarClass::kBroadcast;
  TypePtr type;  // current (frame) type
};

constexpr Sym kNoSym = std::numeric_limits<Sym>::max();

/// Lexical transformation context. The variables in scope live on the
/// Flattener's binding stack; a Ctx only says which of them it sees.
struct Ctx {
  /// Frame bindings below this stack index are out of scope: R2c and
  /// hoisting see only the broadcast variables of the enclosing context.
  std::size_t frame_floor = 0;
  Sym witness = kNoSym;  // a variable holding a conformable depth-j frame
  TypePtr witness_type;  // its type (only meaningful when depth >= 1)
};

struct Res {
  ExprPtr expr;
  bool frame = false;  // true: depth-j frame; false: depth-0 broadcast value
};

TypePtr strip_seq(const TypePtr& t, int k) {
  TypePtr cur = t;
  for (int i = 0; i < k; ++i) {
    PROTEUS_REQUIRE(TransformError, cur->is_seq(),
                    "internal: stripping a non-sequence type");
    cur = cur->elem();
  }
  return cur;
}

class Flattener {
 public:
  Flattener(const Program& input, NameGen& names,
            const FlattenOptions& options)
      : input_(input), names_(names), opts_(options) {}

  FlattenedProgram run() {
    for (const FunDef& f : input_.functions) {
      transform_function(f);
    }
    scan_function_values();
    drain_worklist();
    return {std::move(output_), std::move(rules_)};
  }

  ExprPtr run_expression(const ExprPtr& expr) {
    for (const FunDef& f : input_.functions) {
      transform_function(f);
    }
    Res r = tau(expr, 0, Ctx{});
    scan_function_values();
    scan_expr_function_values(expr);
    drain_worklist();
    return r.expr;
  }

  FlattenedProgram take_program() {
    return {std::move(output_), std::move(rules_)};
  }

 private:
  // --- program-level driving --------------------------------------------------

  void transform_function(const FunDef& f) {
    Scope scope(*this);
    for (const Param& p : f.params) {
      bind(sym(p.name), VarInfo{VarClass::kBroadcast, p.type});
    }
    Res r = tau(f.body, 0, Ctx{});
    FunDef out = f;
    out.body = r.expr;
    output_.functions.push_back(std::move(out));
  }

  /// Functions whose *value* may be applied through an IndirectCall at
  /// depth 1 need their extensions generated ("the number of parallel
  /// extensions ... is a static property of the program"). That covers
  /// (a) every function referenced as a value in the program, and (b) —
  /// because callers of the library can pass any function value for a
  /// function-typed parameter — every function whose signature matches
  /// some function-typed parameter type.
  void scan_function_values() {
    for (const FunDef& f : input_.functions) {
      scan_expr_function_values(f.body);
    }
    std::vector<TypePtr> fun_param_types;
    for (const FunDef& f : input_.functions) {
      for (const Param& p : f.params) {
        if (p.type->is_fun()) fun_param_types.push_back(p.type);
      }
    }
    for (const FunDef& f : input_.functions) {
      bool extensible = false;
      for (const Param& p : f.params) {
        if (!p.type->is_fun()) extensible = true;
      }
      if (!extensible || f.params.empty()) continue;
      std::vector<TypePtr> params;
      for (const Param& p : f.params) params.push_back(p.type);
      TypePtr sig = Type::fun(std::move(params), f.result);
      for (const TypePtr& t : fun_param_types) {
        if (equal(sig, t)) {
          request_extension(f.name);
          break;
        }
      }
    }
  }

  void scan_expr_function_values(const ExprPtr& e) {
    if (e == nullptr) return;
    if (const auto* var = as<VarRef>(e)) {
      if (var->is_function) request_extension(var->name);
      return;
    }
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, Let>) {
            scan_expr_function_values(node.init);
            scan_expr_function_values(node.body);
          } else if constexpr (std::is_same_v<T, If>) {
            scan_expr_function_values(node.cond);
            scan_expr_function_values(node.then_expr);
            scan_expr_function_values(node.else_expr);
          } else if constexpr (std::is_same_v<T, Iterator>) {
            scan_expr_function_values(node.domain);
            scan_expr_function_values(node.filter);
            scan_expr_function_values(node.body);
          } else if constexpr (std::is_same_v<T, PrimCall> ||
                               std::is_same_v<T, FunCall>) {
            for (const ExprPtr& a : node.args) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, IndirectCall>) {
            scan_expr_function_values(node.fn);
            for (const ExprPtr& a : node.args) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, TupleExpr> ||
                               std::is_same_v<T, SeqExpr>) {
            for (const ExprPtr& a : node.elems) scan_expr_function_values(a);
          } else if constexpr (std::is_same_v<T, TupleGet>) {
            scan_expr_function_values(node.tuple);
          }
        },
        e->node);
  }

  void request_extension(const std::string& base) {
    if (generated_.insert(base).second) worklist_.push_back(base);
  }

  void drain_worklist() {
    while (!worklist_.empty()) {
      std::string base = std::move(worklist_.back());
      worklist_.pop_back();
      generate_extension(base);
    }
  }

  /// R0 (Section 5): f^1(V1..Vn) is derived by enclosing f's body in one
  /// canonical iterator that enumerates the argument frames, then
  /// flattening the result.
  void generate_extension(const std::string& base) {
    const FunDef* f = input_.find(base);
    PROTEUS_REQUIRE(TransformError, f != nullptr,
                    "extension requested for unknown function '" + base + "'");

    std::vector<Param> ext_params;
    ext_params.reserve(f->params.size());
    int first_frame = -1;
    for (std::size_t k = 0; k < f->params.size(); ++k) {
      const Param& p = f->params[k];
      Param q;
      q.name = names_.fresh(("V" + p.name).c_str());
      q.type = p.type->is_fun() ? p.type : Type::seq(p.type);
      if (!p.type->is_fun() && first_frame < 0) {
        first_frame = static_cast<int>(k);
      }
      ext_params.push_back(std::move(q));
    }
    PROTEUS_REQUIRE(TransformError, first_frame >= 0,
                    "cannot extend '" + base +
                        "': every parameter is function-typed");

    // [ _i <- range1(#V_first) :
    //     let p1 = V1[_i] in ... let pn = Vn[_i] in body ]
    std::string ivar = names_.fresh("i");
    const Param& vf = ext_params[static_cast<std::size_t>(first_frame)];
    ExprPtr domain = nb::prim(
        Prim::kRange1,
        {nb::prim(Prim::kLength, {nb::var(vf.name, vf.type)})});

    ExprPtr inner = f->body;
    for (std::size_t k = f->params.size(); k-- > 0;) {
      const Param& orig = f->params[k];
      const Param& ext = ext_params[k];
      ExprPtr bound =
          orig.type->is_fun()
              ? nb::var(ext.name, ext.type)
              : nb::prim(Prim::kSeqIndex, {nb::var(ext.name, ext.type),
                                           nb::var(ivar, Type::int_())});
      inner = nb::let(orig.name, std::move(bound), inner);
    }
    ExprPtr iter = nb::iterator(ivar, std::move(domain), std::move(inner));

    Scope scope(*this);
    for (const Param& p : ext_params) {
      bind(sym(p.name), VarInfo{VarClass::kBroadcast, p.type});
    }
    Res r = tau(iter, 0, Ctx{});

    FunDef out;
    out.name = extension_name(base, 1);
    out.params = std::move(ext_params);
    out.result = Type::seq(f->result);
    out.body = r.expr;
    out.extension_of = base;
    out.extension_depth = 1;
    output_.functions.push_back(std::move(out));
  }

  // --- the transformation tau(e, j) -------------------------------------------

  /// Tallies a rule firing and, when a tracer is installed, records it
  /// as a "rule" instant event carrying the depth and a source snippet
  /// (the KIDS-style derivation annotation of Section 5). The textual
  /// derivation and the Chrome trace both render from these events.
  void log_rule(const char* rule, const ExprPtr& e, int j) {
    rules_[rule] += 1;
    obs::Tracer* t = obs::tracer();
    if (t == nullptr) return;
    std::string text = to_text(e, 65);
    if (text.size() > 64) text = text.substr(0, 61) + "...";
    t->instant("rule", rule, std::move(text),
               {{"depth", static_cast<std::uint64_t>(j)}});
  }

  Res tau(const ExprPtr& e, int j, const Ctx& ctx) {
    // Invariant-hoisting: a subexpression with no free frame variables is
    // uniform across the depth-j frame; transform it once at depth 0.
    if (j >= 1 && !has_free_frame_var(e, ctx)) {
      if (as<IntLit>(e) == nullptr && as<VarRef>(e) == nullptr &&
          as<RealLit>(e) == nullptr && as<BoolLit>(e) == nullptr) {
        log_rule("hoist", e, j);
      }
      Res r = tau(e, 0, broadcast_view());
      return {r.expr, false};
    }
    return std::visit(
        [&](const auto& node) { return tau_node(node, e, j, ctx); }, e->node);
  }

  bool has_free_frame_var(const ExprPtr& e, const Ctx& ctx) {
    const VarSet& free = free_.of(e);
    return std::any_of(free.begin(), free.end(),
                       [&](Sym s) { return is_frame(s, ctx); });
  }

  /// The frame variables of `ctx` occurring free in `e`, in name order
  /// (the order their rebinding lets are emitted in).
  std::vector<Sym> free_frame_vars(const ExprPtr& e, const Ctx& ctx) {
    std::vector<Sym> out;
    for (Sym s : free_.of(e)) {
      if (is_frame(s, ctx)) out.push_back(s);
    }
    std::sort(out.begin(), out.end(), [&](Sym a, Sym b) {
      return symbols_.name(a) < symbols_.name(b);
    });
    return out;
  }

  // --- the binding stack -----------------------------------------------------

  static constexpr std::size_t kUnbound =
      std::numeric_limits<std::size_t>::max();

  struct Binding {
    Sym name;
    VarInfo info;
    std::size_t shadowed;  // the stack index of the binding this one hides
  };

  /// Pops every binding made during its lifetime.
  class Scope {
   public:
    explicit Scope(Flattener& f) : f_(f), mark_(f.env_.size()) {}
    ~Scope() {
      while (f_.env_.size() > mark_) {
        f_.innermost_[f_.env_.back().name] = f_.env_.back().shadowed;
        f_.env_.pop_back();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Flattener& f_;
    std::size_t mark_;
  };

  Sym sym(const std::string& name) {
    const Sym s = symbols_.intern(name);
    if (s >= innermost_.size()) innermost_.resize(s + 1, kUnbound);
    return s;
  }

  void bind(Sym s, VarInfo info) {
    env_.push_back(Binding{s, std::move(info), innermost_[s]});
    innermost_[s] = env_.size() - 1;
  }

  /// A context that sees the broadcast variables bound so far and all
  /// bindings made from now on; it has no witness.
  Ctx broadcast_view() const {
    Ctx ctx;
    ctx.frame_floor = env_.size();
    return ctx;
  }

  /// The innermost binding of `s` visible from `ctx`, or nullptr.
  const VarInfo* lookup(Sym s, const Ctx& ctx) const {
    if (s >= innermost_.size() || innermost_[s] == kUnbound) return nullptr;
    const std::size_t at = innermost_[s];
    const VarInfo& info = env_[at].info;
    if (info.cls == VarClass::kFrame && at < ctx.frame_floor) return nullptr;
    return &info;
  }

  bool is_frame(Sym s, const Ctx& ctx) const {
    const VarInfo* info = lookup(s, ctx);
    return info != nullptr && info->cls == VarClass::kFrame;
  }

  // R2b: constants are unchanged (depth-0, broadcast).
  Res tau_node(const IntLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }
  Res tau_node(const RealLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }
  Res tau_node(const BoolLit&, const ExprPtr& e, int, const Ctx&) {
    return {e, false};
  }

  // R2a: identifiers translate to themselves (a broadcast one keeps its
  // node); frame variables carry their frame type.
  Res tau_node(const VarRef& n, const ExprPtr& e, int j, const Ctx& ctx) {
    log_rule("R2a", e, j);
    const VarInfo* info = lookup(sym(n.name), ctx);
    if (info == nullptr) {
      // Top-level function name used as a value (R2f: functions are fully
      // parameterized, hence independent of surrounding iterators).
      PROTEUS_REQUIRE(TransformError, n.is_function,
                      "unbound variable '" + n.name + "' during flattening");
      return {e, false};
    }
    if (info->cls == VarClass::kBroadcast && equal(info->type, e->type)) {
      return {e, false};
    }
    ExprPtr var = nb::var(n.name, info->type);
    return {var, info->cls == VarClass::kFrame};
  }

  // R2e: let.
  Res tau_node(const Let& n, const ExprPtr& e0, int j, const Ctx& ctx) {
    log_rule("R2e", e0, j);
    Res init = tau(n.init, j, ctx);
    Scope scope(*this);
    bind(sym(n.var), VarInfo{init.frame ? VarClass::kFrame
                                        : VarClass::kBroadcast,
                             init.expr->type});
    Res body = tau(n.body, j, ctx);
    return {nb::let(n.var, init.expr, body.expr), body.frame};
  }

  // R2d: conditional.
  Res tau_node(const If& n, const ExprPtr&, int j, const Ctx& ctx) {
    Res cond = tau(n.cond, j, ctx);
    if (!cond.frame) {
      // Uniform condition: stays an ordinary conditional.
      Res t = tau(n.then_expr, j, ctx);
      Res f = tau(n.else_expr, j, ctx);
      const bool frame = t.frame || f.frame;
      if (frame && !t.frame) t = Res{lift(t.expr, j, ctx), true};
      if (frame && !f.frame) f = Res{lift(f.expr, j, ctx), true};
      return {nb::if_(cond.expr, t.expr, f.expr), frame};
    }

    PROTEUS_REQUIRE(TransformError, j >= 1,
                    "internal: frame-valued condition at depth 0");
    log_rule("R2d", n.cond, j);
    const TypePtr mask_type = cond.expr->type;  // Seq^j(bool)
    std::string mname = names_.fresh("m");
    std::string nmname = names_.fresh("nm");
    ExprPtr mvar = nb::var(mname, mask_type);
    ExprPtr nmvar = nb::var(nmname, mask_type);
    ExprPtr not_m = nb::prim_d(Prim::kNot, j, {mvar}, {1}, mask_type);

    ExprPtr r2 = guarded_branch(n.then_expr, mvar, j, ctx);
    ExprPtr r3 = guarded_branch(n.else_expr, nmvar, j, ctx);

    std::string r2name = names_.fresh("R2");
    std::string r3name = names_.fresh("R3");
    ExprPtr r2var = nb::var(r2name, r2->type);
    ExprPtr r3var = nb::var(r3name, r3->type);
    ExprPtr combined = combine_ext(mvar, r2var, r3var, j);

    ExprPtr result =
        nb::let(mname, cond.expr,
                nb::let(nmname, not_m,
                        nb::let(r2name, r2, nb::let(r3name, r3, combined))));
    return {result, true};
  }

  /// One guarded branch of rule R2d: evaluate the branch with every frame
  /// variable restricted by `mask`, unless the mask has no true leaf, in
  /// which case yield the empty frame.
  ExprPtr guarded_branch(const ExprPtr& branch, const ExprPtr& mask_var,
                         int j, const Ctx& ctx) {
    const TypePtr branch_frame_type =
        Type::seq_n(branch->type, j);  // Seq^j(T)

    // Restricted environment: rebind occurring frame variables, and bind a
    // fresh witness with the restricted shape (restrict(M, M), which the
    // paper also uses for the guard).
    Ctx inner = ctx;
    std::string wname = names_.fresh("w");
    ExprPtr witness_init = restrict_ext(mask_var, mask_var, j);
    inner.witness = sym(wname);
    inner.witness_type = witness_init->type;

    std::vector<std::pair<std::string, ExprPtr>> rebinds;
    rebinds.emplace_back(wname, witness_init);
    for (Sym s : free_frame_vars(branch, ctx)) {
      const std::string& name = symbols_.name(s);
      ExprPtr vvar = nb::var(name, lookup(s, ctx)->type);
      rebinds.emplace_back(name, restrict_ext(vvar, mask_var, j));
    }
    Scope scope(*this);
    bind(inner.witness, VarInfo{VarClass::kFrame, witness_init->type});

    Res body = tau(branch, j, inner);
    ExprPtr value = body.frame ? body.expr : lift(body.expr, j, inner);
    for (auto it = rebinds.rbegin(); it != rebinds.rend(); ++it) {
      value = nb::let(it->first, it->second, value);
    }

    ExprPtr guard =
        nb::prim_d(Prim::kAnyTrue, 0, {mask_var}, {}, Type::bool_());
    ExprPtr empty = nb::prim_d(Prim::kEmptyFrame, j, {mask_var}, {},
                               branch_frame_type);
    return nb::if_(guard, value, empty);
  }

  /// restrict at extension depth j-1: keeps the outer structure of the
  /// depth-j frames and filters the deepest level.
  ExprPtr restrict_ext(const ExprPtr& v, const ExprPtr& mask, int j) {
    if (j == 1) return nb::prim(Prim::kRestrict, {v, mask});
    return nb::prim_d(Prim::kRestrict, j - 1, {v, mask}, {1, 1}, v->type);
  }

  ExprPtr combine_ext(const ExprPtr& m, const ExprPtr& t, const ExprPtr& f,
                      int j) {
    if (j == 1) return nb::prim(Prim::kCombine, {m, t, f});
    return nb::prim_d(Prim::kCombine, j - 1, {m, t, f}, {1, 1, 1}, t->type);
  }

  // R2c: the iterator (canonical form [i <- range1(e1) : body]).
  Res tau_node(const Iterator& n, const ExprPtr& e0, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.filter == nullptr,
                    "internal: filtered iterator survived canonicalization");
    const auto* dom = as<PrimCall>(n.domain);
    PROTEUS_REQUIRE(TransformError,
                    dom != nullptr && dom->op == Prim::kRange1,
                    "internal: non-canonical iterator domain");
    log_rule("R2c", e0, j);

    Res ib = tau(dom->args[0], j, ctx);
    ExprPtr ib_expr = ib.expr;
    if (j >= 1 && !ib.frame) {
      // Replicate the uniform bound across the frame ("we rely on parallel
      // extensions ... to replicate such single values").
      ib_expr = lift(ib_expr, j, ctx);
    }
    std::string ibname = names_.fresh("ib");
    ExprPtr ibvar = nb::var(ibname, ib_expr->type);

    // i = range1^j(ib): the depth-(j+1) index frame.
    ExprPtr index_frame =
        j == 0 ? nb::prim(Prim::kRange1, {ibvar})
               : nb::prim_d(Prim::kRange1, j, {ibvar}, {1},
                            Type::seq_n(Type::seq(Type::int_()), j));

    // Broadcast variables remain visible; stale frame variables (not
    // dist'ed below) are dropped.
    Scope scope(*this);
    Ctx inner = broadcast_view();

    // dist every frame variable occurring in the body through the new
    // iterator level.
    const Sym ivar = sym(n.var);
    std::vector<std::pair<std::string, ExprPtr>> rebinds;
    if (j >= 1) {
      for (Sym s : free_frame_vars(n.body, ctx)) {
        if (s == ivar) continue;
        const std::string& name = symbols_.name(s);
        const TypePtr& type = lookup(s, ctx)->type;
        ExprPtr vvar = nb::var(name, type);
        ExprPtr dist = nb::prim_d(Prim::kDist, j, {vvar, ibvar}, {1, 1},
                                  Type::seq_n(strip_seq(type, j), j + 1));
        rebinds.emplace_back(name, dist);
        bind(s, VarInfo{VarClass::kFrame, dist->type});
      }
    }

    // Bind the index variable and a fresh, unshadowable witness alias.
    const TypePtr index_type = index_frame->type;
    bind(ivar, VarInfo{VarClass::kFrame, index_type});
    std::string wname = names_.fresh("w");
    inner.witness = sym(wname);
    bind(inner.witness, VarInfo{VarClass::kFrame, index_type});
    inner.witness_type = index_type;

    Res body = tau(n.body, j + 1, inner);
    ExprPtr value =
        body.frame ? body.expr : lift(body.expr, j + 1, inner);

    for (auto it = rebinds.rbegin(); it != rebinds.rend(); ++it) {
      value = nb::let(it->first, it->second, value);
    }
    value = nb::let(wname, nb::var(n.var, index_type), value);
    value = nb::let(n.var, index_frame, value);
    value = nb::let(ibname, ib_expr, value);
    return {value, j >= 1};
  }

  // R2c application rule, primitive case.
  Res tau_node(const PrimCall& n, const ExprPtr& e, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended primitive call");
    std::vector<Res> args;
    args.reserve(n.args.size());
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      if (unchanged(args, n.args)) return {e, false};
      return {rebuild_prim(n.op, args, e), false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      if (!r.frame && !opts_.broadcast_invariant_seq_args &&
          r.expr->type->is_seq()) {
        // Ablation mode: replicate invariant sequence arguments (the
        // behaviour Section 4.5 calls a waste of time and space).
        r = Res{lift(r.expr, j, ctx), true};
      }
      exprs.push_back(r.expr);
      lifted.push_back(r.frame ? 1 : 0);
    }
    return {nb::prim_d(n.op, j, std::move(exprs), std::move(lifted),
                       Type::seq_n(e->type, j)),
            true};
  }

  /// True when every result is its input node. A depth-0 call, tuple or
  /// sequence over them would copy its input node exactly, so the node is
  /// returned as it is.
  static bool unchanged(const std::vector<Res>& results,
                        const std::vector<ExprPtr>& inputs) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].expr != inputs[i]) return false;
    }
    return true;
  }

  ExprPtr rebuild_prim(Prim op, const std::vector<Res>& args,
                       const ExprPtr& e) {
    std::vector<ExprPtr> exprs;
    exprs.reserve(args.size());
    for (const Res& r : args) exprs.push_back(r.expr);
    return make_expr(PrimCall{op, 0, std::move(exprs), {}}, e->type, e->loc);
  }

  // R2c application rule, user-function case: invariant non-function
  // arguments are converted to depth-j frames "in a uniform way"
  // (Section 3), function-typed arguments stay depth-0 values.
  Res tau_node(const FunCall& n, const ExprPtr& e, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended function call");
    std::vector<Res> args;
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      if (unchanged(args, n.args)) return {e, false};
      std::vector<ExprPtr> exprs;
      for (const Res& r : args) exprs.push_back(r.expr);
      return {make_expr(FunCall{n.name, 0, std::move(exprs), {}}, e->type,
                        e->loc),
              false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      const bool is_fun_arg = r.expr->type->is_fun();
      if (!is_fun_arg && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
      lifted.push_back(is_fun_arg ? 0 : 1);
    }
    request_extension(n.name);
    log_rule("R0", e, j);
    return {nb::fun_call(n.name, j, std::move(exprs), std::move(lifted),
                         Type::seq_n(e->type, j)),
            true};
  }

  Res tau_node(const IndirectCall& n, const ExprPtr& e, int j,
               const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, n.depth == 0,
                    "flatten given an already-extended indirect call");
    Res fn = tau(n.fn, j, ctx);
    PROTEUS_REQUIRE(TransformError, !fn.frame,
                    "function values cannot vary across a frame");
    std::vector<Res> args;
    bool any_frame = false;
    for (const ExprPtr& a : n.args) {
      args.push_back(tau(a, j, ctx));
      any_frame = any_frame || args.back().frame;
    }
    if (!any_frame) {
      if (fn.expr == n.fn && unchanged(args, n.args)) return {e, false};
      std::vector<ExprPtr> exprs;
      for (const Res& r : args) exprs.push_back(r.expr);
      return {make_expr(IndirectCall{fn.expr, 0, std::move(exprs), {}},
                        e->type, e->loc),
              false};
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::uint8_t> lifted;
    for (Res& r : args) {
      const bool is_fun_arg = r.expr->type->is_fun();
      if (!is_fun_arg && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
      lifted.push_back(is_fun_arg ? 0 : 1);
    }
    return {make_expr(
                IndirectCall{fn.expr, j, std::move(exprs), std::move(lifted)},
                Type::seq_n(e->type, j), e->loc),
            true};
  }

  Res tau_node(const TupleExpr& n, const ExprPtr& e, int j, const Ctx& ctx) {
    std::vector<Res> elems;
    bool any_frame = false;
    for (const ExprPtr& el : n.elems) {
      elems.push_back(tau(el, j, ctx));
      any_frame = any_frame || elems.back().frame;
    }
    if (!any_frame && n.depth == 0 && unchanged(elems, n.elems)) {
      return {e, false};
    }
    std::vector<ExprPtr> exprs;
    for (Res& r : elems) {
      if (any_frame && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
    }
    const int depth = any_frame ? j : 0;
    return {make_expr(TupleExpr{std::move(exprs), depth},
                      any_frame ? Type::seq_n(e->type, j) : e->type, e->loc),
            any_frame};
  }

  Res tau_node(const TupleGet& n, const ExprPtr& e, int j, const Ctx& ctx) {
    Res tuple = tau(n.tuple, j, ctx);
    if (!tuple.frame) {
      if (n.depth == 0 && tuple.expr == n.tuple) return {e, false};
      return {make_expr(TupleGet{tuple.expr, n.index, 0}, e->type, e->loc),
              false};
    }
    return {make_expr(TupleGet{tuple.expr, n.index, j},
                      Type::seq_n(e->type, j), e->loc),
            true};
  }

  Res tau_node(const SeqExpr& n, const ExprPtr& e, int j, const Ctx& ctx) {
    std::vector<Res> elems;
    bool any_frame = false;
    for (const ExprPtr& el : n.elems) {
      elems.push_back(tau(el, j, ctx));
      any_frame = any_frame || elems.back().frame;
    }
    if (!any_frame && n.depth == 0 && unchanged(elems, n.elems)) {
      return {e, false};
    }
    std::vector<ExprPtr> exprs;
    for (Res& r : elems) {
      if (any_frame && !r.frame) r = Res{lift(r.expr, j, ctx), true};
      exprs.push_back(r.expr);
    }
    const int depth = any_frame ? j : 0;
    return {make_expr(SeqExpr{std::move(exprs), n.elem_type, depth},
                      any_frame ? Type::seq_n(e->type, j) : e->type, e->loc),
            any_frame};
  }

  Res tau_node(const Call&, const ExprPtr&, int, const Ctx&) {
    throw TransformError("flatten requires a checked program (Call node)");
  }

  Res tau_node(const LambdaExpr&, const ExprPtr&, int, const Ctx&) {
    throw TransformError(
        "flatten requires lambda-lifted input (LambdaExpr node)");
  }

  /// Replicates a depth-0 value to a depth-j frame conformable with the
  /// current witness:
  ///   j == 1: dist(e, #W)
  ///   j >= 2: insert(dist(e, #extract(W, j-1)), W, j-1)
  /// (Section 3's uniform conversion, composed from Table 2 and Section 4
  /// primitives.)
  ExprPtr lift(const ExprPtr& value, int j, const Ctx& ctx) {
    PROTEUS_REQUIRE(TransformError, j >= 1 && ctx.witness != kNoSym,
                    "internal: no frame witness available for replication");
    PROTEUS_REQUIRE(TransformError, !value->type->is_fun(),
                    "function values cannot be replicated into frames");
    ExprPtr w = nb::var(symbols_.name(ctx.witness), ctx.witness_type);
    if (j == 1) {
      ExprPtr n = nb::prim(Prim::kLength, {w});
      return nb::prim(Prim::kDist, {value, n});
    }
    ExprPtr flat = nb::prim_d(Prim::kExtract, 0,
                              {w, nb::int_lit(j - 1)}, {},
                              strip_seq(ctx.witness_type, j - 1));
    ExprPtr n = nb::prim(Prim::kLength, {flat});
    ExprPtr d = nb::prim(Prim::kDist, {value, n});
    return nb::prim_d(Prim::kInsert, 0, {d, w, nb::int_lit(j - 1)}, {},
                      Type::seq_n(value->type, j));
  }

  const Program& input_;
  NameGen& names_;
  FlattenOptions opts_;
  Program output_;
  RuleCounts rules_;
  std::set<std::string> generated_;
  std::vector<std::string> worklist_;
  Symbols symbols_;
  FreeVarMemo free_{symbols_};
  std::vector<Binding> env_;  // the binding stack, innermost last
  std::vector<std::size_t> innermost_;  // per Sym: its top binding in env_
};

}  // namespace

FlattenedProgram flatten(const Program& canonical, NameGen& names,
                         const FlattenOptions& options) {
  return Flattener(canonical, names, options).run();
}

ExprPtr flatten_expression(const Program& canonical, const ExprPtr& expr,
                           NameGen& names, FlattenedProgram* out,
                           const FlattenOptions& options) {
  Flattener f(canonical, names, options);
  ExprPtr result = f.run_expression(expr);
  if (out != nullptr) *out = f.take_program();
  return result;
}

}  // namespace proteus::xform
