#include "xform/canon.hpp"

#include <utility>

#include "lang/printer.hpp"
#include "obs/tracer.hpp"
#include "vl/check.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

/// True when `domain` is already of the canonical form [1..e] — either
/// range1(e) or range(1, e).
bool is_canonical_domain(const ExprPtr& domain) {
  const auto* call = as<PrimCall>(domain);
  if (call == nullptr || call->depth != 0) return false;
  if (call->op == Prim::kRange1) return true;
  if (call->op == Prim::kRange) {
    const auto* lo = as<IntLit>(call->args[0]);
    return lo != nullptr && lo->value == 1;
  }
  return false;
}

/// Normalizes a canonical domain to range1(e).
ExprPtr as_range1(const ExprPtr& domain) {
  const auto* call = as<PrimCall>(domain);
  PROTEUS_ASSERT(call != nullptr, "canonical domain is not a primitive call");
  if (call->op == Prim::kRange1) return domain;
  return nb::prim(Prim::kRange1, {call->args[1]});
}

class Canon {
 public:
  explicit Canon(NameGen& names, RuleCounts* rules)
      : names_(names), rules_(rules) {}

  ExprPtr rewrite(const ExprPtr& e) {
    if (e == nullptr) return nullptr;
    return std::visit(
        [&](const auto& node) { return rewrite_node(node, e); }, e->node);
  }

 private:
  template <typename T>
  ExprPtr rewrite_node(const T& node, const ExprPtr& e) {
    // Structural cases: rebuild with rewritten children.
    if constexpr (std::is_same_v<T, IntLit> || std::is_same_v<T, RealLit> ||
                  std::is_same_v<T, BoolLit> || std::is_same_v<T, VarRef>) {
      return e;
    } else if constexpr (std::is_same_v<T, Let>) {
      return make_expr(Let{node.var, rewrite(node.init), rewrite(node.body)},
                       e->type, e->loc);
    } else if constexpr (std::is_same_v<T, If>) {
      return make_expr(If{rewrite(node.cond), rewrite(node.then_expr),
                          rewrite(node.else_expr)},
                       e->type, e->loc);
    } else if constexpr (std::is_same_v<T, Iterator>) {
      return rewrite_iterator(node, e);
    } else if constexpr (std::is_same_v<T, PrimCall>) {
      return make_expr(
          PrimCall{node.op, node.depth, rewrite_all(node.args), node.lifted},
          e->type, e->loc);
    } else if constexpr (std::is_same_v<T, FunCall>) {
      return make_expr(
          FunCall{node.name, node.depth, rewrite_all(node.args), node.lifted},
          e->type, e->loc);
    } else if constexpr (std::is_same_v<T, IndirectCall>) {
      return make_expr(IndirectCall{rewrite(node.fn), node.depth,
                                    rewrite_all(node.args), node.lifted},
                       e->type, e->loc);
    } else if constexpr (std::is_same_v<T, TupleExpr>) {
      return make_expr(TupleExpr{rewrite_all(node.elems)}, e->type, e->loc);
    } else if constexpr (std::is_same_v<T, TupleGet>) {
      return make_expr(TupleGet{rewrite(node.tuple), node.index}, e->type,
                       e->loc);
    } else if constexpr (std::is_same_v<T, SeqExpr>) {
      return make_expr(SeqExpr{rewrite_all(node.elems), node.elem_type},
                       e->type, e->loc);
    } else {
      throw TransformError(
          "canonicalization requires a checked program (found an unresolved "
          "Call or unlifted lambda)");
    }
  }

  std::vector<ExprPtr> rewrite_all(const std::vector<ExprPtr>& items) {
    std::vector<ExprPtr> out;
    out.reserve(items.size());
    for (const ExprPtr& it : items) out.push_back(rewrite(it));
    return out;
  }

  ExprPtr rewrite_iterator(const Iterator& node, const ExprPtr& e) {
    ExprPtr domain = rewrite(node.domain);
    ExprPtr body = rewrite(node.body);

    // Filter desugaring (Section 2):
    //   [x <- d | b : e] = [x <- restrict(d, [x <- d : b]) : e]
    if (node.filter != nullptr) {
      log_rule("R1f", e);
      ExprPtr filter = rewrite(node.filter);
      std::string dname = names_.fresh("d");
      std::string mname = names_.fresh("m");
      ExprPtr dvar = nb::var(dname, domain->type);
      ExprPtr mask_iter =
          canonical_iterator(node.var, dvar, filter,
                             Type::seq(Type::bool_()), e->loc);
      ExprPtr mvar = nb::var(mname, mask_iter->type);
      ExprPtr restricted = nb::prim(Prim::kRestrict, {dvar, mvar});
      ExprPtr inner =
          canonical_iterator(node.var, restricted, body, e->type, e->loc);
      return nb::let(dname, domain, nb::let(mname, mask_iter, inner));
    }
    return canonical_iterator(node.var, domain, body, e->type, e->loc);
  }

  /// Rule R1 proper: produce an iterator whose domain is range1(e).
  ExprPtr canonical_iterator(const std::string& var, ExprPtr domain,
                             ExprPtr body, TypePtr type, SourceLoc loc) {
    // Identity iterators ([x <- d : x], ubiquitous after filter
    // desugaring) are the domain itself.
    if (const auto* ref = as<VarRef>(body)) {
      if (!ref->is_function && ref->name == var) return domain;
    }
    if (is_canonical_domain(domain)) {
      return make_expr(Iterator{var, as_range1(domain), nullptr, body},
                       std::move(type), loc);
    }
    log_rule("R1", domain);
    std::string vname = names_.fresh("v");
    std::string iname = names_.fresh("i");
    ExprPtr vvar = nb::var(vname, domain->type);
    ExprPtr ivar = nb::var(iname, Type::int_());
    ExprPtr new_domain =
        nb::prim(Prim::kRange1, {nb::prim(Prim::kLength, {vvar})});
    ExprPtr elem = nb::prim(Prim::kSeqIndex, {vvar, ivar});
    ExprPtr new_body = nb::let(var, elem, body);
    ExprPtr iter = make_expr(Iterator{iname, new_domain, nullptr, new_body},
                             std::move(type), loc);
    return nb::let(vname, domain, iter);
  }

  /// Tallies an R1-family firing and mirrors it as a "rule" instant
  /// event on the installed tracer (same shape as the R2 events of
  /// flatten.cpp, so one renderer serves the whole derivation).
  void log_rule(const char* rule, const ExprPtr& e) {
    if (rules_ != nullptr) (*rules_)[rule] += 1;
    obs::Tracer* t = obs::tracer();
    if (t == nullptr) return;
    std::string text = to_text(e, 65);
    if (text.size() > 64) text = text.substr(0, 61) + "...";
    t->instant("rule", rule, std::move(text), {{"depth", 0}});
  }

  NameGen& names_;
  RuleCounts* rules_;
};

}  // namespace

ExprPtr canonicalize(const ExprPtr& e, NameGen& names, RuleCounts* rules) {
  return Canon(names, rules).rewrite(e);
}

Program canonicalize(const Program& program, NameGen& names,
                     RuleCounts* rules) {
  Program out;
  out.functions.reserve(program.functions.size());
  for (const FunDef& f : program.functions) {
    FunDef g = f;
    g.body = canonicalize(f.body, names, rules);
    out.functions.push_back(std::move(g));
  }
  return out;
}

}  // namespace proteus::xform
